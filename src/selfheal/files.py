"""The one reader of the package's input files, and its field checks.

Every loader reads its file through `read_text` or `read_json`, so a file that
cannot be read, bytes that are not UTF-8, and an empty, truncated or otherwise
invalid JSON file raise a named error that gives the path instead of an
`OSError` or a decoder's exception. The loaders and the config reader check
what they read with `fields`, `integer`, `number` and `string`, which raise
the same kind of named error, saying where the field is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .errors import SchemaError


def read_text(path: str | Path, error: type[Exception] = SchemaError) -> str:
    """The UTF-8 text of the file at `path`, newlines as stored; a file that
    cannot be read (missing, a directory) or bytes that are not UTF-8 raise
    `error`."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except OSError as err:
        raise error(f"{path}: cannot read ({err.strerror})") from None
    except UnicodeDecodeError as err:
        raise error(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from None


def read_json(path: str | Path, error: type[Exception] = SchemaError) -> dict:
    """The JSON object in the UTF-8 file at `path`. What `read_text` rejects,
    text that is not JSON (an empty or truncated file) and a top level that is
    not an object raise `error`."""
    try:
        payload = json.loads(read_text(path, error))
    except ValueError as err:  # JSONDecodeError, or an int past Python's digit limit
        raise error(f"{path}: invalid JSON ({err})") from None
    if not isinstance(payload, dict):
        raise error(f"{path}: expected a JSON object, got {type(payload).__name__}")
    return payload


def fields(value, where: str, required, allowed=(),
           error: type[Exception] = SchemaError) -> dict:
    """`value`, which must be an object holding every key of `required` and
    no key outside `required` and `allowed`; `error` names `where` and the
    offending keys otherwise."""
    if not isinstance(value, dict):
        raise error(f"{where} must be an object, got {value!r}")
    problems = [f"{kind} keys {keys}" for kind, keys in (
        ("unknown", sorted(set(value) - set(required) - set(allowed))),
        ("missing", sorted(set(required) - set(value)))) if keys]
    if problems:
        raise error(f"{where} has {' and '.join(problems)}")
    return value


def integer(value, where: str, minimum: int, error: type[Exception] = SchemaError) -> int:
    """`value`, which must be an int (not a bool) >= `minimum` (`error` otherwise)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise error(f"{where} must be an integer >= {minimum}, got {value!r}")
    return value


def number(value, where: str, minimum: float | None = None,
           error: type[Exception] = SchemaError):
    """`value`, which must be an int or float (not a bool) that a finite float
    can hold, at least `minimum` if one is given (`error` otherwise)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max  # NaN, +-inf, ints past float
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum:g}"
        raise error(f"{where} must be a finite number{bound}, got {value!r}")
    return value


def string(value, where: str, error: type[Exception] = SchemaError) -> str:
    """`value`, which must be a str (`error` otherwise)."""
    if not isinstance(value, str):
        raise error(f"{where} must be a string, got {value!r}")
    return value
