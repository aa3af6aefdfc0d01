"""The one reader of the package's input files.

Every loader reads its file through `read_text` or `read_json`, so a file that
cannot be read, bytes that are not UTF-8, and an empty, truncated or otherwise
invalid JSON file raise a named error that gives the path instead of an
`OSError` or a decoder's exception.
"""

from __future__ import annotations

import json
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
    except json.JSONDecodeError as err:
        raise error(f"{path}: invalid JSON ({err})") from None
    if not isinstance(payload, dict):
        raise error(f"{path}: expected a JSON object, got {type(payload).__name__}")
    return payload
