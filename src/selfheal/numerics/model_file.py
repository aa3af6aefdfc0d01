"""A model's weights and the versioned JSON file that holds them.

A model keeps its parameters as the weight list its kernel takes, one
read-only float64 array per entry of its shapes map and in that map's order
(`frozen_weights`). The names exist only in the model files (`detector.json`,
`gnn.json`), which share one container of a header and the named arrays,
written in sorted-name order: `write_model` and `read_model`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ..errors import InputError, SchemaError
from ..files import fields, read_json


def frozen_weights(
    weights: Sequence, shapes: Mapping[str, tuple[int, ...]], source=None
) -> tuple[np.ndarray, ...]:
    """`weights`, one array per entry of `shapes` and in its order, as
    read-only C-contiguous float64 copies.

    A count or shape that does not fit `shapes`, or a non-finite value, raises
    an InputError naming the entry; for the arrays of the model file `source`,
    a SchemaError naming its field.
    """
    def refused(name, problem):
        if source is None:
            return InputError(f"weight '{name}' {problem}")
        return SchemaError(f"{source}: field 'params.{name}' {problem}")

    if len(weights) != len(shapes):
        raise InputError(f"{len(weights)} weight arrays for the {len(shapes)} "
                         f"parameters {list(shapes)}")
    out = []
    for (name, shape), values in zip(shapes.items(), weights):
        arr = np.array(values, dtype=np.float64, order="C")
        if arr.shape != tuple(shape):
            raise refused(name, f"has shape {arr.shape}, expected {tuple(shape)}")
        if not np.all(np.isfinite(arr)):
            raise refused(name, "holds non-finite values")
        arr.flags.writeable = False
        out.append(arr)
    return tuple(out)


MODEL_VERSION = 1


def write_model(path: str | Path, format_name: str, header: dict,
                shapes: Mapping[str, tuple[int, ...]], weights: Sequence[np.ndarray]) -> None:
    """Write a model file: `format_name` and `MODEL_VERSION`, the `header`
    fields in order, then each weight under its name from `shapes`, in
    sorted-name order, as its shape and row-major values, which
    `params_from_payload` reads back bitwise."""
    named = dict(zip(shapes, weights))
    payload = {"format": format_name, "version": MODEL_VERSION, **header, "params": {
        name: {"shape": list(named[name].shape), "values": named[name].ravel().tolist()}
        for name in sorted(named)
    }}
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


def read_model(path: str | Path, format_name: str, header) -> dict:
    """The fields of a `write_model` file: its format must be `format_name`,
    its version `MODEL_VERSION` and its keys exactly those of `header` beside
    format, version and params (SchemaError otherwise)."""
    payload = read_json(path)
    if payload.get("format") != format_name:
        raise SchemaError(f"{path}: not a {format_name} file")
    version = payload.get("version")
    if type(version) is not int or version != MODEL_VERSION:  # true and 1.0 equal 1
        raise SchemaError(f"{path}: unsupported version {version!r}")
    return fields(payload, str(path), ("format", "version", *header, "params"))


def params_from_payload(
    entries, expected: Mapping[str, tuple[int, ...]], source
) -> tuple[np.ndarray, ...]:
    """The weights of a saved {name: {"shape", "values"}} map, in `expected`
    order, as `frozen_weights` gives them.

    Names must be exactly those of `expected`, each shape must be the
    expected one as a list of ints and every value a finite JSON number (an
    int or float, not a bool or a string); anything else raises a SchemaError
    that names the offending field.
    """
    fields(entries, f"{source}: field 'params'", expected)
    arrays = []
    for name, shape in expected.items():
        where = f"{source}: field 'params.{name}'"
        entry = fields(entries[name], where, ("shape", "values"))
        # [true] equals [1], and true equals 1.0: a bool must not pass as a number
        if entry["shape"] != list(shape) or not all(type(n) is int for n in entry["shape"]):
            raise SchemaError(f"{where} has shape {entry['shape']}, expected {list(shape)}")
        values = entry["values"]
        if not isinstance(values, list) or not all(type(v) in (int, float) for v in values):
            raise SchemaError(f"{where} holds non-numbers")
        try:
            values = np.array(values, dtype=np.float64)
        except OverflowError:  # an int past float's range
            raise SchemaError(f"{where} holds a number past float's range") from None
        if values.size != int(np.prod(shape)):
            raise SchemaError(f"{where} has {values.size} values for shape {list(shape)}")
        arrays.append(values.reshape(shape))
    return frozen_weights(arrays, expected, source)
