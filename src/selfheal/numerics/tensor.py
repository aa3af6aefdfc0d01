"""Dense row-major float64 tensors and named parameter collections.

Tensors are immutable after construction and never hold NaN/Inf. ParamSet is
the unit the optimizers and the gradient machinery operate on: an ordered
(name -> Tensor) map with deterministic lexicographic iteration. The model
files (`detector.json`, `gnn.json`) share one versioned JSON container of a
header and a ParamSet: `write_model` and `read_model`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from ..errors import InputError, SchemaError
from ..files import fields, read_json


class Tensor:
    """An immutable dense array of finite float64 values."""

    __slots__ = ("_values",)

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64, order="C")
        if not np.all(np.isfinite(arr)):
            raise InputError("tensor values must be finite (no NaN/Inf)")
        arr.flags.writeable = False
        self._values = arr

    @property
    def values(self) -> np.ndarray:
        """Read-only backing array."""
        return self._values

    @property
    def shape(self) -> tuple[int, ...]:
        return self._values.shape

    @property
    def size(self) -> int:
        return int(self._values.size)

    def tolist(self):
        return self._values.tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.shape == other.shape and bool(
            np.array_equal(self._values, other._values)
        )

    def __hash__(self):
        return hash((self.shape, self._values.tobytes()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

    @staticmethod
    def zeros(shape) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=np.float64))

    @staticmethod
    def zeros_like(other: "Tensor") -> "Tensor":
        return Tensor.zeros(other.shape)


class ParamSet(Mapping[str, Tensor]):
    """Ordered, immutable name -> Tensor map.

    Iteration is always lexicographic by name, so reductions over a ParamSet
    are deterministic. Two ParamSets are update-compatible iff their names and
    per-name shapes match exactly.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, Tensor] | Iterable[tuple[str, Tensor]]):
        items = dict(entries)
        for name, tensor in items.items():
            if not isinstance(tensor, Tensor):
                items[name] = Tensor(tensor)
        self._entries: dict[str, Tensor] = {k: items[k] for k in sorted(items)}

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}:{v.shape}" for k, v in self._entries.items())
        return f"ParamSet({inner})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamSet):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        return hash(tuple(self._entries.items()))

    def mismatches(self, other: "ParamSet") -> list[str]:
        """Names present in only one set, or present in both with unequal shapes."""
        bad = sorted(set(self) ^ set(other))
        bad += [k for k in self if k in other and self[k].shape != other[k].shape]
        return sorted(set(bad))

    def flatten(self) -> np.ndarray:
        """Concatenate all entries (lexicographic order) into one flat vector."""
        if not self._entries:
            return np.zeros(0, dtype=np.float64)
        return np.concatenate([t.values.ravel() for t in self._entries.values()])

    def like(self, flat: np.ndarray) -> "ParamSet":
        """Rebuild a ParamSet with this set's names/shapes from a flat vector."""
        flat = np.asarray(flat, dtype=np.float64)
        total = sum(t.size for t in self._entries.values())
        if flat.size != total:
            raise InputError(f"flat vector has {flat.size} values, expected {total}")
        out: dict[str, Tensor] = {}
        offset = 0
        for name, tensor in self._entries.items():
            n = tensor.size
            out[name] = Tensor(flat[offset : offset + n].reshape(tensor.shape))
            offset += n
        return ParamSet(out)

    @staticmethod
    def zeros_like(other: "ParamSet") -> "ParamSet":
        return ParamSet({k: Tensor.zeros(v.shape) for k, v in other.items()})


MODEL_VERSION = 1


def write_model(path: str | Path, format_name: str, header: dict, params: ParamSet) -> None:
    """Write a model file: `format_name` and `MODEL_VERSION`, the `header`
    fields in order, then each parameter's shape and row-major values, which
    `params_from_payload` reads back bitwise."""
    payload = {"format": format_name, "version": MODEL_VERSION, **header, "params": {
        name: {"shape": list(t.shape), "values": t.values.ravel().tolist()}
        for name, t in params.items()
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
) -> ParamSet:
    """Rebuild a saved {name: {"shape", "values"}} map as a ParamSet.

    Names must be exactly those of `expected`, each shape must equal the
    expected one and every value must be finite; anything else raises a
    SchemaError that names the offending field.
    """
    fields(entries, f"{source}: field 'params'", expected)
    out: dict[str, Tensor] = {}
    for name, shape in expected.items():
        where = f"{source}: field 'params.{name}'"
        entry = fields(entries[name], where, ("shape", "values"))
        if entry["shape"] != list(shape):
            raise SchemaError(f"{where} has shape {entry['shape']}, expected {list(shape)}")
        try:
            values = np.array(entry["values"], dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            raise SchemaError(f"{where} holds non-numbers") from None
        if values.size != int(np.prod(shape)) or values.ndim != 1:
            raise SchemaError(f"{where} has {values.size} values for shape {list(shape)}")
        if not np.all(np.isfinite(values)):
            raise SchemaError(f"{where} holds non-finite values")
        out[name] = Tensor(values.reshape(shape))
    return ParamSet(out)
