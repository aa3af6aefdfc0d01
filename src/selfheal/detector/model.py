"""Detector model container, thresholded scoring, and checkpoint I/O."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..errors import ConfigurationError, InputError, SchemaError
from ..files import read_json
from ..numerics import (
    ParamSet,
    forward_mlp,
    init_mlp_params,
    int_from_payload,
    mlp_param_shapes,
    params_from_payload,
    tape,
)

DEFAULT_LAYER_SPEC = ((32, "relu"), (16, "relu"), (1, "sigmoid"))

CHECKPOINT_FORMAT = "selfheal-detector"
CHECKPOINT_VERSION = 1
_CHECKPOINT_FIELDS = {"input_width", "threshold", "layer_spec", "params"}


@dataclass(frozen=True)
class DetectorModel:
    """An MLP anomaly scorer with a decision threshold."""

    input_width: int
    layer_spec: tuple[tuple[int, str], ...]
    params: ParamSet
    threshold: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ConfigurationError(
                f"threshold must be in (0, 1), got {self.threshold}"
            )
        if self.layer_spec[-1][0] != 1:
            raise ConfigurationError("final layer must have width 1")

    def with_params(self, params: ParamSet) -> "DetectorModel":
        return replace(self, params=params)


def init_detector(
    input_width: int,
    seed: int,
    layer_spec=DEFAULT_LAYER_SPEC,
    threshold: float = 0.5,
) -> DetectorModel:
    spec = tuple((int(w), str(a)) for w, a in layer_spec)
    return DetectorModel(
        input_width=input_width,
        layer_spec=spec,
        params=init_mlp_params(input_width, spec, seed),
        threshold=threshold,
    )


def detect(model: DetectorModel, x) -> tuple[float, int]:
    """Score one feature vector; flag = 1 iff score >= threshold."""
    vec = np.asarray(x, dtype=np.float64)
    if vec.ndim != 1 or vec.shape[0] != model.input_width:
        raise InputError(
            f"expected a feature vector of width {model.input_width}, "
            f"got shape {vec.shape}"
        )
    score = float(forward_mlp(model.params, vec, model.layer_spec).values[0])
    return score, int(score >= model.threshold)


def save_checkpoint(model: DetectorModel, path: str | Path) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "input_width": model.input_width,
        "threshold": model.threshold,
        "layer_spec": [[w, a] for w, a in model.layer_spec],
        "params": {
            name: {"shape": list(t.shape), "values": t.values.ravel().tolist()}
            for name, t in model.params.items()
        },
    }
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


def load_checkpoint(path: str | Path) -> DetectorModel:
    """Read a `save_checkpoint` file; parameter names and shapes must match
    its layer spec and every value must be finite (SchemaError otherwise)."""
    payload = read_json(path)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise SchemaError(f"{path}: not a detector checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise SchemaError(f"{path}: unsupported version {payload.get('version')}")
    missing = sorted(_CHECKPOINT_FIELDS - set(payload))
    if missing:
        raise SchemaError(f"{path}: missing fields: {missing}")
    input_width = int_from_payload(payload["input_width"], "input_width", path, 1)
    entries = payload["layer_spec"]
    if not isinstance(entries, list) or not entries or not all(
        isinstance(e, list) and len(e) == 2 for e in entries
    ):
        raise SchemaError(
            f"{path}: field 'layer_spec' must be a nonempty list of [width, activation]"
        )
    layer_spec = []
    for i, (width, activation) in enumerate(entries):
        if not isinstance(activation, str) or activation not in tape.ACTIVATIONS:
            raise SchemaError(
                f"{path}: field 'layer_spec.{i}' has unknown activation {activation!r}"
            )
        layer_spec.append((int_from_payload(width, f"layer_spec.{i}", path, 1), activation))
    threshold = payload["threshold"]
    if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
        raise SchemaError(f"{path}: field 'threshold' must be a number, got {threshold!r}")
    params = params_from_payload(
        payload["params"], mlp_param_shapes(input_width, layer_spec), path
    )
    try:
        return DetectorModel(
            input_width=input_width,
            layer_spec=tuple(layer_spec),
            params=params,
            threshold=float(threshold),
        )
    except ConfigurationError as err:  # threshold outside (0, 1), final width != 1
        raise SchemaError(f"{path}: {err}") from None
