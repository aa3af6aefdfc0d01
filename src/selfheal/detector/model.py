"""Detector model container, thresholded scoring, and checkpoint I/O."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..errors import ConfigurationError, InputError, SchemaError
from ..files import integer, number
from ..numerics import (
    frozen_weights,
    init_mlp_params,
    mlp_forward,
    mlp_param_shapes,
    ops,
    params_from_payload,
    read_model,
    write_model,
)

DEFAULT_LAYER_SPEC = ((32, "relu"), (16, "relu"), (1, "sigmoid"))

CHECKPOINT_FORMAT = "selfheal-detector"


def check_threshold(threshold: float) -> None:
    """A decision threshold on sigmoid scores must lie in (0, 1)."""
    if not 0.0 < threshold < 1.0:
        raise ConfigurationError(f"threshold must be in (0, 1), got {threshold}")


@dataclass(frozen=True, eq=False)
class DetectorModel:
    """An MLP anomaly scorer with a decision threshold.

    `weights` is the MLP's weight list, [W0, b0, W1, b1, ...] as
    `mlp_param_shapes` orders it: the constructor checks each array's shape
    and finite values (InputError naming the weight) and keeps read-only
    copies."""

    input_width: int
    layer_spec: tuple[tuple[int, str], ...]
    weights: tuple[np.ndarray, ...]
    threshold: float = 0.5

    def __post_init__(self):
        check_threshold(self.threshold)
        if self.layer_spec[-1][0] != 1:
            raise ConfigurationError("final layer must have width 1")
        object.__setattr__(self, "weights", frozen_weights(
            self.weights, mlp_param_shapes(self.input_width, self.layer_spec)))

    def with_weights(self, weights) -> "DetectorModel":
        return replace(self, weights=weights)


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
        weights=init_mlp_params(input_width, spec, seed),
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
    score = float(mlp_forward(model.weights, vec[None], model.layer_spec)[-1][0, 0])
    return score, int(score >= model.threshold)


def save_checkpoint(model: DetectorModel, path: str | Path) -> None:
    write_model(path, CHECKPOINT_FORMAT, {
        "input_width": model.input_width,
        "threshold": model.threshold,
        "layer_spec": [[w, a] for w, a in model.layer_spec],
    }, mlp_param_shapes(model.input_width, model.layer_spec), model.weights)


def load_checkpoint(path: str | Path) -> DetectorModel:
    """Read a `save_checkpoint` file; parameter names and shapes must match
    its layer spec and every value must be finite (SchemaError otherwise)."""
    payload = read_model(path, CHECKPOINT_FORMAT, ("input_width", "threshold", "layer_spec"))
    input_width = integer(payload["input_width"], f"{path}: field 'input_width'", 1)
    entries = payload["layer_spec"]
    if not isinstance(entries, list) or not entries or not all(
        isinstance(e, list) and len(e) == 2 for e in entries
    ):
        raise SchemaError(
            f"{path}: field 'layer_spec' must be a nonempty list of [width, activation]"
        )
    layer_spec = []
    for i, (width, activation) in enumerate(entries):
        if not isinstance(activation, str) or activation not in ops.ACTIVATIONS:
            raise SchemaError(
                f"{path}: field 'layer_spec.{i}' has unknown activation {activation!r}"
            )
        layer_spec.append((integer(width, f"{path}: field 'layer_spec.{i}'", 1), activation))
    threshold = number(payload["threshold"], f"{path}: field 'threshold'")
    weights = params_from_payload(
        payload["params"], mlp_param_shapes(input_width, layer_spec), path
    )
    try:
        return DetectorModel(
            input_width=input_width,
            layer_spec=tuple(layer_spec),
            weights=weights,
            threshold=float(threshold),
        )
    except ConfigurationError as err:  # threshold outside (0, 1), final width != 1
        raise SchemaError(f"{path}: {err}") from None
