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
    mlp_widths,
    params_from_payload,
    read_model,
    write_model,
)

DEFAULT_HIDDEN_WIDTHS = (32, 16)

CHECKPOINT_FORMAT = "selfheal-detector"


def check_threshold(threshold: float) -> None:
    """A decision threshold on sigmoid scores must lie in (0, 1)."""
    if not 0.0 < threshold < 1.0:
        raise ConfigurationError(f"threshold must be in (0, 1), got {threshold}")


@dataclass(frozen=True, eq=False)
class DetectorModel:
    """An MLP anomaly scorer, relu hidden layers and a one-column sigmoid
    head, with a decision threshold.

    `weights` is the MLP's weight list, [W0, b0, W1, b1, ...] as
    `mlp_param_shapes` orders it, whose matrices give the widths: the
    constructor refuses weights that do not chain or are not finite
    (InputError naming the weight) and keeps read-only copies."""

    weights: tuple[np.ndarray, ...]
    threshold: float = 0.5

    def __post_init__(self):
        check_threshold(self.threshold)
        input_width, hidden_widths = mlp_widths(self.weights)
        object.__setattr__(self, "weights", frozen_weights(
            self.weights, mlp_param_shapes(input_width, (*hidden_widths, 1))))

    @property
    def input_width(self) -> int:
        return mlp_widths(self.weights)[0]

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return mlp_widths(self.weights)[1]

    def with_weights(self, weights) -> "DetectorModel":
        return replace(self, weights=weights)


def init_detector(
    input_width: int,
    seed: int,
    hidden_widths: tuple[int, ...] = DEFAULT_HIDDEN_WIDTHS,
    threshold: float = 0.5,
) -> DetectorModel:
    return DetectorModel(
        weights=init_mlp_params(input_width, (*hidden_widths, 1), seed),
        threshold=threshold,
    )


def detect(model: DetectorModel, x) -> tuple[float, int]:
    """Score one feature vector of the model's input width (InputError
    otherwise); flag = 1 iff score >= threshold."""
    vec = np.asarray(x, dtype=np.float64)
    if vec.ndim != 1:
        raise InputError(f"expected a feature vector, got shape {vec.shape}")
    score = float(mlp_forward(model.weights, vec[None])[-1][0, 0])
    return score, int(score >= model.threshold)


def _spec_header(hidden_widths) -> list[list]:
    """The `layer_spec` field of a `save_checkpoint` file."""
    return [[w, "relu"] for w in hidden_widths] + [[1, "sigmoid"]]


def save_checkpoint(model: DetectorModel, path: str | Path) -> None:
    write_model(path, CHECKPOINT_FORMAT, {
        "input_width": model.input_width,
        "threshold": model.threshold,
        "layer_spec": _spec_header(model.hidden_widths),
    }, mlp_param_shapes(model.input_width, (*model.hidden_widths, 1)), model.weights)


def load_checkpoint(path: str | Path) -> DetectorModel:
    """Read a `save_checkpoint` file; its layer spec must be relu hidden
    layers and a one-column sigmoid head, parameter names and shapes must
    match it and every value must be finite (SchemaError otherwise)."""
    payload = read_model(path, CHECKPOINT_FORMAT, ("input_width", "threshold", "layer_spec"))
    input_width = integer(payload["input_width"], f"{path}: field 'input_width'", 1)
    entries = payload["layer_spec"]
    if not isinstance(entries, list) or not entries or not all(
        isinstance(e, list) and len(e) == 2 for e in entries
    ):
        raise SchemaError(
            f"{path}: field 'layer_spec' must be a nonempty list of [width, activation]"
        )
    widths = [integer(w, f"{path}: field 'layer_spec.{i}'", 1)
              for i, (w, _) in enumerate(entries)]
    for i, (entry, expected) in enumerate(zip(entries, _spec_header(widths[:-1]))):
        if entry != expected:
            raise SchemaError(f"{path}: field 'layer_spec.{i}' must be {expected}, got {entry}")
    threshold = number(payload["threshold"], f"{path}: field 'threshold'")
    weights = params_from_payload(
        payload["params"], mlp_param_shapes(input_width, widths), path
    )
    try:
        return DetectorModel(
            weights=weights,
            threshold=float(threshold),
        )
    except ConfigurationError as err:  # threshold outside (0, 1)
        raise SchemaError(f"{path}: {err}") from None
