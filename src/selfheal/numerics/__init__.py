"""Minimal dense tensor arithmetic with reverse-mode autodiff and SGD."""

from . import tape
from .nets import (
    LOG_CLAMP,
    bce_loss,
    finite_diff_grad,
    forward_mlp,
    init_mlp_params,
    init_uniform_params,
    mlp_loss_and_grad,
    mlp_param_shapes,
    mlp_params,
    mlp_weights,
    sgd_step,
)
from .tape import GradientTape, Node, grad
from .tensor import ParamSet, Tensor, int_from_payload, params_from_payload

__all__ = [
    "LOG_CLAMP",
    "GradientTape",
    "Node",
    "ParamSet",
    "Tensor",
    "bce_loss",
    "finite_diff_grad",
    "forward_mlp",
    "grad",
    "init_mlp_params",
    "init_uniform_params",
    "int_from_payload",
    "mlp_loss_and_grad",
    "mlp_param_shapes",
    "mlp_params",
    "mlp_weights",
    "params_from_payload",
    "sgd_step",
    "tape",
]
