"""Small networks on weight lists of float64 arrays, with closed-form loss
gradients, SGD, the finite-difference gradient oracle, and the model files
that name the weights."""

from . import ops
from .model_file import frozen_weights, params_from_payload, read_model, write_model
from .nets import (
    LOG_CLAMP,
    Workspace,
    descend,
    finite_diff_grad,
    gnn_forward,
    gnn_loss_and_grad,
    gnn_param_shapes,
    gnn_widths,
    init_mlp_params,
    init_uniform_params,
    mlp_forward,
    mlp_loss_and_grad,
    mlp_param_shapes,
    mlp_widths,
)

__all__ = [
    "LOG_CLAMP",
    "Workspace",
    "descend",
    "finite_diff_grad",
    "frozen_weights",
    "gnn_forward",
    "gnn_loss_and_grad",
    "gnn_param_shapes",
    "gnn_widths",
    "init_mlp_params",
    "init_uniform_params",
    "mlp_forward",
    "mlp_loss_and_grad",
    "mlp_param_shapes",
    "mlp_widths",
    "ops",
    "params_from_payload",
    "read_model",
    "write_model",
]
