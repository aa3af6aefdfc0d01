"""Dense float64 parameters, small networks on raw arrays with closed-form
loss gradients, SGD, and the finite-difference gradient oracle."""

from . import ops
from .nets import (
    LOG_CLAMP,
    Workspace,
    descend,
    finite_diff_grad,
    gnn_forward,
    gnn_loss_and_grad,
    init_mlp_params,
    init_uniform_params,
    mlp_forward,
    mlp_loss_and_grad,
    mlp_param_shapes,
    mlp_params,
    mlp_weights,
    sgd_step,
)
from .tensor import ParamSet, Tensor, params_from_payload, read_model, write_model

__all__ = [
    "LOG_CLAMP",
    "ParamSet",
    "Tensor",
    "Workspace",
    "descend",
    "finite_diff_grad",
    "gnn_forward",
    "gnn_loss_and_grad",
    "init_mlp_params",
    "init_uniform_params",
    "mlp_forward",
    "mlp_loss_and_grad",
    "mlp_param_shapes",
    "mlp_params",
    "mlp_weights",
    "ops",
    "params_from_payload",
    "read_model",
    "sgd_step",
    "write_model",
]
