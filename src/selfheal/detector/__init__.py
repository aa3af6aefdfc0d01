"""MAML-based few-shot anomaly detector."""

from .maml import (
    ADAPT_LOSS_BOUND,
    EvalReport,
    MetaConfig,
    MetaTrainResult,
    evaluate,
    inner_adapt,
    meta_gradient,
    meta_train,
    meta_update,
)
from .model import (
    DEFAULT_HIDDEN_WIDTHS,
    DetectorModel,
    detect,
    init_detector,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "ADAPT_LOSS_BOUND",
    "DEFAULT_HIDDEN_WIDTHS",
    "DetectorModel",
    "EvalReport",
    "MetaConfig",
    "MetaTrainResult",
    "detect",
    "evaluate",
    "init_detector",
    "inner_adapt",
    "load_checkpoint",
    "meta_gradient",
    "meta_train",
    "meta_update",
    "save_checkpoint",
]
