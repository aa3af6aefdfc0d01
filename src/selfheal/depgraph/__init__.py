"""GNN over the component graph for cascading-failure prediction."""

from .gnn import (
    DEFAULT_FLAG_THRESHOLD,
    DEFAULT_HIDDEN_WIDTHS,
    DEFAULT_LABEL_HORIZON,
    FailurePrediction,
    GnnParams,
    GnnTrainResult,
    NodeEmbeddings,
    embedding_width,
    gnn_layer,
    init_embeddings,
    init_gnn,
    predict_failures,
    train_gnn,
)
from .graph_io import load_gnn, read_graph, save_gnn, write_graph
from .metrics import mttfp, node_failure_accuracy, prediction_rates, score_traces

__all__ = [
    "DEFAULT_FLAG_THRESHOLD",
    "DEFAULT_HIDDEN_WIDTHS",
    "DEFAULT_LABEL_HORIZON",
    "FailurePrediction",
    "GnnParams",
    "GnnTrainResult",
    "NodeEmbeddings",
    "embedding_width",
    "gnn_layer",
    "init_embeddings",
    "init_gnn",
    "mttfp",
    "node_failure_accuracy",
    "predict_failures",
    "prediction_rates",
    "load_gnn",
    "read_graph",
    "save_gnn",
    "score_traces",
    "train_gnn",
    "write_graph",
]
