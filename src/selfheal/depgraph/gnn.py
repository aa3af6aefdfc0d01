"""Message-passing network over the component graph.

Layer rule: h'_v = relu(W @ sum_{u in N(v)} h_u + b) with N(v) the in-neighbors
of v plus v itself (self-loop added at message time; without it an isolated
node could never use its own features). Aggregation is the plain unnormalized
sum. A one-column sigmoid readout of the last layer gives each node's
failure probability. Initial embeddings concatenate a one-hot node kind, the
node's static features, and its current unit-scaled telemetry.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigurationError, InputError, TrainingError
from ..numerics import (
    Workspace, descend, frozen_weights, gnn_forward, gnn_loss_and_grad, gnn_param_shapes,
    gnn_widths, init_uniform_params, ops,
)
from ..simulator import METRICS, CascadeTrace, ComponentGraph
from ..simulator.cascade import NEVER, NODE_KINDS
from ..simulator.tasks import unit_scaled

DEFAULT_HIDDEN_WIDTHS = (16, 16)
DEFAULT_FLAG_THRESHOLD = 0.5
DEFAULT_LABEL_HORIZON = 2
# initial row and edge capacity of the training batch, which doubles when full
BATCH_ROWS = 1024


@dataclass(frozen=True, eq=False)
class GnnParams:
    """Stacked relu message-passing layers plus a per-node sigmoid readout.

    `weights` is the network's weight list in `gnn_param_shapes` order, the
    hidden layers' [W0, b0, W1, b1, ...] and then the readout's w and b, whose
    matrices give the widths. The constructor refuses a negative label
    horizon and weights that do not chain or are not finite (InputError
    naming the weight), and keeps read-only copies."""

    weights: tuple[np.ndarray, ...]
    label_horizon: int = DEFAULT_LABEL_HORIZON

    def __post_init__(self):
        if self.label_horizon < 0:
            raise InputError(f"label_horizon must be >= 0, got {self.label_horizon}")
        object.__setattr__(self, "weights", frozen_weights(
            self.weights, gnn_param_shapes(*gnn_widths(self.weights))))

    @property
    def input_width(self) -> int:
        return gnn_widths(self.weights)[0]

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return gnn_widths(self.weights)[1]


@dataclass(frozen=True)
class NodeEmbeddings:
    """Per-node vectors at one message-passing depth."""

    layer_index: int
    node_ids: tuple[str, ...]
    vectors: np.ndarray  # (n_nodes, width)

    def __post_init__(self):
        if self.vectors.shape[0] != len(self.node_ids):
            raise InputError("one embedding row per node required")
        if not np.all(np.isfinite(self.vectors)):
            raise InputError("embeddings must be finite")

    @property
    def width(self) -> int:
        return self.vectors.shape[1]

    def vector(self, node_id: str) -> np.ndarray:
        return self.vectors[self.node_ids.index(node_id)]


def embedding_width(graph: ComponentGraph) -> int:
    static = len(graph.nodes[0].static_features)
    return len(NODE_KINDS) + static + len(METRICS)


def _inputs_by_tick(graph: ComponentGraph, telemetry: np.ndarray, ticks) -> np.ndarray:
    """h0 at each of `ticks`, stacked (len(ticks), n_nodes, width): per node,
    one-hot kind, static features and unit-scaled metrics at the tick.
    `telemetry` is (n_nodes, ticks, len(METRICS)) in `graph.nodes` order. The
    constant columns are built once for all the ticks."""
    telemetry = np.asarray(telemetry)
    n_nodes, n_metrics = len(graph.nodes), len(METRICS)
    if telemetry.ndim != 3 or telemetry.shape[::2] != (n_nodes, n_metrics):
        raise InputError(f"telemetry has shape {telemetry.shape}, expected "
                         f"({n_nodes}, ticks, {n_metrics})")
    ticks = list(ticks)
    outside = [t for t in ticks if not 0 <= t < telemetry.shape[1]]
    if outside:
        raise InputError(f"tick {outside[0]} outside telemetry of {telemetry.shape[1]} ticks")
    kinds = np.eye(len(NODE_KINDS))[[NODE_KINDS.index(n.kind) for n in graph.nodes]]
    static = np.array([n.static_features for n in graph.nodes], dtype=np.float64)
    constant = np.hstack([kinds, static])
    scaled = unit_scaled(telemetry[:, ticks].swapaxes(0, 1))
    h0 = np.concatenate(
        [np.broadcast_to(constant, (len(ticks), *constant.shape)), scaled], axis=2)
    if not np.all(np.isfinite(h0)):
        raise InputError("embeddings must be finite")
    return h0


def init_embeddings(graph: ComponentGraph, telemetry: np.ndarray, tick: int) -> NodeEmbeddings:
    """h0 per node: one-hot kind, static features, unit-scaled metrics at tick."""
    return NodeEmbeddings(layer_index=0, node_ids=graph.node_ids,
                          vectors=_inputs_by_tick(graph, telemetry, [tick])[0])


def edge_arrays(graph: ComponentGraph) -> ops.EdgeIndex:
    """The graph's edges as an `EdgeIndex` over its nodes; self-loops are
    implicit in the aggregation op, not listed here."""
    return ops.EdgeIndex(graph.edge_src, graph.edge_dst, len(graph.nodes))


def gnn_layer(
    graph: ComponentGraph, emb: NodeEmbeddings, layer: tuple
) -> NodeEmbeddings:
    """Apply one message-passing layer, relu(edge_aggregate(h) @ W + b), to
    the embeddings, with the ops of a `gnn_forward` hidden layer. `layer` is
    (W, b, "relu")."""
    w, b, activation = layer
    if activation != "relu":
        raise ConfigurationError(f"unsupported layer activation '{activation}'")
    w, b = (np.asarray(v, dtype=np.float64) for v in (w, b))
    if w.ndim != 2 or w.shape[0] != emb.width or b.shape != w.shape[1:]:
        raise ConfigurationError(f"layer weight must be a matrix of {emb.width} rows and b "
                                 f"one entry per column, got W{w.shape} and b{b.shape}")
    z = ops.edge_aggregate(emb.vectors, edge_arrays(graph)) @ w
    out = np.maximum(np.add(z, b, out=z), 0.0, out=z)
    return NodeEmbeddings(layer_index=emb.layer_index + 1, node_ids=emb.node_ids,
                          vectors=out)


def init_gnn(
    graph: ComponentGraph,
    seed: int,
    hidden_widths: tuple[int, ...] = DEFAULT_HIDDEN_WIDTHS,
    label_horizon: int = DEFAULT_LABEL_HORIZON,
) -> GnnParams:
    """Seeded uniform init matching the detector's scheme."""
    shapes = gnn_param_shapes(embedding_width(graph), tuple(hidden_widths))
    return GnnParams(init_uniform_params(shapes, seed), label_horizon)


@dataclass(frozen=True, eq=False)
class FailurePrediction:
    """Per node, in graph order: the failure probability and the first flag
    tick (`NEVER` when the node is never flagged)."""

    probs: np.ndarray  # (n_nodes,)
    flag_ticks: np.ndarray  # (n_nodes,) int


def check_flag_threshold(threshold: float) -> None:
    """A flag threshold above 1 could never flag: probabilities are at most 1."""
    if not threshold <= 1.0:
        raise InputError(f"flag_threshold must be <= 1, got {threshold}")


def scan_failures(
    graph: ComponentGraph, telemetry: np.ndarray, gnn: GnnParams, horizon: int,
    flag_threshold: float,
) -> tuple[np.ndarray, FailurePrediction]:
    """`predict_failures`, and the scan it comes from: each node's probability
    of failing within the label horizon at ticks 0 .. horizon - 1, (horizon,
    n_nodes), from one `gnn_forward` over the ticks stacked on a leading axis,
    which equals one pass per tick bitwise."""
    if horizon < 1:
        raise InputError(f"horizon must be >= 1, got {horizon}")
    check_flag_threshold(flag_threshold)
    edges = edge_arrays(graph)
    h0 = _inputs_by_tick(graph, telemetry, range(horizon))
    x = ops.edge_aggregate(h0, edges) if gnn.hidden_widths else h0
    probs = gnn_forward(gnn.weights, x, edges)[..., 0]
    flagged = probs >= flag_threshold
    first, hit = flagged.argmax(axis=0), flagged.any(axis=0)
    at_flag = probs[first, np.arange(probs.shape[1])]
    best = np.where(hit, at_flag, probs.max(axis=0, initial=0.0))
    return probs, FailurePrediction(probs=best, flag_ticks=np.where(hit, first, NEVER))


def predict_failures(
    graph: ComponentGraph,
    telemetry: np.ndarray,
    gnn: GnnParams,
    horizon: int,
    flag_threshold: float = DEFAULT_FLAG_THRESHOLD,
) -> FailurePrediction:
    """Scan `horizon` ticks; a node's flag tick is the first tick at which its
    predicted probability of failing within the label horizon reaches
    `flag_threshold`. The stored probability is the one at the flag tick, or
    the maximum seen (at least 0.0) when the node is never flagged."""
    return scan_failures(graph, telemetry, gnn, horizon, flag_threshold)[1]


@dataclass
class GnnTrainResult:
    gnn: GnnParams
    loss_curve: list[float]


def fails_within(trace: CascadeTrace, tick: int, horizon: int) -> np.ndarray:
    """Per node, in graph order: 1.0 if it has failed by `tick + horizon`, else 0.0."""
    fails = trace.failure_ticks
    return ((fails != NEVER) & (fails <= tick + horizon)).astype(np.float64)


def _grown(buffer: np.ndarray, used: int, need: int) -> np.ndarray:
    """`buffer` if it holds `need` entries along its first axis; otherwise a
    buffer of double its length (or `need`, if larger) with its first `used`
    entries copied."""
    if need <= len(buffer):
        return buffer
    grown = np.empty((max(need, 2 * len(buffer)), *buffer.shape[1:]), dtype=buffer.dtype)
    grown[:used] = buffer[:used]
    return grown


def _training_batch(traces, width: int, label_horizon: int, rng):
    """The training batch (src, dst, h0, labels): two ticks per trace, sampled
    near onset, stacked on one node axis, each with its graph's edge ends
    offset to its rows, its input embeddings and its `fails_within` labels.

    Each trace is read once and none is kept: its rows, labels and edge ends
    are written straight into arrays that double when full, so no per-sample
    array outlives the trace it came from.
    """
    h0, labels = np.empty((BATCH_ROWS, width)), np.empty(BATCH_ROWS)
    src, dst = np.empty(BATCH_ROWS, dtype=np.intp), np.empty(BATCH_ROWS, dtype=np.intp)
    rows = n_edges = 0
    for position, trace in enumerate(traces):
        span = min(6, trace.ticks - trace.onset)
        offsets = sorted(int(o) for o in rng.integers(0, span, size=2))
        ticks = [trace.onset + off for off in offsets]
        # both ticks from one call: the same bits as one call per tick
        h = _inputs_by_tick(trace.graph, trace.telemetry, ticks)
        if h.shape[2] != width:
            raise InputError(f"trace {position} of the dataset has embedding width "
                             f"{h.shape[2]}, but the network's input width is {width}")
        trace_src, trace_dst = trace.graph.edge_src, trace.graph.edge_dst
        n, m = h.shape[1], len(trace_src)
        h0, labels = _grown(h0, rows, rows + 2 * n), _grown(labels, rows, rows + 2 * n)
        src, dst = _grown(src, n_edges, n_edges + 2 * m), _grown(dst, n_edges, n_edges + 2 * m)
        h0[rows:rows + 2 * n] = h.reshape(2 * n, width)
        for tick in ticks:
            labels[rows:rows + n] = fails_within(trace, tick, label_horizon)
            np.add(trace_src, rows, out=src[n_edges:n_edges + m])
            np.add(trace_dst, rows, out=dst[n_edges:n_edges + m])
            rows, n_edges = rows + n, n_edges + m
    return src[:n_edges], dst[:n_edges], h0[:rows], labels[:rows]


def train_gnn(
    dataset: Iterable[CascadeTrace],
    hidden_widths: tuple[int, ...] = DEFAULT_HIDDEN_WIDTHS,
    epochs: int = 300,
    lr: float = 0.3,
    seed: int = 0,
    label_horizon: int = DEFAULT_LABEL_HORIZON,
) -> GnnTrainResult:
    """Full-batch gradient descent on node-level BCE.

    A node's label at a sampled tick is 1 iff it fails within `label_horizon`
    ticks of it. All samples are stacked into one node axis with offset edge
    indices, so every epoch is a single forward/backward pass: the closed-form
    `gnn_loss_and_grad` on one workspace, bitwise equal to a taped reverse
    sweep of the same loss, followed by a `descend` step.

    `dataset` is any iterable of traces, a one-shot generator included: each
    trace is read once, before the first epoch, and none is kept while the
    network trains. The network's input width comes from the first trace.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    traces = iter(dataset)
    first = next(traces, None)
    if first is None:
        raise InputError("dataset must be nonempty")
    gnn = init_gnn(first.graph, seed=seed, hidden_widths=tuple(hidden_widths),
                   label_horizon=label_horizon)
    src, dst, h0, labels = _training_batch(itertools.chain((first,), traces),
                                           gnn.input_width, label_horizon, rng)
    del first
    edges = ops.EdgeIndex(src, dst, len(h0))
    # h0 is a constant: its aggregate is the same every epoch, and only that
    # aggregate is read from here on
    x = ops.edge_aggregate(h0, edges) if gnn.hidden_widths else h0
    del src, dst, h0

    weights, workspace = gnn.weights, Workspace()
    curve: list[float] = []
    for epoch in range(epochs):
        loss, grads = gnn_loss_and_grad(weights, x, labels, edges, workspace)
        value = float(loss)
        if not np.isfinite(value):
            raise TrainingError("training loss is not finite", epoch)
        curve.append(value)
        try:
            weights = descend(weights, grads, lr)
        except InputError as err:
            raise TrainingError(f"parameters diverged: {err}", epoch) from err
    return GnnTrainResult(gnn=replace(gnn, weights=weights), loss_curve=curve)
