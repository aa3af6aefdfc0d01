"""Message-passing network over the component graph.

Layer rule: h'_v = act(W @ sum_{u in N(v)} h_u + b) with N(v) the in-neighbors
of v plus v itself (self-loop added at message time; without it an isolated
node could never use its own features). Aggregation is the plain unnormalized
sum. Initial embeddings concatenate a one-hot node kind, the node's static
features, and its current unit-scaled telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, InputError, TrainingError
from ..numerics import (
    ParamSet, Workspace, gnn_loss_and_grad, init_uniform_params, mlp_param_shapes, tape,
)
from ..simulator import METRICS, CascadeTrace, ComponentGraph
from ..simulator.cascade import NODE_KINDS
from ..simulator.tasks import unit_scaled

DEFAULT_HIDDEN_WIDTHS = (16, 16)
HIDDEN_ACTIVATIONS = ("relu", "tanh", "linear")
DEFAULT_FLAG_THRESHOLD = 0.5
DEFAULT_LABEL_HORIZON = 2


@dataclass(frozen=True)
class GnnParams:
    """Stacked message-passing layers plus a per-node sigmoid readout."""

    input_width: int
    hidden_widths: tuple[int, ...]
    params: ParamSet
    hidden_activation: str = "relu"
    label_horizon: int = DEFAULT_LABEL_HORIZON


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


def _inputs_by_tick(
    graph: ComponentGraph, node_telemetry: dict[str, np.ndarray], ticks
) -> np.ndarray:
    """h0 at each of `ticks`, stacked (len(ticks), n_nodes, width): per node,
    one-hot kind, static features and unit-scaled metrics at the tick. The
    constant columns are built once for all the ticks."""
    ticks = list(ticks)
    lo, hi = min(ticks), max(ticks)
    readings = []
    for node in graph.nodes:
        if node.id not in node_telemetry:
            raise InputError(f"telemetry missing for node '{node.id}'")
        series = np.asarray(node_telemetry[node.id])
        if lo < 0 or hi >= series.shape[0]:
            tick = next(t for t in ticks if t < 0 or t >= series.shape[0])
            raise InputError(f"tick {tick} outside telemetry of node '{node.id}'")
        readings.append(series[ticks])
    kinds = np.eye(len(NODE_KINDS))[[NODE_KINDS.index(n.kind) for n in graph.nodes]]
    static = np.array([n.static_features for n in graph.nodes], dtype=np.float64)
    constant = np.hstack([kinds, static])
    scaled = unit_scaled(np.stack(readings, axis=1))
    h0 = np.concatenate(
        [np.broadcast_to(constant, (len(ticks), *constant.shape)), scaled], axis=2)
    if not np.all(np.isfinite(h0)):
        raise InputError("embeddings must be finite")
    return h0


def init_embeddings(
    graph: ComponentGraph, node_telemetry: dict[str, np.ndarray], tick: int
) -> NodeEmbeddings:
    """h0 per node: one-hot kind, static features, unit-scaled metrics at tick."""
    return NodeEmbeddings(layer_index=0, node_ids=graph.node_ids,
                          vectors=_inputs_by_tick(graph, node_telemetry, [tick])[0])


def _edge_ends(graph: ComponentGraph) -> tuple[np.ndarray, np.ndarray]:
    """Edge endpoints as (src_indices, dst_indices)."""
    src = np.array([graph.index_of(e.src) for e in graph.edges], dtype=np.intp)
    dst = np.array([graph.index_of(e.dst) for e in graph.edges], dtype=np.intp)
    return src, dst


def edge_arrays(graph: ComponentGraph) -> tape.EdgeIndex:
    """The graph's edges as an `EdgeIndex` over its nodes; self-loops are
    implicit in the aggregation op, not listed here."""
    return tape.EdgeIndex(*_edge_ends(graph), len(graph.nodes))


def _message_pass(h, edges, w, b, activation: str):
    """One layer, act(edge_aggregate(h) @ w + b), on arrays or tape leaves.

    `edges` is an `EdgeIndex`; the self term is implicit.
    """
    return tape.activate(activation, tape.add(
        tape.matmul(tape.edge_aggregate(h, edges), w), b))


def gnn_layer(
    graph: ComponentGraph, emb: NodeEmbeddings, layer: tuple
) -> NodeEmbeddings:
    """Apply one message-passing layer to the embeddings."""
    w, b, activation = layer
    w, b = tape.value_of(w), tape.value_of(b)
    if w.shape[0] != emb.width or b.shape != (w.shape[1],):
        raise ConfigurationError(
            f"layer expects W({emb.width}, out) and b(out,), got W{w.shape} b{b.shape}"
        )
    if activation not in HIDDEN_ACTIVATIONS:
        raise ConfigurationError(f"unsupported layer activation '{activation}'")
    out = _message_pass(emb.vectors, edge_arrays(graph), w, b, activation)
    return NodeEmbeddings(
        layer_index=emb.layer_index + 1, node_ids=emb.node_ids, vectors=out
    )


def init_gnn(
    graph: ComponentGraph,
    seed: int,
    hidden_widths: tuple[int, ...] = DEFAULT_HIDDEN_WIDTHS,
    label_horizon: int = DEFAULT_LABEL_HORIZON,
) -> GnnParams:
    """Seeded uniform init matching the detector's scheme."""
    width, hidden_widths = embedding_width(graph), tuple(hidden_widths)
    return GnnParams(
        input_width=width,
        hidden_widths=hidden_widths,
        params=init_uniform_params(gnn_param_shapes(width, hidden_widths), seed),
        label_horizon=label_horizon,
    )


def gnn_param_shapes(
    input_width: int, hidden_widths: tuple[int, ...]
) -> dict[str, tuple[int, ...]]:
    """Parameter name -> shape of a GNN with these widths, in `init_gnn` order:
    the hidden layers as `mlp_param_shapes` names them, then the readout."""
    shapes = mlp_param_shapes(input_width, [(width, None) for width in hidden_widths])
    fan_in = hidden_widths[-1] if hidden_widths else input_width
    shapes["readout.w"], shapes["readout.b"] = (fan_in, 1), (1,)
    return shapes


def _forward_probs(params_map, edges, h0, hidden_widths, activation="relu"):
    """Per-node failure probabilities; works on arrays or tape leaves. Training
    runs the same network through `gnn_loss_and_grad`, and this taped pass is
    its reference."""
    h = h0
    for i in range(len(hidden_widths)):
        h = _message_pass(h, edges, params_map[f"layer{i}.W"], params_map[f"layer{i}.b"],
                          activation)
    return tape.activate("sigmoid", tape.add(
        tape.matmul(h, params_map["readout.w"]), params_map["readout.b"]
    ))


def _node_probs(gnn: GnnParams, edges, h0: np.ndarray) -> np.ndarray:
    """Each node's probability of failing within the label horizon of the tick
    whose input embeddings are `h0`; `edges` is `edge_arrays(graph)`."""
    return _forward_probs(gnn.params, edges, h0, gnn.hidden_widths,
                          gnn.hidden_activation)[:, 0]


@dataclass(frozen=True)
class FailurePrediction:
    """Per-node failure probability and first flag tick, if any."""

    horizon: int
    per_node: dict[str, tuple[float, int | None]]

    def flagged(self) -> dict[str, int]:
        return {n: t for n, (_, t) in self.per_node.items() if t is not None}


def predict_failures(
    graph: ComponentGraph,
    node_telemetry: dict[str, np.ndarray],
    gnn: GnnParams,
    horizon: int,
    flag_threshold: float = DEFAULT_FLAG_THRESHOLD,
) -> FailurePrediction:
    """Scan `horizon` ticks; a node's flag tick is the first tick at which its
    predicted probability of failing within the label horizon reaches
    `flag_threshold`. The stored probability is the one at the flag tick, or
    the maximum seen when the node is never flagged."""
    if horizon < 1:
        raise InputError(f"horizon must be >= 1, got {horizon}")
    node_ids = graph.node_ids
    best: dict[str, float] = {nid: 0.0 for nid in node_ids}
    flag_tick: dict[str, int | None] = {nid: None for nid in node_ids}
    flag_prob: dict[str, float] = {}
    edges = edge_arrays(graph)
    for tick, h0 in enumerate(_inputs_by_tick(graph, node_telemetry, range(horizon))):
        for nid, p in zip(node_ids, _node_probs(gnn, edges, h0).tolist()):
            best[nid] = max(best[nid], p)
            if flag_tick[nid] is None and p >= flag_threshold:
                flag_tick[nid] = tick
                flag_prob[nid] = p
    return FailurePrediction(
        horizon=horizon,
        per_node={
            nid: (flag_prob.get(nid, best[nid]), flag_tick[nid]) for nid in node_ids
        },
    )


@dataclass
class GnnTrainResult:
    gnn: GnnParams
    loss_curve: list[float]


def fails_within(trace: CascadeTrace, tick: int, horizon: int) -> np.ndarray:
    """Per node, in graph order: 1.0 if it has failed by `tick + horizon`, else 0.0."""
    return np.array([
        1.0 if (fail := trace.failure_times[nid]) is not None and fail <= tick + horizon
        else 0.0
        for nid in trace.graph.node_ids
    ])


def _training_samples(dataset, label_horizon, rng):
    """(graph, h0, labels) triples: two ticks per trace, sampled near onset."""
    samples = []
    for trace in dataset:
        span = min(6, trace.ticks - trace.onset)
        offsets = rng.integers(0, span, size=2)
        for off in sorted(int(o) for o in offsets):
            tick = trace.onset + off
            emb = init_embeddings(trace.graph, trace.node_telemetry, tick)
            samples.append((trace.graph, emb.vectors,
                            fails_within(trace, tick, label_horizon)))
    return samples


def train_gnn(
    dataset: list[CascadeTrace],
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
    `gnn_loss_and_grad` on one workspace, bitwise equal to the taped pass
    `grad(bce_loss(_forward_probs(...)))` followed by `sgd_step`.
    """
    if not dataset:
        raise InputError("dataset must be nonempty")
    rng = np.random.Generator(np.random.PCG64(seed))
    gnn = init_gnn(dataset[0].graph, seed=seed, hidden_widths=tuple(hidden_widths),
                   label_horizon=label_horizon)

    samples = _training_samples(dataset, label_horizon, rng)
    src_parts, dst_parts = [], []
    offset = 0
    for graph, h, _ in samples:
        src, dst = _edge_ends(graph)
        src_parts.append(src + offset)
        dst_parts.append(dst + offset)
        offset += h.shape[0]
    edges = tape.EdgeIndex(np.concatenate(src_parts), np.concatenate(dst_parts), offset)
    h0 = np.vstack([h for _, h, _ in samples])
    labels = np.concatenate([y for _, _, y in samples])
    # h0 is a constant: its aggregate is the same every epoch
    x = tape.edge_aggregate(h0, edges) if gnn.hidden_widths else h0

    layer_spec = [(width, gnn.hidden_activation) for width in gnn.hidden_widths]
    layer_spec.append((1, "sigmoid"))
    names = list(gnn_param_shapes(gnn.input_width, gnn.hidden_widths))
    weights = [gnn.params[name].values for name in names]
    workspace = Workspace()
    curve: list[float] = []
    for epoch in range(epochs):
        loss, grads = gnn_loss_and_grad(weights, x, labels, edges, layer_spec, workspace)
        value = float(loss)
        if not np.isfinite(value):
            raise TrainingError("training loss is not finite", epoch)
        curve.append(value)
        # sgd_step on the arrays, with its checks
        if lr < 0:
            raise TrainingError(f"parameters diverged: learning rate must be >= 0, "
                                f"got {lr}", epoch)
        weights = [w - lr * g for w, g in zip(weights, grads)]
        if not all(np.isfinite(w).all() for w in weights):
            raise TrainingError("parameters diverged: tensor values must be finite "
                                "(no NaN/Inf)", epoch)
    return GnnTrainResult(
        gnn=GnnParams(
            input_width=gnn.input_width,
            hidden_widths=gnn.hidden_widths,
            params=ParamSet(dict(zip(names, weights))),
            hidden_activation=gnn.hidden_activation,
            label_horizon=label_horizon,
        ),
        loss_curve=curve,
    )
