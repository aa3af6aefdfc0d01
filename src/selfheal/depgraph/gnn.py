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
    GradientTape, ParamSet, bce_loss, grad, init_uniform_params, mlp_param_shapes,
    sgd_step, tape,
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


def init_embeddings(
    graph: ComponentGraph, node_telemetry: dict[str, np.ndarray], tick: int
) -> NodeEmbeddings:
    """h0 per node: one-hot kind, static features, unit-scaled metrics at tick."""
    readings = []
    for node in graph.nodes:
        if node.id not in node_telemetry:
            raise InputError(f"telemetry missing for node '{node.id}'")
        series = np.asarray(node_telemetry[node.id])
        if tick < 0 or tick >= series.shape[0]:
            raise InputError(f"tick {tick} outside telemetry of node '{node.id}'")
        readings.append(series[tick])
    kinds = np.eye(len(NODE_KINDS))[[NODE_KINDS.index(n.kind) for n in graph.nodes]]
    static = np.array([n.static_features for n in graph.nodes], dtype=np.float64)
    return NodeEmbeddings(
        layer_index=0,
        node_ids=graph.node_ids,
        vectors=np.hstack([kinds, static, unit_scaled(readings)]),
    )


def _edge_ends(graph: ComponentGraph) -> tuple[np.ndarray, np.ndarray]:
    """Edge endpoints as (src_indices, dst_indices)."""
    src = np.array([graph.index_of(e.src) for e in graph.edges], dtype=np.intp)
    dst = np.array([graph.index_of(e.dst) for e in graph.edges], dtype=np.intp)
    return src, dst


def edge_arrays(graph: ComponentGraph) -> tape.EdgeIndex:
    """The graph's edges as an `EdgeIndex` over its nodes; self-loops are
    implicit in the aggregation op, not listed here."""
    return tape.EdgeIndex(*_edge_ends(graph), len(graph.nodes))


def _message_pass(h, edges, w, b, activation: str, aggregate=None):
    """One layer, act(edge_aggregate(h) @ w + b), on arrays or tape leaves.

    `edges` is an `EdgeIndex`; the self term is implicit. A caller that already
    holds `edge_aggregate(h, edges)` of a constant `h` passes it as `aggregate`.
    """
    if aggregate is None:
        aggregate = tape.edge_aggregate(h, edges)
    return tape.activate(activation, tape.add(tape.matmul(aggregate, w), b))


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


def _forward_probs(params_map, edges, h0, hidden_widths, activation="relu",
                   h0_aggregate=None):
    """Per-node failure probabilities; works on arrays or tape leaves.
    `h0_aggregate`, when given, is `edge_aggregate(h0, edges)`."""
    h = h0
    for i in range(len(hidden_widths)):
        h = _message_pass(h, edges, params_map[f"layer{i}.W"], params_map[f"layer{i}.b"],
                          activation, h0_aggregate if i == 0 else None)
    return tape.activate("sigmoid", tape.add(
        tape.matmul(h, params_map["readout.w"]), params_map["readout.b"]
    ))


def _node_probs(gnn: GnnParams, graph: ComponentGraph, edges, node_telemetry,
                tick: int):
    """Each node's probability of failing within the label horizon of `tick`;
    `edges` is `edge_arrays(graph)`."""
    emb = init_embeddings(graph, node_telemetry, tick)
    return _forward_probs(gnn.params, edges, emb.vectors,
                          gnn.hidden_widths, gnn.hidden_activation)[:, 0]


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
    best: dict[str, float] = {nid: 0.0 for nid in graph.node_ids}
    flag_tick: dict[str, int | None] = {nid: None for nid in graph.node_ids}
    flag_prob: dict[str, float] = {}
    edges = edge_arrays(graph)
    for tick in range(horizon):
        probs = _node_probs(gnn, graph, edges, node_telemetry, tick)
        for i, nid in enumerate(graph.node_ids):
            p = float(probs[i])
            best[nid] = max(best[nid], p)
            if flag_tick[nid] is None and p >= flag_threshold:
                flag_tick[nid] = tick
                flag_prob[nid] = p
    return FailurePrediction(
        horizon=horizon,
        per_node={
            nid: (flag_prob.get(nid, best[nid]), flag_tick[nid])
            for nid in graph.node_ids
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
    indices, so every epoch is a single taped forward/backward pass.
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
    labels = np.concatenate([y for _, _, y in samples]).reshape(-1, 1)
    # h0 is a constant, not a tape leaf: its aggregate is the same every epoch
    h0_aggregate = tape.edge_aggregate(h0, edges) if gnn.hidden_widths else None

    params = gnn.params
    curve: list[float] = []
    for epoch in range(epochs):
        recorder = GradientTape(params)
        probs = _forward_probs(recorder.leaves, edges, h0, gnn.hidden_widths,
                               gnn.hidden_activation, h0_aggregate)
        loss = bce_loss(probs, labels)
        value = float(tape.value_of(loss))
        if not np.isfinite(value):
            raise TrainingError("training loss is not finite", epoch)
        curve.append(value)
        try:
            params = sgd_step(params, grad(loss, params), lr)
        except InputError as err:
            raise TrainingError(f"parameters diverged: {err}", epoch) from err
    return GnnTrainResult(
        gnn=GnnParams(
            input_width=gnn.input_width,
            hidden_widths=gnn.hidden_widths,
            params=params,
            hidden_activation=gnn.hidden_activation,
            label_horizon=label_horizon,
        ),
        loss_curve=curve,
    )
