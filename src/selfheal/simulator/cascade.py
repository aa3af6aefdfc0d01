"""Dependency graphs and cascading-failure dynamics.

An edge (u -> v) means v depends on u; failures flow along edge direction.
Propagation follows a discrete-time weighted linear-threshold rule: a healthy
node fails once the weight of its failed dependencies reaches a fraction
`fail_threshold` of its total in-weight. Each node also carries a telemetry
series that degrades (latency up, qps down) after the node's failure tick.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..errors import InputError
from .telemetry import METRICS, clip_metrics

NODE_KINDS = ("query", "table", "index", "connection_pool", "disk")

# Healthy per-metric telemetry ranges by node kind: (cpu, memory, latency_ms,
# io_ops, qps) midpoints; actual levels are seeded around these.
_BASE_LEVELS = {
    "query": np.array([0.30, 0.35, 18.0, 120.0, 300.0]),
    "table": np.array([0.20, 0.45, 12.0, 180.0, 200.0]),
    "index": np.array([0.15, 0.30, 8.0, 150.0, 250.0]),
    "connection_pool": np.array([0.25, 0.25, 10.0, 60.0, 350.0]),
    "disk": np.array([0.35, 0.20, 22.0, 260.0, 150.0]),
}

# Multipliers applied to a node's metrics from its failure tick onward, in
# METRICS order (cpu, memory, latency_ms, io_ops, qps).
_FAILURE_EFFECT = np.array([1.3, 1.2, 4.0, 0.5, 0.2])

# Tree shape: each node's strong parent is one of the _PARENT_WINDOW nodes
# before it; a weak cross edge is drawn with probability _CROSS_EDGE_PROB.
_PARENT_WINDOW = 3
_CROSS_EDGE_PROB = 0.25
_STATIC_WIDTH = 2  # static features per node

# make_cascade_dataset draws each seed node's failure tick from
# range(*ONSET_RANGE), so its horizon must be at least ONSET_RANGE[1]
ONSET_RANGE = (2, 5)

# the failure tick of a node that never fails, and the flag tick of a node
# that is never flagged
NEVER = -1


@dataclass(frozen=True)
class GraphNode:
    id: str
    kind: str
    static_features: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise InputError(f"unknown node kind '{self.kind}'")


@dataclass(frozen=True)
class GraphEdge:
    src: str
    dst: str
    weight: float

    def __post_init__(self):
        if self.src == self.dst:
            raise InputError(f"self-edge on '{self.src}' not allowed")
        if not 0.0 < self.weight <= 1.0:
            raise InputError(f"edge weight must be in (0, 1], got {self.weight}")


class ComponentGraph:
    """Typed components with weighted directed dependency edges; `edge_src` and
    `edge_dst` are the edges' ends as node positions (read-only intp arrays)."""

    def __init__(self, nodes, edges):
        self.nodes: tuple[GraphNode, ...] = tuple(
            n if isinstance(n, GraphNode) else GraphNode(*n) for n in nodes
        )
        self.edges: tuple[GraphEdge, ...] = tuple(
            e if isinstance(e, GraphEdge) else GraphEdge(*e) for e in edges
        )
        if not self.nodes:
            raise InputError("a graph needs at least one node")
        self._index: dict[str, int] = {}
        for i, n in enumerate(self.nodes):
            if n.id in self._index:
                raise InputError(f"node {i} repeats the id '{n.id}' of node "
                                 f"{self._index[n.id]}; node ids must be unique")
            self._index[n.id] = i
            width, first = len(n.static_features), len(self.nodes[0].static_features)
            if width != first:
                raise InputError(f"node {i} has {width} static features, node 0 "
                                 f"has {first}; widths must agree")
        ends: dict[tuple[int, int], int] = {}
        for i, e in enumerate(self.edges):
            if e.src not in self._index or e.dst not in self._index:
                raise InputError(f"edge {i} ({e.src}->{e.dst}) references unknown node")
            pair = self._index[e.src], self._index[e.dst]
            if pair in ends:
                raise InputError(f"edge {i} repeats the dependency {e.src}->{e.dst} of "
                                 f"edge {ends[pair]}; each pair may be listed once")
            ends[pair] = i
        self.edge_src = np.array([src for src, _ in ends], dtype=np.intp)
        self.edge_dst = np.array([dst for _, dst in ends], dtype=np.intp)
        self.edge_src.flags.writeable = self.edge_dst.flags.writeable = False

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)

    def index_of(self, node_id: str) -> int:
        try:
            return self._index[node_id]
        except KeyError:
            raise InputError(f"unknown node '{node_id}'") from None

    def __eq__(self, other):
        if not isinstance(other, ComponentGraph):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges


@dataclass(frozen=True, eq=False)
class CascadeTrace:
    """One simulated cascade, by node position in `graph.nodes` order: each
    node's failure tick (`NEVER` if it never fails) and its telemetry, both
    read-only."""

    graph: ComponentGraph
    seed_node: str
    onset: int
    failure_ticks: np.ndarray  # (n_nodes,) int
    telemetry: np.ndarray  # (n_nodes, ticks, len(METRICS)) in METRICS order

    @property
    def ticks(self) -> int:
        return self.telemetry.shape[1]


def check_fail_threshold(threshold: float) -> None:
    """A node's failed share of in-weight that fails it must lie in (0, 1]."""
    if not 0.0 < threshold <= 1.0:
        raise InputError(f"fail_threshold must be in (0, 1], got {threshold}")


def propagate_cascade(
    graph: ComponentGraph,
    seed_node: str,
    onset: int,
    horizon: int,
    fail_threshold: float,
    seed: int,
) -> CascadeTrace:
    """Run the linear-threshold cascade over `horizon` ticks.

    The seed fails at `onset`. Each subsequent tick, a healthy node fails when
    the summed weight of its already-failed in-neighbors reaches
    `fail_threshold` of its total in-weight; nodes with no in-neighbors never
    fail by propagation. Failed nodes stay failed and their telemetry degrades
    from the failure tick onward.
    """
    check_fail_threshold(fail_threshold)
    if horizon < 1:
        raise InputError(f"horizon must be >= 1, got {horizon}")
    if not 0 <= onset < horizon:
        raise InputError(f"onset {onset} outside [0, {horizon})")
    seed_position = graph.index_of(seed_node)  # raises for unknown ids
    n_nodes = len(graph.nodes)
    # in-edges in graph.edges order, so every weight sums in that order
    in_weights: list[list[tuple[int, float]]] = [[] for _ in range(n_nodes)]
    dependents: list[list[int]] = [[] for _ in range(n_nodes)]
    totals = [0.0] * n_nodes
    for src, dst, e in zip(graph.edge_src.tolist(), graph.edge_dst.tolist(), graph.edges):
        in_weights[dst].append((src, e.weight))
        dependents[src].append(dst)
        totals[dst] += e.weight
    failure_ticks = [NEVER] * n_nodes
    failure_ticks[seed_position] = onset

    # A healthy node's failed in-weight grows only when an in-neighbour fails,
    # so each tick re-checks only the dependents of the previous tick's
    # failures, and a tick without a failure ends the cascade.
    newly = [seed_position]
    for tick in range(onset + 1, horizon):
        candidates = dict.fromkeys(
            dst for src in newly for dst in dependents[src] if failure_ticks[dst] == NEVER
        )
        newly = [
            v for v in candidates
            if sum(w for src, w in in_weights[v] if failure_ticks[src] != NEVER)
            / totals[v] >= fail_threshold
        ]
        if not newly:
            break
        for v in newly:  # after the checks: a failure acts from the next tick
            failure_ticks[v] = tick

    rng = np.random.Generator(np.random.PCG64(seed))
    series = np.empty((n_nodes, horizon, len(METRICS)))
    for node, rows, fail_tick in zip(graph.nodes, series, failure_ticks):
        level = _BASE_LEVELS[node.kind] * rng.uniform(0.85, 1.15, size=5)
        rows[:] = level + rng.normal(0.0, 0.02, size=(horizon, 5)) * level
        if fail_tick != NEVER:
            rows[fail_tick:] *= _FAILURE_EFFECT
    series = clip_metrics(series)
    failure_ticks = np.array(failure_ticks)
    series.flags.writeable = failure_ticks.flags.writeable = False
    return CascadeTrace(graph=graph, seed_node=seed_node, onset=onset,
                        failure_ticks=failure_ticks, telemetry=series)


def make_tree_graph(n_nodes: int, seed: int) -> ComponentGraph:
    """A deep dependency tree with occasional weak cross edges.

    Each non-root node has one strong parent edge (weight in [0.7, 1.0]) drawn
    from the few preceding nodes, giving real propagation depth. Optional
    cross edges carry small weights ([0.1, 0.25]) so that, at the default 0.5
    threshold, a failed strong parent always triggers the child while a failed
    cross neighbor alone never does.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    nodes = [
        GraphNode(
            id=f"n{i}",
            kind=NODE_KINDS[int(rng.integers(len(NODE_KINDS)))],
            static_features=tuple(
                float(x) for x in rng.uniform(0.25, 1.0, size=_STATIC_WIDTH)
            ),
        )
        for i in range(n_nodes)
    ]
    edges = []
    for i in range(1, n_nodes):
        lo = max(0, i - _PARENT_WINDOW)
        parent = int(rng.integers(lo, i))
        edges.append(
            GraphEdge(src=f"n{parent}", dst=f"n{i}", weight=float(rng.uniform(0.7, 1.0)))
        )
        if i >= 2 and rng.random() < _CROSS_EDGE_PROB:
            other = int(rng.integers(0, i))
            if other != parent:
                edges.append(
                    GraphEdge(
                        src=f"n{other}",
                        dst=f"n{i}",
                        weight=float(rng.uniform(0.1, 0.25)),
                    )
                )
    return ComponentGraph(nodes, edges)


def make_cascade_dataset(
    n_traces: int,
    seed: int,
    n_nodes: int = 10,
    horizon: int = 18,
    fail_threshold: float = 0.5,
) -> Iterator[CascadeTrace]:
    """Seeded suite of cascades over varied tree-like dependency graphs.

    The failing component is drawn from the shallow end of each graph so most
    cascades propagate several hops, while nodes outside the seeded subtree
    supply genuine never-failing examples.

    The traces are generated lazily, one per `next`, in a fixed order, so a
    consumer that reads each trace once holds one at a time; wrap the result
    in `list(...)` to index or slice it.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(n_traces):
        graph = make_tree_graph(n_nodes, seed=int(rng.integers(2**63)))
        # seed somewhere shallow that actually has dependents, so the cascade
        # can propagate and early warning is structurally possible
        sources = {e.src for e in graph.edges}
        candidates = [nid for nid in graph.node_ids[:4] if nid in sources] or ["n0"]
        seed_node = candidates[int(rng.integers(len(candidates)))]
        onset = int(rng.integers(*ONSET_RANGE))
        yield propagate_cascade(
            graph,
            seed_node=seed_node,
            onset=onset,
            horizon=horizon,
            fail_threshold=fail_threshold,
            seed=int(rng.integers(2**63)),
        )
