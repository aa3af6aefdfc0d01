"""The array ops that the closed-form kernels share.

`ACTIVATIONS` defines each activation once, as a forward and its
vector-Jacobian product on raw arrays. `EdgeIndex` groups a graph's edges
once by the occurrence rank of their ends, and `scatter_add` runs the
message-passing aggregation over those groups, so that `edge_aggregate` and
its vjp give each row its additions in edge order, bitwise fixed by the edge
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from ..errors import InputError

Array = np.ndarray


# Each activation as (forward(z, into), vjp(g, out, into)) on raw arrays, with
# `out` = forward(z): the one definition that the forwards and the closed-form
# kernels read. A vjp reads the output only, so a kernel can drop z once it is
# activated; relu's reads just np.greater(out, 0.0), which equals z > 0 (for
# -0.0 and NaN too), so it takes the output or the bool mask out > 0 alike, and
# linear's reads nothing. `into`, when given, is an array of the result's shape
# that receives the result: a forward's may be `z`, a vjp's may be `out`, and
# relu's may also be `g`. Linear returns its input itself.
def _sigmoid(z, into=None):
    e = np.exp(np.negative(z, out=into), out=into)
    return np.divide(1.0, np.add(1.0, e, out=e), out=e)


def _sigmoid_vjp(g, out, into=None):
    complement = 1.0 - out  # before `into` may overwrite `out`
    return np.multiply(np.multiply(g, out, out=into), complement, out=into)


def _relu_vjp(g, out, into=None):
    # a bool `out` is the mask out > 0 itself, which np.greater would copy
    keep = out if out.dtype == np.bool_ else np.greater(out, 0.0)
    return np.multiply(g, keep, out=into)


ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "relu": (lambda z, into=None: np.maximum(z, 0.0, out=into), _relu_vjp),
    "sigmoid": (_sigmoid, _sigmoid_vjp),
    "tanh": (
        lambda z, into=None: np.tanh(z, out=into),
        lambda g, out, into=None: np.multiply(
            g, np.subtract(1.0, np.multiply(out, out, out=into), out=into), out=into),
    ),
    "linear": (lambda z, into=None: z, lambda g, out, into=None: g),
}


class RankGroups(NamedTuple):
    """The pairs (r, s) of one scatter, grouped by the occurrence rank of r.

    `first` gathers the rank-0 group whole: first[r] is the s of r's rank-0
    pair, or n_rows (a spare row) when r has none. `later` holds each later
    group k = 1, 2, ... as (receivers, senders) in edge order; no receiver
    repeats within a group, so `out[receivers] += v[senders]` applied group by
    group gives every r its additions in edge order.
    """

    first: Array
    later: tuple[tuple[Array, Array], ...]


def _rank_groups(keys: Array, others: Array, n_rows: int) -> RankGroups:
    """The pairs (keys[e], others[e]) as `RankGroups` over rows 0 .. n_rows - 1."""
    # an edge's rank is its position within its key's run of a stable sort
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(keys.size) - np.searchsorted(ordered, ordered)
    # the edges of each rank, in edge order
    members = np.split(np.argsort(rank, kind="stable"), np.cumsum(np.bincount(rank))[:-1])
    groups = [(keys[m], others[m]) for m in members if m.size]
    first = np.full(n_rows, n_rows, dtype=np.intp)
    if groups:
        receivers, senders = groups[0]
        first[receivers] = senders
    return RankGroups(first, tuple(groups[1:]))


@dataclass(frozen=True, eq=False)
class EdgeIndex:
    """Directed edges (src -> dst) between the rows of an `n_nodes`-row array,
    grouped once for `edge_aggregate`: `into_dst` by occurrence rank of the
    destination (forward), `into_src` by occurrence rank of the source (vjp).
    """

    src: Array
    dst: Array
    n_nodes: int
    into_dst: RankGroups = field(init=False, repr=False)
    into_src: RankGroups = field(init=False, repr=False)

    def __post_init__(self):
        src, dst, n_nodes = np.asarray(self.src), np.asarray(self.dst), self.n_nodes
        if not isinstance(n_nodes, (int, np.integer)) or n_nodes < 0:
            raise InputError(f"n_nodes must be an int >= 0, got {n_nodes!r}")
        for name, ends in (("src", src), ("dst", dst)):
            if ends.ndim != 1 or not (ends.size == 0 or np.issubdtype(ends.dtype, np.integer)):
                raise InputError(f"{name} must be a 1-D integer array, got "
                                 f"{ends.dtype} of shape {ends.shape}")
            bad = np.flatnonzero((ends < 0) | (ends >= n_nodes))
            if bad.size:
                raise InputError(f"edge {bad[0]}: {name} index {ends[bad[0]]} outside "
                                 f"0..{n_nodes - 1}")
        if src.shape != dst.shape:
            raise InputError(f"{src.size} sources but {dst.size} destinations")
        src, dst, n_nodes = src.astype(np.intp), dst.astype(np.intp), int(n_nodes)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "n_nodes", n_nodes)
        object.__setattr__(self, "into_dst", _rank_groups(dst, src, n_nodes))
        object.__setattr__(self, "into_src", _rank_groups(src, dst, n_nodes))


def scatter_add(padded: Array, groups: RankGroups, out: Array | None = None,
                scratch=None) -> Array:
    """v[r] plus the sum of v[s] over the grouped pairs (r, s), in edge order,
    where v is `padded` without its last row: `edge_aggregate` with the
    `into_dst` groups of an `EdgeIndex`, its vjp with `into_src`. Rows lie on
    axis -2; any axes before it are leading axes, each slice along them
    scattered alike.

    The last row of `padded` is a spare that this sets to -0.0, the value the
    rank-0 gather gives a row with no rank-0 pair: x + (-0.0) == x bitwise for
    every x, where x + 0.0 turns -0.0 into 0.0. The result goes to `out` when
    given (not part of `padded`). `scratch`, when given, is two arrays of k
    rows shaped like v's rows; each later group is then gathered, added and
    written back in blocks of k of its pairs, so that the pass allocates
    nothing the size of v. No receiver repeats within a group, so the blocks
    give the same bits as whole groups.
    """
    padded[..., -1, :] = -0.0
    v = padded[..., :-1, :]
    # np.take gathers rows faster than fancy indexing, and with mode="clip" it
    # writes `out=` unbuffered
    out = np.take(padded, groups.first, axis=-2, out=out, mode="clip")
    np.add(v, out, out=out)
    for receivers, senders in groups.later:
        block = len(receivers) if scratch is None else scratch[0].shape[-2]
        for start in range(0, len(receivers), block):
            r, s = receivers[start:start + block], senders[start:start + block]
            rows, sent = ((None, None) if scratch is None
                          else (a[..., :len(r), :] for a in scratch))
            rows = np.take(out, r, axis=-2, out=rows, mode="clip")
            rows += np.take(v, s, axis=-2, out=sent, mode="clip")
            out[..., r, :] = rows
    return out


def _padded(v: Array) -> Array:
    """A copy of `v` with one spare row after its rows (axis -2), for
    `scatter_add`."""
    padded = np.empty(v.shape[:-2] + (v.shape[-2] + 1, v.shape[-1]))
    padded[..., :-1, :] = v
    return padded


def edge_aggregate(x, edges: EdgeIndex) -> Array:
    """out[v] = x[v] + sum of x[src] over edges (src -> dst) with dst == v.

    The message-passing aggregation (self term plus in-neighbor sum). Nodes
    lie on axis -2 of x, behind any leading axes (a tick axis, say), whose
    slices each aggregate alike. Each row receives its additions in edge
    order, group by group of `EdgeIndex`, as an unbuffered edge-by-edge
    accumulation would, so results are bitwise fixed by the edge arrays
    regardless of BLAS threading. Its vjp is `scatter_add` of the adjoint
    over `edges.into_src`.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-2] != edges.n_nodes:
        raise InputError(f"x has shape {x.shape}, edges span {edges.n_nodes} rows")
    return scatter_add(_padded(x), edges.into_dst)
