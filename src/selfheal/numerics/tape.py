"""Reverse-mode automatic differentiation on a recorded operation graph.

Each arithmetic op either runs directly on numpy arrays (pure evaluation) or,
when any operand is a `Node`, records itself on the implicit tape by linking
the output node to its parents together with a vector-Jacobian product. A
backward sweep from a scalar loss node then accumulates d(loss)/d(leaf) for
every named leaf. Replaying the same tape is bitwise deterministic: the graph
is the recording, and the backward traversal order is fixed by it.

Supported shapes are scalars, vectors, and matrices (matrix-vector and
matrix-matrix products plus elementwise ops with bias-style broadcasting);
that is all the MLPs and the message-passing layer need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from ..errors import InputError
from .tensor import ParamSet, Tensor

Array = np.ndarray


def _as_array(x) -> Array:
    if isinstance(x, Tensor):
        return x.values
    return np.asarray(x, dtype=np.float64)


class Node:
    """One recorded value: the result array plus links to its inputs."""

    __slots__ = ("value", "parents", "name")

    def __init__(
        self,
        value,
        parents: tuple[tuple["Node", Callable[[Array], Array]], ...] = (),
        name: str | None = None,
    ):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape


def _val(x) -> Array:
    return x.value if isinstance(x, Node) else _as_array(x)


def _is_node(*xs) -> bool:
    return any(isinstance(x, Node) for x in xs)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient down to `shape` after numpy broadcasting."""
    grad = np.asarray(grad, dtype=np.float64)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _make(value, *links) -> Node:
    parents = tuple((p, vjp) for p, vjp in links if isinstance(p, Node))
    return Node(value, parents)


def add(a, b):
    av, bv = _val(a), _val(b)
    out = av + bv
    if not _is_node(a, b):
        return out
    return _make(
        out,
        (a, lambda g, s=av.shape: _unbroadcast(g, s)),
        (b, lambda g, s=bv.shape: _unbroadcast(g, s)),
    )


def sub(a, b):
    av, bv = _val(a), _val(b)
    out = av - bv
    if not _is_node(a, b):
        return out
    return _make(
        out,
        (a, lambda g, s=av.shape: _unbroadcast(g, s)),
        (b, lambda g, s=bv.shape: _unbroadcast(-g, s)),
    )


def mul(a, b):
    av, bv = _val(a), _val(b)
    out = av * bv
    if not _is_node(a, b):
        return out
    return _make(
        out,
        (a, lambda g, o=bv, s=av.shape: _unbroadcast(g * o, s)),
        (b, lambda g, o=av, s=bv.shape: _unbroadcast(g * o, s)),
    )


def matmul(a, b):
    av, bv = _val(a), _val(b)
    if av.ndim not in (1, 2) or bv.ndim not in (1, 2):
        raise InputError("matmul supports only vectors and matrices")
    out = av @ bv
    if not _is_node(a, b):
        return out

    def grad_a(g, av=av, bv=bv):
        if av.ndim == 1 and bv.ndim == 2:
            return g @ bv.T
        if av.ndim == 2 and bv.ndim == 1:
            return np.outer(g, bv)
        if av.ndim == 1 and bv.ndim == 1:
            return g * bv
        return g @ bv.T

    def grad_b(g, av=av, bv=bv):
        if av.ndim == 1 and bv.ndim == 2:
            return np.outer(av, g)
        if av.ndim == 2 and bv.ndim == 1:
            return av.T @ g
        if av.ndim == 1 and bv.ndim == 1:
            return g * av
        return av.T @ g

    return _make(out, (a, grad_a), (b, grad_b))


# Each activation as (forward(z, into), vjp(g, out, into)) on raw arrays, with
# `out` = forward(z): the one definition `activate` records on the tape and the
# closed-form kernels replay. A vjp reads the output only, so a kernel can drop
# z once it is activated; relu's reads just np.greater(out, 0.0), which equals
# z > 0 (for -0.0 and NaN too), so it takes the output or the bool mask
# out > 0 alike, and linear's reads nothing. `into`, when given, is an array of
# the result's shape that receives the result: a forward's may be `z`, a vjp's
# may be `out`, and relu's may also be `g`. Linear returns its input itself.
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


def activate(name: str, x):
    """The activation `name` of `ACTIVATIONS`, applied elementwise."""
    forward, vjp = ACTIVATIONS[name]
    xv = _val(x)
    out = forward(xv)
    if not _is_node(x):
        return out
    return _make(out, (x, lambda g, o=out: vjp(g, o)))


def log(x):
    xv = _val(x)
    out = np.log(xv)
    if not _is_node(x):
        return out
    return _make(out, (x, lambda g, v=xv: g / v))


def clip(x, lo: float, hi: float):
    xv = _val(x)
    out = np.clip(xv, lo, hi)
    if not _is_node(x):
        return out
    mask = (xv >= lo) & (xv <= hi)
    return _make(out, (x, lambda g, m=mask: g * m))


def total(x):
    """Sum of all elements, as a scalar."""
    xv = _val(x)
    out = np.float64(xv.sum())
    if not _is_node(x):
        return out
    return _make(out, (x, lambda g, s=xv.shape: np.broadcast_to(g, s).copy()))


def mean(x):
    xv = _val(x)
    n = xv.size
    out = np.float64(xv.sum() / n)
    if not _is_node(x):
        return out
    return _make(
        out, (x, lambda g, s=xv.shape, n=n: np.broadcast_to(g / n, s).copy())
    )


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


def edge_aggregate(x, edges: EdgeIndex):
    """out[v] = x[v] + sum of x[src] over edges (src -> dst) with dst == v.

    The message-passing aggregation (self term plus in-neighbor sum). Nodes
    lie on axis -2 of x, behind any leading axes (a tick axis, say), whose
    slices each aggregate alike. Each row receives its additions in edge
    order, group by group of `EdgeIndex`, as an unbuffered edge-by-edge
    accumulation would, so results are bitwise fixed by the edge arrays
    regardless of BLAS threading.
    """
    xv = _val(x)
    if xv.ndim < 2 or xv.shape[-2] != edges.n_nodes:
        raise InputError(f"x has shape {xv.shape}, edges span {edges.n_nodes} rows")
    out = scatter_add(_padded(xv), edges.into_dst)
    if not _is_node(x):
        return out
    return _make(out, (x, lambda g, groups=edges.into_src: scatter_add(_padded(g), groups)))


def value_of(x) -> Array:
    """Plain numpy value of an array, Tensor, or Node."""
    return _val(x)


class GradientTape:
    """Wraps a ParamSet's tensors as named leaves of one recording.

    A tape is confined to one logical execution; leaves are fresh nodes, so
    two tapes over the same ParamSet never share graph state.
    """

    def __init__(self, params: ParamSet):
        self.leaves: dict[str, Node] = {
            name: Node(tensor.values, name=name) for name, tensor in params.items()
        }


def _topo_order(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def grad(loss, params: ParamSet) -> ParamSet:
    """d(loss)/d(param) for every entry of `params`.

    `loss` must be a scalar produced by taped operations. Parameters whose
    leaves do not appear on the tape get zero gradients: that is the contract
    that lets callers freeze components by simply not taping them.
    """
    if not isinstance(loss, Node):
        raise InputError("loss is not a taped value; build it from tape leaves")
    if np.asarray(loss.value).size != 1:
        raise InputError(f"loss must be scalar, got shape {loss.shape}")

    adjoint: dict[int, Array] = {id(loss): np.ones_like(loss.value)}
    by_name: dict[str, Array] = {}
    for node in reversed(_topo_order(loss)):
        g = adjoint.pop(id(node), None)
        if g is None:
            continue
        if node.name is not None:
            prev = by_name.get(node.name)
            by_name[node.name] = g if prev is None else prev + g
        for parent, vjp in node.parents:
            contrib = vjp(g)
            acc = adjoint.get(id(parent))
            adjoint[id(parent)] = contrib if acc is None else acc + contrib

    out: dict[str, Tensor] = {}
    for name, tensor in params.items():
        g = by_name.get(name)
        if g is None:
            out[name] = Tensor.zeros(tensor.shape)
        else:
            out[name] = Tensor(np.asarray(g, dtype=np.float64).reshape(tensor.shape))
    return ParamSet(out)
