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
from typing import Callable

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


# Each activation as (forward(z, into), vjp(g, z, out, into)) on raw arrays,
# with `out` = forward(z): the one definition `activate` records on the tape
# and the closed-form kernels replay. `into`, when given, is an array of the
# result's shape that receives the result; a vjp also uses it as scratch, so
# it must be none of the vjp's inputs. Linear returns its input itself.
def _sigmoid(z, into=None):
    e = np.exp(np.negative(z, out=into), out=into)
    return np.divide(1.0, np.add(1.0, e, out=e), out=e)


ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "relu": (
        lambda z, into=None: np.maximum(z, 0.0, out=into),
        lambda g, z, out, into=None: np.multiply(
            g, np.greater(z, 0.0, out=into), out=into),
    ),
    "sigmoid": (
        _sigmoid,
        lambda g, z, out, into=None: np.multiply(
            np.multiply(g, out, out=into), 1.0 - out, out=into),
    ),
    "tanh": (
        lambda z, into=None: np.tanh(z, out=into),
        lambda g, z, out, into=None: np.multiply(
            g, np.subtract(1.0, np.multiply(out, out, out=into), out=into), out=into),
    ),
    "linear": (lambda z, into=None: z, lambda g, z, out, into=None: g),
}


def activate(name: str, x):
    """The activation `name` of `ACTIVATIONS`, applied elementwise."""
    forward, vjp = ACTIVATIONS[name]
    xv = _val(x)
    out = forward(xv)
    if not _is_node(x):
        return out
    return _make(out, (x, lambda g, z=xv, o=out: vjp(g, z, o)))


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


def _rank_groups(keys: Array, others: Array) -> tuple[tuple[Array, Array], ...]:
    """(keys[e], others[e]) for the edges e in which each key occurs for the
    k-th time, k = 0, 1, ...; each group lists its edges in edge order.

    No key repeats within a group, so `out[keys_k] += v[others_k]` applied
    group by group gives every key its additions in edge order.
    """
    members: list[list[int]] = []
    seen: dict[int, int] = {}
    for edge, key in enumerate(keys.tolist()):
        rank = seen.get(key, 0)
        seen[key] = rank + 1
        if rank == len(members):
            members.append([])
        members[rank].append(edge)
    return tuple((keys[m], others[m]) for m in map(np.array, members))


@dataclass(frozen=True, eq=False)
class EdgeIndex:
    """Directed edges (src -> dst) between the rows of an `n_nodes`-row array,
    grouped once for `edge_aggregate`: `into_dst` by occurrence rank of the
    destination (forward), `into_src` by occurrence rank of the source (vjp).
    """

    src: Array
    dst: Array
    n_nodes: int
    into_dst: tuple[tuple[Array, Array], ...] = field(init=False, repr=False)
    into_src: tuple[tuple[Array, Array], ...] = field(init=False, repr=False)

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
        src, dst = src.astype(np.intp), dst.astype(np.intp)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "n_nodes", int(n_nodes))
        object.__setattr__(self, "into_dst", _rank_groups(dst, src))
        object.__setattr__(self, "into_src", _rank_groups(src, dst))


def scatter_add(v: Array, groups, out: Array | None = None, scratch=None) -> Array:
    """v[r] plus the sum of v[s] over the grouped pairs (r, s), in edge order:
    `edge_aggregate` with the `into_dst` groups of an `EdgeIndex`, its vjp with
    `into_src`.

    The result goes to `out` when given. `scratch`, when given, is two arrays of
    shape (largest group,) + v.shape[1:] for the gathered rows, so that the pass
    allocates nothing the size of `v`.
    """
    if out is None:
        out = v.copy()
    else:
        np.copyto(out, v)
    for receivers, senders in groups:
        rows, sent = (None, None) if scratch is None else (a[:len(receivers)] for a in scratch)
        # out[receivers] += v[senders]; np.take gathers rows faster than
        # v[senders], and with mode="clip" it writes `out=` unbuffered
        rows = np.take(out, receivers, axis=0, out=rows, mode="clip")
        rows += np.take(v, senders, axis=0, out=sent, mode="clip")
        out[receivers] = rows
    return out


def edge_aggregate(x, edges: EdgeIndex):
    """out[v] = x[v] + sum of x[src] over edges (src -> dst) with dst == v.

    The message-passing aggregation (self term plus in-neighbor sum). Each row
    receives its additions in edge order, group by group of `EdgeIndex`, as an
    unbuffered edge-by-edge accumulation would, so results are bitwise fixed by
    the edge arrays regardless of BLAS threading.
    """
    xv = _val(x)
    if xv.ndim == 0 or xv.shape[0] != edges.n_nodes:
        raise InputError(f"x has shape {xv.shape}, edges span {edges.n_nodes} rows")
    out = scatter_add(xv, edges.into_dst)
    if not _is_node(x):
        return out
    return _make(out, (x, lambda g, groups=edges.into_src: scatter_add(
        np.asarray(g, dtype=np.float64), groups)))


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
