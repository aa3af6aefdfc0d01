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


# Each activation as (forward(z), vjp(g, z, out)) on raw arrays, with `out` =
# forward(z): the one definition `activate` records on the tape and the fused
# MLP kernel replays.
ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda g, z, out: g * (z > 0.0)),
    "sigmoid": (
        lambda z: 1.0 / (1.0 + np.exp(-z)),
        lambda g, z, out: g * out * (1.0 - out),
    ),
    "tanh": (np.tanh, lambda g, z, out: g * (1.0 - out * out)),
    "linear": (lambda z: z, lambda g, z, out: g),
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


def edge_aggregate(x, src: np.ndarray, dst: np.ndarray):
    """out[v] = x[v] + sum of x[src] over edges (src -> dst) with dst == v.

    The message-passing aggregation (self term plus in-neighbor sum) as an
    unbuffered indexed accumulation: the reduction order is fixed by the edge
    arrays, so results are bitwise identical regardless of BLAS threading.
    """
    xv = _val(x)
    src = np.asarray(src, dtype=np.intp)
    dst = np.asarray(dst, dtype=np.intp)
    out = xv.copy()
    np.add.at(out, dst, xv[src])
    if not _is_node(x):
        return out

    def vjp(g, src=src, dst=dst):
        g = np.asarray(g, dtype=np.float64)
        dx = g.copy()
        np.add.at(dx, src, g[dst])
        return dx

    return _make(out, (x, vjp))


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
