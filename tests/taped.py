"""Reverse-mode automatic differentiation on a recorded operation graph: the
reference that the closed-form kernels of `selfheal.numerics` are tested
against.

Each arithmetic op either runs directly on numpy arrays (pure evaluation) or,
when any operand is a `Node`, records itself on the implicit tape by linking
the output node to its parents together with a vector-Jacobian product. A
backward sweep from a scalar loss node then accumulates d(loss)/d(leaf) for
every leaf: the arrays of a weight list, each named by its index. Replaying
the same tape is bitwise deterministic: the graph is the recording, and the
backward traversal order is fixed by it.

Supported shapes are scalars, vectors, and matrices (matrix-vector and
matrix-matrix products plus elementwise ops with bias-style broadcasting);
that is all the MLPs and the message-passing layer need. `forward_mlp`,
`bce_loss` and `forward_probs` build the detector's network, its loss and the
GNN from these ops. The kernels `mlp_loss_and_grad` and `gnn_loss_and_grad`
replay their operation order, so the tests compare the two bitwise.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from selfheal.errors import InputError
from selfheal.numerics import ops
from selfheal.numerics.nets import LOG_CLAMP, _check_labels, _check_layer

Array = np.ndarray


class Node:
    """One recorded value: the result array plus links to its inputs."""

    __slots__ = ("value", "parents", "name")

    def __init__(
        self,
        value,
        parents: tuple[tuple["Node", Callable[[Array], Array]], ...] = (),
        name: int | None = None,
    ):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape


def _val(x) -> Array:
    if isinstance(x, Node):
        return x.value
    return np.asarray(x, dtype=np.float64)


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


def activate(name: str, x):
    """The activation `name` of `ops.ACTIVATIONS`, applied elementwise."""
    forward, vjp = ops.ACTIVATIONS[name]
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


def edge_aggregate(x, edges: ops.EdgeIndex):
    """`ops.edge_aggregate`, recorded with its vjp: the scatter of the adjoint
    over `edges.into_src`."""
    out = ops.edge_aggregate(_val(x), edges)
    if not _is_node(x):
        return out
    return _make(out, (x, lambda g, groups=edges.into_src: ops.scatter_add(
        ops._padded(g), groups)))


def value_of(x) -> Array:
    """Plain numpy value of an array or Node."""
    return _val(x)


class GradientTape:
    """Wraps the arrays of a weight list as leaves of one recording, each
    named by its index.

    A tape is confined to one logical execution; leaves are fresh nodes, so
    two tapes over the same weights never share graph state.
    """

    def __init__(self, weights):
        self.leaves: list[Node] = [Node(w, name=i) for i, w in enumerate(weights)]


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


def grad(loss, weights) -> list[Array]:
    """d(loss)/d(w) for every array w of `weights`, in their order.

    `loss` must be a scalar produced by taped operations. Weights whose
    leaves do not appear on the tape get zero gradients: that is the contract
    that lets callers freeze components by simply not taping them.
    """
    if not isinstance(loss, Node):
        raise InputError("loss is not a taped value; build it from tape leaves")
    if np.asarray(loss.value).size != 1:
        raise InputError(f"loss must be scalar, got shape {loss.shape}")

    adjoint: dict[int, Array] = {id(loss): np.ones_like(loss.value)}
    by_name: dict[int, Array] = {}
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

    out = []
    for i, w in enumerate(weights):
        g = by_name.get(i)
        shape = np.shape(w)
        out.append(np.zeros(shape) if g is None
                   else np.asarray(g, dtype=np.float64).reshape(shape))
    return out


def forward_mlp(weights, x, layer_spec):
    """Feed-forward pass through the layers of `layer_spec`.

    `weights` is [W0, b0, W1, b1, ...] as arrays (pure evaluation, returns an
    array) or as tape leaves (taped evaluation, returns a Node). Input may be
    a single feature vector (d,) or a batch (n, d).
    """
    h = value_of(x)
    if h.ndim not in (1, 2):
        raise InputError(f"input must be a vector or batch, got shape {h.shape}")
    current: object = h
    width = h.shape[-1]
    for i, (out_width, activation) in enumerate(layer_spec):
        w, b = weights[2 * i], weights[2 * i + 1]
        _check_layer(i, activation, width, out_width, w, b)
        current = activate(activation, add(matmul(current, w), b))
        width = out_width
    return current


def bce_loss(pred, label):
    """Binary cross-entropy, -[y ln p + (1-y) ln(1-p)], averaged over a batch.

    Predictions are clamped to [1e-7, 1 - 1e-7] before the logs. Accepts
    scalars, arrays, or taped nodes for `pred`; labels must be 0/1.
    """
    labels = np.asarray(value_of(label), dtype=np.float64)
    _check_labels(labels)
    p = clip(pred, LOG_CLAMP, 1.0 - LOG_CLAMP)
    term = add(
        mul(labels, log(p)),
        mul(1.0 - labels, log(sub(1.0, p))),
    )
    return mul(mean(term), -1.0)


def forward_probs(weights, edges, h0, hidden_widths, activation="relu"):
    """Per-node failure probabilities of the GNN from taped ops, on a weight
    list in `gnn_param_shapes` order, as arrays or tape leaves: the reference
    of `gnn_forward` and `gnn_loss_and_grad`."""
    h = h0
    for i in range(len(hidden_widths)):
        z = matmul(edge_aggregate(h, edges), weights[2 * i])
        h = activate(activation, add(z, weights[2 * i + 1]))
    return activate("sigmoid", add(matmul(h, weights[-2]), weights[-1]))
