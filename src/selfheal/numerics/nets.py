"""Small dense networks: one array forward per network, its closed-form loss
and gradient, SGD, and the finite-difference oracle every gradient in this
package is checked against.

Every function here takes a network's parameters as its weight list,
[W0, b0, W1, b1, ...] in layer order, the form the models hold, and reads
the widths from its matrices (`mlp_widths`, `gnn_widths`: one chain check).
`mlp_forward` is the MLP and `gnn_forward` the message-passing network,
both relu hidden layers and a one-column sigmoid head; detection,
evaluation, Shapley attribution and GNN scoring run on them.
`mlp_loss_and_grad` (optionally batched over tasks) and `gnn_loss_and_grad`
(on a reused `Workspace`) call them and add the BCE loss and its gradient in
closed form; the detector and the GNN train with them, stepping with
`descend`, the one SGD step. Both kernels replay the operation order of a
taped reverse sweep of the same loss, the reference in `tests/taped.py`, and
equal it bitwise."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import InputError
from . import ops

LOG_CLAMP = 1e-7


def layer_param_names(layer_index: int) -> tuple[str, str]:
    return f"layer{layer_index}.W", f"layer{layer_index}.b"


def mlp_param_shapes(
    input_width: int, widths: Sequence[int]
) -> dict[str, tuple[int, ...]]:
    """Parameter name -> shape of the dense layers of these output widths."""
    shapes: dict[str, tuple[int, ...]] = {}
    fan_in = input_width
    for i, width in enumerate(widths):
        w_name, b_name = layer_param_names(i)
        shapes[w_name], shapes[b_name] = (fan_in, width), (width,)
        fan_in = width
    return shapes


def init_uniform_params(shapes: dict[str, tuple[int, ...]], seed: int) -> list[np.ndarray]:
    """One array per entry of `shapes`, in its order, uniform in
    [-0.5/sqrt(fan_in), +0.5/sqrt(fan_in)]; each bias takes the fan-in of the
    weight matrix listed before it, so the first entry must be a matrix
    (InputError naming it otherwise)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = []
    bound = None
    for name, shape in shapes.items():
        if len(shape) == 2:
            bound = 0.5 / np.sqrt(shape[0])
        elif bound is None:
            raise InputError(f"entry '{name}' of shape {tuple(shape)} comes before any "
                             "weight matrix, so it has no fan-in")
        weights.append(rng.uniform(-bound, bound, size=shape))
    return weights


def init_mlp_params(
    input_width: int, widths: Sequence[int], seed: int
) -> list[np.ndarray]:
    """Uniform init in [-0.5/sqrt(fan_in), +0.5/sqrt(fan_in)] per layer."""
    return init_uniform_params(mlp_param_shapes(input_width, widths), seed)


def _chain(weights: Sequence, kind: str, head: tuple[str, str] | None,
           lead: tuple[int, ...] | None = ()) -> tuple[int, tuple[int, ...]]:
    """The input width and hidden widths of the weight list [W0, b0, ..., w,
    b] of dense layers and a one-column head, read from its matrices behind
    the leading axes `lead` (None: those of W0), one comparison per layer.
    InputError when the list is empty or odd, or naming the first weight that
    does not chain; the head's pair is named `head`, or by its layer when
    `head` is None."""
    if not weights or len(weights) % 2:
        raise InputError(f"{len(weights)} weight arrays: {kind} has a W and a b per layer")
    shapes = [np.shape(w) for w in weights]
    lead = shapes[0][:-2] if lead is None else lead
    last, n_lead = len(shapes) - 2, len(lead)
    input_width = fan_in = shapes[0][n_lead] if len(shapes[0]) > n_lead else 0
    widths = []
    for k in range(0, len(shapes), 2):
        width = 1 if k == last else shapes[k][-1] if shapes[k] else 0
        expected = lead + (fan_in, width), lead + (width,)
        if shapes[k] != expected[0] or shapes[k + 1] != expected[1]:
            bad = int(shapes[k] == expected[0])
            name = (head if head and k == last else layer_param_names(k // 2))[bad]
            raise InputError(f"weight '{name}' has shape {shapes[k + bad]}, "
                             f"expected {expected[bad]}")
        widths.append(width)
        fan_in = width
    return input_width, tuple(widths[:-1])


def mlp_widths(weights: Sequence) -> tuple[int, tuple[int, ...]]:
    """The input width and hidden widths of the MLP weight list [W0, b0, ...,
    w, b], read from its matrices behind the leading axes of W0 (a task axis,
    say), which every weight must share. InputError when the list is empty or
    odd, or naming the first weight whose shape is not its `mlp_param_shapes`
    one for these widths and a one-column head."""
    return _chain(weights, "an MLP", None, None)


def _check_labels(labels: np.ndarray) -> None:
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise InputError("labels must be 0 or 1")


class Workspace:
    """Arrays that a kernel overwrites pass after pass, by name: each is
    allocated on the first request for its name, shape and dtype and handed
    back on every later one."""

    def __init__(self):
        self._arrays: dict = {}

    def __call__(self, name, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        array = self._arrays.get(name)
        if array is None or array.shape != shape or array.dtype != dtype:
            array = self._arrays[name] = np.empty(shape, dtype)
        return array


def _bce_head(out: np.ndarray, labels: np.ndarray, ws: Workspace | None = None):
    """Binary cross-entropy, -[y ln p + (1-y) ln(1-p)] averaged over the rows,
    of predictions `out` (..., n, 1) clamped to [LOG_CLAMP, 1 - LOG_CLAMP],
    against 0/1 `labels`, and its adjoint d(loss)/d(out): the ops (clip, two
    logs, mean, negate) and then the adjoint of each, on arrays from `ws`
    when given."""
    shape = None if ws is None else np.broadcast_shapes(out.shape, labels.shape)

    def buf(k):
        return None if ws is None else ws(("bce", k), shape)

    n = out.shape[-2] * out.shape[-1]
    clipped = np.clip(out, LOG_CLAMP, 1.0 - LOG_CLAMP, out=buf(0))
    complement = np.subtract(1.0, clipped, out=buf(1))
    negated = np.subtract(1.0, labels, out=buf(2))
    t = np.multiply(labels, np.log(clipped, out=buf(3)), out=buf(3))
    np.add(t, np.multiply(negated, np.log(complement, out=buf(4)), out=buf(4)), out=t)
    loss = t.sum(axis=(-2, -1)) / n * -1.0
    g_term = -1.0 / n
    np.divide(np.multiply(g_term, labels, out=t), clipped, out=t)
    u = np.divide(np.multiply(g_term, negated, out=buf(4)), complement, out=buf(4))
    g = np.subtract(t, u, out=buf(5))
    # the clip's mask, (out >= LOG_CLAMP) & (out <= 1 - LOG_CLAMP); 1.0/0.0 in `ws`
    mask = np.greater_equal(out, LOG_CLAMP, out=t)
    np.multiply(mask, np.less_equal(out, 1.0 - LOG_CLAMP, out=u), out=mask)
    return loss, np.multiply(g, mask, out=g)


def mlp_forward(
    weights: Sequence[np.ndarray], x: np.ndarray
) -> list[np.ndarray]:
    """The MLP's input and each layer's output on raw arrays, [x, h_1, ..., h_L].

    `weights` is [W0, b0, W1, b1, ...] as `mlp_widths` reads it, and `x` must
    have one column per input (InputError otherwise). Each hidden layer is
    relu(h @ W + b) and the head sigmoid(h @ w + b), the ops of the taped
    reference forward, so a row scored alone, as (1, d) or on an (n, 1, d)
    stack, equals its taped score bitwise.
    """
    input_width = mlp_widths(weights)[0]
    h = np.asarray(x, dtype=np.float64)
    if h.shape[-1:] != (input_width,):
        raise InputError(f"x {h.shape} must have one column per input of the weights, "
                         f"{input_width}")
    activations, last = [h], len(weights) - 2
    for k in range(0, len(weights), 2):
        z = h @ weights[k] + weights[k + 1][..., None, :]
        h = ops.sigmoid(z, z) if k == last else ops.relu(z, z)
        activations.append(h)
    return activations


def mlp_loss_and_grad(
    weights: Sequence[np.ndarray], x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Mean BCE of `mlp_forward` and its gradient, in closed form on raw arrays.

    `x` is (n, d) and `y` (n,) of 0/1 labels. Any of them and the weights may
    carry a leading task axis of length B, e.g. x (B, n, d) with weights
    (B, d, h) and (B, h), and then the loss has shape (B,) and every gradient
    a leading B axis. `y` must hold one label per row of `x` (InputError
    naming both shapes otherwise); only the task axis broadcasts. The pass
    replays the operation order of the taped reverse sweep of the same loss,
    so each task's loss and gradient equal the taped ones bitwise.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(y, dtype=np.float64)[..., None]
    if x.ndim < 2 or labels.ndim < 2 or labels.shape[-2] != x.shape[-2]:
        raise InputError(f"y {np.shape(y)} must hold one label per row of x {x.shape}")
    _check_labels(labels)
    activations = mlp_forward(weights, x)
    loss, g = _bce_head(activations[-1], labels)
    grads: list = [None] * len(weights)
    g = ops.sigmoid_vjp(g, activations[-1])
    for k in range(len(weights) - 2, -1, -2):
        grads[k + 1] = g.sum(axis=-2)
        grads[k] = np.swapaxes(activations[k // 2], -1, -2) @ g
        if k:  # the adjoint of this layer's input, the previous relu's output
            g = ops.relu_vjp(g @ np.swapaxes(weights[k], -1, -2), activations[k // 2])
    return loss, grads


def gnn_param_shapes(
    input_width: int, hidden_widths: Sequence[int]
) -> dict[str, tuple[int, ...]]:
    """Parameter name -> shape of a GNN with these widths, in weight-list
    order: the hidden layers as `mlp_param_shapes` names them, then the
    readout."""
    shapes = mlp_param_shapes(input_width, hidden_widths)
    fan_in = hidden_widths[-1] if hidden_widths else input_width
    shapes["readout.w"], shapes["readout.b"] = (fan_in, 1), (1,)
    return shapes


def gnn_widths(weights: Sequence[np.ndarray]) -> tuple[int, tuple[int, ...]]:
    """The input width and hidden widths of the GNN weight list [W0, b0, ...,
    w, b], read from its matrices. InputError when the list is empty or odd, or
    naming the first weight whose shape is not its `gnn_param_shapes` one."""
    return _chain(weights, "a GNN", ("readout.w", "readout.b"))


# rows of each scratch block of the GNN kernel's scatters
SCATTER_BLOCK_ROWS = 1024


def column_sum(g: np.ndarray) -> np.ndarray:
    """`g.sum(axis=0)` of a 2-D array, bitwise, in one pass over the array.

    On a C-contiguous array at least two columns wide, `.sum(axis=0)` runs a
    short inner loop once per row; `np.einsum("ij->j")` adds the rows to each
    column in the same order, a row at a time, without that per-row cost. One
    column wide, numpy's sum is pairwise, and on other layouts einsum's order
    differs, so those keep `.sum`.
    """
    if g.shape[1] > 1 and g.flags.c_contiguous:
        return np.einsum("ij->j", g)
    return g.sum(axis=0)


def readout_adjoint(g: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`np.matmul(g, w.T, out=out)`, bitwise, for the readout's (n, 1) output
    adjoint `g` and (width, 1) weight `w`: a K = 1 product, which BLAS runs
    slowly. Each entry is the one product g[r] * w[c] added to +0.0 (a -0.0
    product turns +0.0), which is what `np.einsum` computes in one pass."""
    return np.einsum("ik,kj->ij", g, w.T, out=out)


def _gnn_slots(ws: Workspace, n_nodes: int, hidden_widths: Sequence[int],
               lead: tuple[int, ...] = ()):
    """(slot, blocks) of a GNN pass on `ws`, behind the leading axes `lead`
    of its input.

    slot(name, width, rows=n_nodes): a lead + (rows, width) view of the array
    `name` of `ws`, which holds n_nodes + 1 rows of the widest hidden layer
    per leading index. blocks(width): the scatter's two scratch blocks of at
    most `SCATTER_BLOCK_ROWS` rows.
    """
    widest = max(hidden_widths, default=0)
    block_rows = min(SCATTER_BLOCK_ROWS, n_nodes)

    def slot(name, width, rows=n_nodes, capacity=n_nodes + 1):
        flat = ws(name, lead + (capacity * widest,))
        return flat[..., :rows * width].reshape(lead + (rows, width))

    def blocks(width):
        return [slot(("block", k), width, block_rows, block_rows) for k in (0, 1)]

    return slot, blocks


def gnn_forward(
    weights: Sequence[np.ndarray], x: np.ndarray, edges: ops.EdgeIndex,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """A message-passing network on raw arrays, one row of `x` per node of
    `edges`, on the weight list [W0, b0, ..., w, b] that `gnn_widths` reads:
    hidden layer i computes relu(x_i @ W_i + b_i), where x_0 is `x` and every
    later x_i is `edge_aggregate` of the previous output, and the readout
    sigmoid(h @ w + b) reads the last hidden output h itself. A GNN over input
    embeddings h0 so passes `edge_aggregate(h0, edges)` when it has a hidden
    layer, h0 when it has none. The ops are those of the taped reference
    network, so the output equals its bitwise.

    Nodes lie on axis -2 of `x`. Leading axes before it, such as the ticks of
    one trace, each run the same gemms as a pass of their own, so each slice
    of the output equals that pass bitwise; stacking the rows of many passes
    on one node axis would not.

    Every hidden output goes to the `workspace` slot "out", which the next
    layer overwrites once it has aggregated it; layer i keeps its relu mask
    out > 0 as ("mask", i), and layer i > 0 its input as ("aggregate", i).
    The output is the workspace's "readout" array, which the next pass
    overwrites.
    """
    ws = Workspace() if workspace is None else workspace
    input_width, hidden_widths = gnn_widths(weights)
    h, n_nodes = np.asarray(x, dtype=np.float64), edges.n_nodes
    if h.ndim < 2 or h.shape[-2:] != (n_nodes, input_width):
        raise InputError(f"x {h.shape} must have one row per node of the {n_nodes}-node "
                         f"edges and one column per input of the weights, {input_width}")
    lead = h.shape[:-2]
    slot, blocks = _gnn_slots(ws, n_nodes, hidden_widths, lead)
    for i, width in enumerate(hidden_widths):
        if i:
            h = ops.scatter_add(slot("out", h.shape[-1], n_nodes + 1), edges.into_dst,
                                 slot(("aggregate", i), h.shape[-1]), blocks(h.shape[-1]))
        z = slot("out", width)
        np.add(np.matmul(h, weights[2 * i], out=z), weights[2 * i + 1], out=z)
        h = ops.relu(z, z)
        np.greater(h, 0.0, out=ws(("mask", i), h.shape, np.bool_))
    z = ws("readout", lead + (n_nodes, 1))
    np.add(np.matmul(h, weights[-2], out=z), weights[-1], out=z)
    return ops.sigmoid(z, z)


def gnn_loss_and_grad(
    weights: Sequence[np.ndarray], x: np.ndarray, y: np.ndarray,
    edges: ops.EdgeIndex, workspace: Workspace | None = None,
) -> tuple[np.floating, list[np.ndarray]]:
    """Mean BCE of `gnn_forward` and its gradient, in closed form on raw
    arrays; `y` holds one 0/1 label per node.

    The pass replays the operation order of the taped reverse sweep of the
    same loss, so the loss and gradient equal the taped ones bitwise. With L
    hidden layers its node-sized float arrays are the L - 1 aggregates and
    "out" (see `gnn_forward`), each of n_nodes + 1 rows of the widest hidden
    layer, beside the L relu masks and the scatters' two blocks of at most
    `SCATTER_BLOCK_ROWS` rows. Backward moves the adjoint of a layer's output
    between arrays dead by then: the readout's goes to "out", a relu vjp
    multiplies it in place by the layer's mask, an aggregate's adjoint
    overwrites the aggregate, and its scatter lands in "out". A caller that
    keeps one workspace across passes so allocates them once; what a pass
    still allocates is one column wide (the label check's masks and the
    sigmoid vjp's 1 - p) or returned. `column_sum` and `readout_adjoint` give
    the bits of `.sum(axis=0)` and of the K = 1 product in one pass each.
    """
    ws = Workspace() if workspace is None else workspace
    if np.ndim(x) != 2:
        raise InputError(f"x {np.shape(x)} must be one (nodes, width) batch; training "
                         "takes no leading axis")
    labels = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    _check_labels(labels)
    if labels.shape[0] != edges.n_nodes:
        raise InputError(f"y {labels.shape[:1]} must have one row per node of the "
                         f"{edges.n_nodes}-node edges")
    p = gnn_forward(weights, x, edges, ws)
    loss, g = _bce_head(p, labels, ws)
    hidden_widths = gnn_widths(weights)[1]
    slot, blocks = _gnn_slots(ws, edges.n_nodes, hidden_widths)
    x = np.asarray(x, dtype=np.float64)
    grads: list = [None] * len(weights)
    g = ops.sigmoid_vjp(g, p, p)
    h = slot("out", hidden_widths[-1]) if hidden_widths else x
    grads[-2], grads[-1] = h.T @ g, column_sum(g)
    if hidden_widths:  # the readout's input is dead now: its adjoint goes there
        g = readout_adjoint(g, weights[-2], h)
    for i in reversed(range(len(hidden_widths))):
        g = ops.relu_vjp(g, ws(("mask", i), g.shape, np.bool_), g)
        grads[2 * i + 1] = column_sum(g)
        if not i:  # x itself is a constant, so layer 0's input gets no adjoint
            grads[0] = x.T @ g
            break
        width = hidden_widths[i - 1]
        padded = slot(("aggregate", i), width, edges.n_nodes + 1)  # the input, then its adjoint
        grads[2 * i] = padded[:-1].T @ g
        np.matmul(g, weights[2 * i].T, out=padded[:-1])
        g = ops.scatter_add(padded, edges.into_src, slot("out", width), blocks(width))
    return loss, grads


def check_learning_rate(lr: float) -> None:
    """A descent step's learning rate must be >= 0."""
    if lr < 0:
        raise InputError(f"learning rate must be >= 0, got {lr}")


def descend(weights: Sequence[np.ndarray], grads: Sequence[np.ndarray],
            lr: float) -> list[np.ndarray]:
    """One SGD step: a new array w - lr * g for each weight and its gradient;
    the inputs are unchanged. InputError when the two lists differ in length,
    when lr < 0 or when a result is not finite."""
    check_learning_rate(lr)
    if len(weights) != len(grads):
        raise InputError(f"{len(weights)} weights but {len(grads)} gradients")
    out = [w - lr * g for w, g in zip(weights, grads)]
    if not all(np.isfinite(w).all() for w in out):
        raise InputError("tensor values must be finite (no NaN/Inf)")
    return out


def finite_diff_grad(
    loss_fn: Callable[[list[np.ndarray]], float], weights: Sequence[np.ndarray], step: float
) -> list[np.ndarray]:
    """Central-difference gradient (L(w+h) - L(w-h)) / 2h per coordinate of
    each array of `weights`, one gradient array per weight.

    The verification oracle: it only evaluates the loss, so it is independent
    of any hand-derived gradient, and exact for linear and quadratic losses up
    to rounding. `loss_fn` receives a list of copies of the weights with one
    coordinate moved, and must not keep it.
    """
    if step <= 0:
        raise InputError(f"step must be > 0, got {step}")
    bumped = [np.array(w, dtype=np.float64) for w in weights]
    grads = [np.zeros_like(w) for w in bumped]
    for w, g in zip(bumped, grads):
        flat, out = w.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            value = flat[i]
            flat[i] = value + step
            hi = float(loss_fn(bumped))
            flat[i] = value - step
            lo = float(loss_fn(bumped))
            flat[i] = value
            out[i] = (hi - lo) / (2.0 * step)
    return grads
