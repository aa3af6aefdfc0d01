"""Small dense networks: one array forward per network, its closed-form loss
and gradient, SGD, and the finite-difference oracle every gradient in this
package is checked against.

Every function here takes a network's parameters as its weight list,
[W0, b0, W1, b1, ...] in layer order, the form the models hold.
`mlp_forward` is the MLP and `gnn_forward` the message-passing network;
detection, evaluation, Shapley attribution and GNN scoring run on them.
`mlp_loss_and_grad` (optionally batched over tasks) and `gnn_loss_and_grad`
(on a reused `Workspace`) call them and add the BCE loss and its gradient in
closed form; the detector and the GNN train with them, stepping with
`descend`, the one SGD step. Both kernels replay the operation order of a
taped reverse sweep of the same loss, the reference in `tests/taped.py`, and
equal it bitwise."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigurationError, InputError
from . import ops

LOG_CLAMP = 1e-7

LayerSpec = Sequence[tuple[int, str]]


def layer_param_names(layer_index: int) -> tuple[str, str]:
    return f"layer{layer_index}.W", f"layer{layer_index}.b"


def mlp_param_shapes(
    input_width: int, layer_spec: LayerSpec
) -> dict[str, tuple[int, ...]]:
    """Parameter name -> shape of the MLP described by `layer_spec`."""
    shapes: dict[str, tuple[int, ...]] = {}
    fan_in = input_width
    for i, (width, _activation) in enumerate(layer_spec):
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
    input_width: int, layer_spec: LayerSpec, seed: int
) -> list[np.ndarray]:
    """Uniform init in [-0.5/sqrt(fan_in), +0.5/sqrt(fan_in)] per layer."""
    return init_uniform_params(mlp_param_shapes(input_width, layer_spec), seed)


def _check_layer(i: int, activation: str, width: int, out_width: int, w, b) -> None:
    """Layer `i` must name an activation of `ops.ACTIVATIONS` and take W
    (width, out_width) and b (out_width,), behind the same leading task axes."""
    if activation not in ops.ACTIVATIONS:
        raise ConfigurationError(f"layer {i}: unknown activation '{activation}'")
    w_shape, b_shape = w.shape, b.shape
    lead = w_shape[:-2]
    if w_shape != lead + (width, out_width) or b_shape != lead + (out_width,):
        raise ConfigurationError(
            f"layer {i}: expected W{(width, out_width)} and b{(out_width,)}, "
            f"got W{tuple(w_shape)} and b{tuple(b_shape)}"
        )


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
    weights: Sequence[np.ndarray], x: np.ndarray, layer_spec: LayerSpec
) -> list[np.ndarray]:
    """The MLP's input and each layer's output on raw arrays, [x, h_1, ..., h_L].

    `weights` is [W0, b0, W1, b1, ...]. Each layer is
    act(h @ W + b), the ops of the taped reference forward, so a row scored
    alone, as (1, d) or on an (n, 1, d) stack, equals its taped score bitwise.
    """
    activations = [np.asarray(x, dtype=np.float64)]
    for i, (out_width, activation) in enumerate(layer_spec):
        w, b, h = weights[2 * i], weights[2 * i + 1], activations[-1]
        _check_layer(i, activation, h.shape[-1], out_width, w, b)
        activations.append(ops.ACTIVATIONS[activation][0](h @ w + b[..., None, :]))
    return activations


def mlp_loss_and_grad(
    weights: Sequence[np.ndarray], x: np.ndarray, y: np.ndarray, layer_spec: LayerSpec
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
    activations = mlp_forward(weights, x, layer_spec)
    loss, g = _bce_head(activations[-1], labels)
    grads: list = [None] * len(weights)
    for i in reversed(range(len(layer_spec))):
        g = ops.ACTIVATIONS[layer_spec[i][1]][1](g, activations[i + 1])
        grads[2 * i + 1] = g.sum(axis=-2)
        grads[2 * i] = np.swapaxes(activations[i], -1, -2) @ g
        if i:
            g = g @ np.swapaxes(weights[2 * i], -1, -2)
    return loss, grads


# rows of each scratch block of the GNN kernel's scatters
SCATTER_BLOCK_ROWS = 1024
# the activations whose vjp reads their output; relu's reads only out > 0
# and linear's nothing
_VJP_READS_OUTPUT = ("sigmoid", "tanh")


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
    """`np.matmul(g, w.T, out=out)`, bitwise: the adjoint of a readout's input
    from the adjoint `g` of its (n, 1) output and its (width, 1) weight `w`.

    With one column in `g` the product has K = 1, which BLAS runs slowly for
    its shape, and so does an elementwise product broadcast along rows of
    `width`. Each entry is the one product g[r] * w[c] added to +0.0, which
    turns a -0.0 product into +0.0; `np.einsum` zeroes its output and adds
    that one product to it, so it gives the same bits in one pass.
    """
    if g.shape[-1] != 1:
        return np.matmul(g, w.T, out=out)
    return np.einsum("ik,kj->ij", g, w.T, out=out)


def _gnn_slots(ws: Workspace, n_nodes: int, layer_spec: LayerSpec, lead: tuple[int, ...] = ()):
    """(slot, output, mask, blocks) of a GNN pass on `ws`, behind the leading
    axes `lead` of its input.

    slot(name, width, rows=n_nodes): a lead + (rows, width) view of the array
    `name` of `ws`, which holds n_nodes + 1 rows of the widest hidden layer
    per leading index. output(i): the slot of hidden layer i's output,
    ("out", i) when its vjp reads it, else "out", which relu and linear
    layers share. mask(i): the bool array ("mask", i) that keeps a relu
    layer's out > 0. blocks(width): the scatter's two scratch blocks of at
    most `SCATTER_BLOCK_ROWS` rows.
    """
    widest = max((width for width, _ in layer_spec[:-1]), default=0)
    block_rows = min(SCATTER_BLOCK_ROWS, n_nodes)

    def slot(name, width, rows=n_nodes, capacity=n_nodes + 1):
        flat = ws(name, lead + (capacity * widest,))
        return flat[..., :rows * width].reshape(lead + (rows, width))

    def output(i):
        return ("out", i) if layer_spec[i][1] in _VJP_READS_OUTPUT else "out"

    def mask(i):
        return ws(("mask", i), lead + (n_nodes, layer_spec[i][0]), np.bool_)

    def blocks(width):
        return [slot(("block", k), width, block_rows, block_rows) for k in (0, 1)]

    return slot, output, mask, blocks


def gnn_forward(
    weights: Sequence[np.ndarray], x: np.ndarray, edges: ops.EdgeIndex,
    layer_spec: LayerSpec, workspace: Workspace | None = None,
) -> np.ndarray:
    """A message-passing network on raw arrays, one row of `x` per node of
    `edges`: layer i computes act(x_i @ W_i + b_i), where x_0 is `x`, every
    later layer but the last reads `edge_aggregate` of the previous output,
    and the last (the readout) reads that output itself. A GNN over input
    embeddings h0 so passes `edge_aggregate(h0, edges)` when it has a hidden
    layer, h0 when it has none. The ops are those of the taped reference
    network, so the output equals its bitwise.

    Nodes lie on axis -2 of `x`. Leading axes before it, such as the ticks of
    one trace, each run the same gemms as a pass of their own, so each slice
    of the output equals that pass bitwise; stacking the rows of many passes
    on one node axis would not.

    Each hidden layer keeps in `workspace` what its vjp reads: a tanh or
    sigmoid layer writes its output to its own slot ("out", i), while relu and
    linear layers write theirs to the one slot "out", which the next layer
    overwrites once it has aggregated it; a relu layer first keeps its mask
    out > 0 as ("mask", i). Layer i > 0 writes its input to ("aggregate", i).
    The output is the workspace's "readout" array, which the next pass on
    that workspace overwrites.
    """
    ws = Workspace() if workspace is None else workspace
    h, n_nodes = np.asarray(x, dtype=np.float64), edges.n_nodes
    if h.ndim < 2 or h.shape[-2] != n_nodes:
        raise InputError(f"x {h.shape} must have one row per node of the "
                         f"{n_nodes}-node edges")
    lead = h.shape[:-2]
    slot, output, mask, blocks = _gnn_slots(ws, n_nodes, layer_spec, lead)
    last = len(layer_spec) - 1
    for i, (out_width, activation) in enumerate(layer_spec):
        w, b = weights[2 * i], weights[2 * i + 1]
        _check_layer(i, activation, h.shape[-1], out_width, w, b)
        if 0 < i < last:
            h = ops.scatter_add(slot(output(i - 1), h.shape[-1], n_nodes + 1),
                                 edges.into_dst, slot(("aggregate", i), h.shape[-1]),
                                 blocks(h.shape[-1]))
        z = (slot(output(i), out_width) if i < last
             else ws("readout", lead + (n_nodes, out_width)))
        np.add(np.matmul(h, w, out=z), b, out=z)
        h = ops.ACTIVATIONS[activation][0](z, z)
        if i < last and activation == "relu":
            np.greater(h, 0.0, out=mask(i))
    return h


def gnn_loss_and_grad(
    weights: Sequence[np.ndarray], x: np.ndarray, y: np.ndarray,
    edges: ops.EdgeIndex, layer_spec: LayerSpec, workspace: Workspace | None = None,
) -> tuple[np.floating, list[np.ndarray]]:
    """Mean BCE of `gnn_forward` and its gradient, in closed form on raw
    arrays; `y` holds one 0/1 label per node.

    The pass replays the operation order of the taped reverse sweep of the
    same loss, so the loss and gradient equal the taped ones bitwise.
    Each hidden layer keeps only what its vjp reads (see `gnn_forward`), so
    with L hidden layers the node-sized float arrays are L - 1 aggregates
    plus one slot "out" shared by the relu and linear layers, one slot per
    tanh or sigmoid layer, and a spare when the last hidden layer is tanh or
    sigmoid: L arrays for relu and linear nets, 2L for tanh nets; each holds
    n_nodes + 1 rows of the widest hidden layer. Relu layers add one bool
    mask each, and the scatters two blocks of at most `SCATTER_BLOCK_ROWS`
    rows. Backward moves the adjoint of a layer's output between slots dead
    by then: the readout's goes to the last hidden layer's slot (the spare
    for tanh and sigmoid), a relu vjp overwrites its adjoint in place and a
    tanh or sigmoid vjp its output, an aggregate's adjoint overwrites the
    aggregate, and its scatter lands in the slot the adjoint left. A caller
    that keeps one workspace across passes so allocates them once. What a
    pass still allocates is one column wide (the label check's masks and the
    sigmoid vjp's 1 - p) or returned (loss, gradients); a relu vjp multiplies
    by its layer's kept mask. The hidden bias gradients and the readout's
    input adjoint are whole-array passes, `column_sum` and `readout_adjoint`,
    that give the bits of `.sum(axis=0)` and the K = 1 product.
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
    h = gnn_forward(weights, x, edges, layer_spec, ws)
    loss, g = _bce_head(h, labels, ws)
    slot, output, mask, blocks = _gnn_slots(ws, edges.n_nodes, layer_spec)
    last = len(layer_spec) - 1
    grads: list = [None] * len(weights)
    for i in reversed(range(len(layer_spec))):
        width, activation = layer_spec[i]
        vjp = ops.ACTIVATIONS[activation][1]
        if i == last:
            g = vjp(g, h, h)
        elif output(i) == "out":  # relu or linear: the adjoint stays in its slot
            g = vjp(g, mask(i) if activation == "relu" else None, g)
        else:  # the vjp moves the adjoint into the output's slot
            adjoint = output(i)
            out = slot(adjoint, width)
            g = vjp(g, out, out)
        grads[2 * i + 1] = column_sum(g)
        if not i:  # x itself is a constant, so layer 0's input gets no adjoint
            grads[0] = np.asarray(x, dtype=np.float64).T @ g
            break
        width = layer_spec[i - 1][0]
        grads[2 * i] = slot(output(i - 1) if i == last else ("aggregate", i), width).T @ g
        if i == last:
            # the readout's input is dead now, unless the vjp below reads it
            adjoint = "out" if output(i - 1) == "out" else "spare"
            g = readout_adjoint(g, weights[2 * i], slot(adjoint, width))
            continue
        padded = slot(("aggregate", i), width, edges.n_nodes + 1)
        np.matmul(g, weights[2 * i].T, out=padded[:-1])
        g = ops.scatter_add(padded, edges.into_src, slot(adjoint, width), blocks(width))
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
