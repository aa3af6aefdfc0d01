"""Small dense networks over the tape: MLP forward pass, BCE, SGD, and the
finite-difference oracle every gradient in this package is checked against.

`mlp_loss_and_grad` is the same MLP loss and gradient in closed form on raw
arrays, optionally batched over tasks; the detector trains with it.
`gnn_loss_and_grad` does the same for a message-passing network, writing its
node-sized arrays into a reused `Workspace`; the GNN trains with it. The tape
stays the reference of both."""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from ..errors import ConfigurationError, InputError
from . import tape
from .tensor import ParamSet, Tensor

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


def init_uniform_params(shapes: dict[str, tuple[int, ...]], seed: int) -> ParamSet:
    """Uniform init in [-0.5/sqrt(fan_in), +0.5/sqrt(fan_in)], drawn in `shapes`
    order; each bias takes the fan-in of the weight matrix listed before it."""
    rng = np.random.Generator(np.random.PCG64(seed))
    entries: dict[str, Tensor] = {}
    for name, shape in shapes.items():
        if len(shape) == 2:
            bound = 0.5 / np.sqrt(shape[0])
        entries[name] = Tensor(rng.uniform(-bound, bound, size=shape))
    return ParamSet(entries)


def init_mlp_params(
    input_width: int, layer_spec: LayerSpec, seed: int
) -> ParamSet:
    """Uniform init in [-0.5/sqrt(fan_in), +0.5/sqrt(fan_in)] per layer."""
    return init_uniform_params(mlp_param_shapes(input_width, layer_spec), seed)


def _entry(params, name: str):
    try:
        value = params[name]
    except KeyError:
        raise ConfigurationError(f"missing parameter '{name}'") from None
    return value.values if isinstance(value, Tensor) else value


def _check_layer(i: int, activation: str, width: int, out_width: int, w, b) -> None:
    """Layer `i` must name an activation of `tape.ACTIVATIONS` and take W
    (width, out_width) and b (out_width,), behind the same leading task axes."""
    if activation not in tape.ACTIVATIONS:
        raise ConfigurationError(f"layer {i}: unknown activation '{activation}'")
    w_shape, b_shape = w.shape, b.shape  # arrays or tape nodes
    lead = w_shape[:-2]
    if w_shape != lead + (width, out_width) or b_shape != lead + (out_width,):
        raise ConfigurationError(
            f"layer {i}: expected W{(width, out_width)} and b{(out_width,)}, "
            f"got W{tuple(w_shape)} and b{tuple(b_shape)}"
        )


def forward_mlp(
    params: ParamSet | Mapping[str, tape.Node],
    x,
    layer_spec: LayerSpec,
):
    """Feed-forward pass through the layers of `layer_spec`.

    `params` may be a ParamSet (pure evaluation, returns a Tensor) or a
    mapping of tape leaves (taped evaluation, returns a Node). Input may be a
    single feature vector (d,) or a batch (n, d).
    """
    h = tape.value_of(x)
    if h.ndim not in (1, 2):
        raise InputError(f"input must be a vector or batch, got shape {h.shape}")
    taped = any(isinstance(v, tape.Node) for v in dict(params).values())
    current: object = h
    width = h.shape[-1]
    for i, (out_width, activation) in enumerate(layer_spec):
        w, b = (_entry(params, name) for name in layer_param_names(i))
        _check_layer(i, activation, width, out_width, w, b)
        current = tape.activate(activation, tape.add(tape.matmul(current, w), b))
        width = out_width
    if taped:
        return current
    return Tensor(np.asarray(current, dtype=np.float64))


def _check_labels(labels: np.ndarray) -> None:
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise InputError("labels must be 0 or 1")


def bce_loss(pred, label):
    """Binary cross-entropy, -[y ln p + (1-y) ln(1-p)], averaged over a batch.

    Predictions are clamped to [1e-7, 1 - 1e-7] before the logs. Accepts
    scalars, arrays, or taped nodes for `pred`; labels must be 0/1.
    """
    labels = np.asarray(tape.value_of(label), dtype=np.float64)
    _check_labels(labels)
    p = tape.clip(pred, LOG_CLAMP, 1.0 - LOG_CLAMP)
    term = tape.add(
        tape.mul(labels, tape.log(p)),
        tape.mul(1.0 - labels, tape.log(tape.sub(1.0, p))),
    )
    return tape.mul(tape.mean(term), -1.0)


def _mlp_names(layer_spec: LayerSpec) -> list[str]:
    return [name for i in range(len(layer_spec)) for name in layer_param_names(i)]


def mlp_weights(params: ParamSet, layer_spec: LayerSpec) -> list[np.ndarray]:
    """The MLP's parameter arrays in layer order: [W0, b0, W1, b1, ...]."""
    return [_entry(params, name) for name in _mlp_names(layer_spec)]


def mlp_params(weights: Sequence[np.ndarray], layer_spec: LayerSpec) -> ParamSet:
    """Inverse of `mlp_weights`: name the arrays and wrap them as Tensors."""
    return ParamSet(dict(zip(_mlp_names(layer_spec), weights)))


class Workspace:
    """Arrays that a kernel overwrites pass after pass, by name: each is
    allocated on the first request for its name and shape and handed back on
    every later one."""

    def __init__(self):
        self._arrays: dict = {}

    def __call__(self, name, shape: tuple[int, ...]) -> np.ndarray:
        array = self._arrays.get(name)
        if array is None or array.shape != shape:
            array = self._arrays[name] = np.empty(shape)
        return array


def _bce_head(out: np.ndarray, labels: np.ndarray, ws: Workspace | None = None):
    """`bce_loss` of predictions `out` (..., n, 1) against 0/1 `labels`, and
    its adjoint d(loss)/d(out): the taped ops (clip, two logs, mean, negate)
    and then the adjoint of each, on arrays from `ws` when given."""
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


def mlp_loss_and_grad(
    weights: Sequence[np.ndarray], x: np.ndarray, y: np.ndarray, layer_spec: LayerSpec
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Mean BCE of a dense MLP and its gradient, in closed form on raw arrays.

    `weights` is [W0, b0, W1, b1, ...] as from `mlp_weights`; `x` is (n, d)
    and `y` (n,) of 0/1 labels. Any of them may carry a leading task axis of
    length B, e.g. x (B, n, d) with weights (B, d, h) and (B, h), and then the
    loss has shape (B,) and every gradient a leading B axis. The pass replays
    the operation order of `grad(bce_loss(forward_mlp(...)))` on the tape, so
    each task's loss and gradient equal the taped ones bitwise.
    """
    labels = np.asarray(y, dtype=np.float64)[..., None]
    _check_labels(labels)
    layer_inputs, pre, out = [], [], np.asarray(x, dtype=np.float64)
    width = out.shape[-1]
    for i, (out_width, activation) in enumerate(layer_spec):
        w, b = weights[2 * i], weights[2 * i + 1]
        _check_layer(i, activation, width, out_width, w, b)
        layer_inputs.append(out)
        pre.append(out @ w + b[..., None, :])
        out = tape.ACTIVATIONS[activation][0](pre[-1])
        width = out_width

    loss, g = _bce_head(out, labels)

    grads: list = [None] * len(weights)
    for i in reversed(range(len(layer_spec))):
        g = tape.ACTIVATIONS[layer_spec[i][1]][1](g, pre[i], out)
        grads[2 * i + 1] = g.sum(axis=-2)
        grads[2 * i] = np.swapaxes(layer_inputs[i], -1, -2) @ g
        if i:
            g = g @ np.swapaxes(weights[2 * i], -1, -2)
            out = layer_inputs[i]
    return loss, grads


def gnn_loss_and_grad(
    weights: Sequence[np.ndarray], x: np.ndarray, y: np.ndarray,
    edges: tape.EdgeIndex, layer_spec: LayerSpec, workspace: Workspace | None = None,
) -> tuple[np.floating, list[np.ndarray]]:
    """Mean BCE of a message-passing network and its gradient, in closed form
    on raw arrays.

    Layer i of `layer_spec` computes act(x_i @ W_i + b_i) over the rows
    (nodes) of `edges`. x_0 is `x` as given; every later layer but the last
    reads `edge_aggregate` of the previous output, and the last (the readout)
    reads that output itself. A GNN whose input embeddings h0 are constant so
    passes `edge_aggregate(h0, edges)`, computed once, when it has a hidden
    layer, and h0 when it has none. `weights` is [W0, b0, W1, b1, ...] and `y`
    holds one 0/1 label per node.

    The pass replays the operation order of `grad(bce_loss(...))` over the
    taped network, so the loss and gradient equal the taped ones bitwise.
    Its layer arrays, aggregates, adjoints and gathered rows come from
    `workspace`, so a caller that keeps one workspace across passes allocates
    them once. What a pass still allocates is one column wide (the label
    check's masks and the sigmoid vjp's 1 - p) or returned (loss, gradients).
    """
    ws = Workspace() if workspace is None else workspace
    labels = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    _check_labels(labels)
    h, n_nodes = np.asarray(x, dtype=np.float64), edges.n_nodes
    if h.ndim != 2 or h.shape[0] != n_nodes or labels.shape[0] != n_nodes:
        raise InputError(f"x {h.shape} and y {labels.shape[:1]} must have one row "
                         f"per node of the {n_nodes}-node edges")
    largest = max((len(r) for r, _ in edges.into_dst + edges.into_src), default=0)

    def gathers(width):
        return ws(("gather", width), (largest, width)), ws(("sent", width), (largest, width))

    last = len(layer_spec) - 1
    inputs, pre, acts = [], [], []
    for i, (out_width, activation) in enumerate(layer_spec):
        w, b = weights[2 * i], weights[2 * i + 1]
        _check_layer(i, activation, h.shape[1], out_width, w, b)
        if 0 < i < last:
            h = tape.scatter_add(h, edges.into_dst, ws(("aggregate", i), h.shape),
                                 gathers(h.shape[1]))
        inputs.append(h)
        z = np.matmul(h, w, out=ws(("pre", i), (n_nodes, out_width)))
        pre.append(np.add(z, b, out=z))
        h = tape.ACTIVATIONS[activation][0](z, ws(("out", i), z.shape))
        acts.append(h)

    loss, g = _bce_head(h, labels, ws)
    grads: list = [None] * len(weights)
    for i in reversed(range(len(layer_spec))):
        g = tape.ACTIVATIONS[layer_spec[i][1]][1](g, pre[i], acts[i],
                                                  ws(("d_pre", i), pre[i].shape))
        grads[2 * i + 1] = g.sum(axis=0)
        grads[2 * i] = inputs[i].T @ g
        if i:  # x itself is a constant, so layer 0's input gets no adjoint
            g = np.matmul(g, weights[2 * i].T, out=ws(("d_in", i), inputs[i].shape))
            if i < last:
                g = tape.scatter_add(g, edges.into_src, ws(("d_out", i - 1), g.shape),
                                     gathers(g.shape[1]))
    return loss, grads


def sgd_step(params: ParamSet, grads: ParamSet, lr: float) -> ParamSet:
    """One descent step: out[k] = params[k] - lr * grads[k]. Inputs unchanged."""
    if lr < 0:
        raise InputError(f"learning rate must be >= 0, got {lr}")
    bad = params.mismatches(grads)
    if bad:
        raise InputError(f"params and grads are not update-compatible: {bad}")
    return ParamSet(
        {k: Tensor(params[k].values - lr * grads[k].values) for k in params}
    )


def finite_diff_grad(
    loss_fn: Callable[[ParamSet], float], params: ParamSet, step: float
) -> ParamSet:
    """Central-difference gradient (L(p+h) - L(p-h)) / 2h per coordinate.

    The verification oracle: independent of the tape, exact for linear and
    quadratic losses up to rounding.
    """
    if step <= 0:
        raise InputError(f"step must be > 0, got {step}")
    flat = params.flatten()
    out = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + step
        hi = float(loss_fn(params.like(bumped)))
        bumped[i] = flat[i] - step
        lo = float(loss_fn(params.like(bumped)))
        out[i] = (hi - lo) / (2.0 * step)
    return params.like(out)
