"""Episodic meta-training for few-shot anomaly detection.

The inner loop runs a handful of gradient steps on a task's support set; the
meta step then descends on the summed post-adaptation query losses across the
batch. Two meta-gradient modes exist: `first_order` treats the inner-loop
Jacobian as identity (the default and the fast path); `exact_fd_oracle`
differentiates through the inner loop by central finite differences and is
meant for verification on small models only.

Every entry point takes and returns the model's weight list and runs on one
loss contract, f(weights, x, y) -> (loss, grads): the fused
`mlp_loss_and_grad` by default, or a custom `loss_fn` of the same shape,
which takes the weights in the order the caller passes them. x (B, n, d) and
y (B, n) carry a leading task axis, the weights may carry it too, and the
loss is (B,) with each gradient stacked on that axis; a single task, as
`inner_adapt` gives it, has no task axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InputError, TrainingError
from ..numerics import descend, finite_diff_grad, mlp_forward, mlp_loss_and_grad
from ..simulator import Task
from .model import DetectorModel

# Support loss level that counts as "adapted" when measuring adaptation steps.
ADAPT_LOSS_BOUND = 0.35

META_MODES = ("first_order", "exact_fd_oracle")

_FD_STEP = 1e-5


@dataclass(frozen=True)
class MetaConfig:
    """Hyperparameters of the two-loop training scheme."""

    inner_lr: float = 0.5
    meta_lr: float = 0.1
    inner_steps: int = 2
    meta_batch: int = 6
    meta_iterations: int = 2500
    meta_mode: str = "first_order"

    def __post_init__(self):
        for name, low in (("inner_lr", 0), ("meta_lr", 0), ("inner_steps", 0),
                          ("meta_batch", 1), ("meta_iterations", 0)):
            if getattr(self, name) < low:
                raise InputError(f"{name} must be >= {low}, got {getattr(self, name)!r}")
        if self.meta_mode not in META_MODES:
            raise InputError(f"meta_mode must be one of {META_MODES}, got {self.meta_mode!r}")


def _as_xy(data) -> tuple[np.ndarray, np.ndarray]:
    """An (x, y) pair as float arrays; a 1-D x is one row."""
    x, y = data
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if len(x) == 0:
        raise InputError("data must be nonempty")
    return x, y


def _adapt(weights, loss, x, y, lr: float, steps: int):
    """`steps` SGD steps of `loss` on (x, y): the adapted weights and the loss
    before each step. At lr == 0 no step would move the weights, so they come
    back as given, with the one loss they have (none when steps == 0)."""
    losses = []
    for _ in range(steps if lr else min(steps, 1)):
        value, grads = loss(weights, x, y)
        losses.append(value)
        if lr:
            weights = descend(weights, grads, lr)
    return weights, losses


_TASK_FIELDS = ("support_x", "support_y", "query_x", "query_y")


def _stacked(tasks: list[Task]) -> tuple:
    """The tasks' (support_x, support_y, query_x, query_y), each stacked on a
    leading task axis. The tasks must share their shapes (InputError naming
    the first that does not)."""
    arrays = [tuple(getattr(t, f) for f in _TASK_FIELDS) for t in tasks]
    shapes = [tuple(a.shape for a in task) for task in arrays]
    for task, shape in zip(tasks, shapes):
        if shape != shapes[0]:
            raise InputError(
                f"task '{task.source_pattern_id}' has shapes {shape}, task "
                f"'{tasks[0].source_pattern_id}' {shapes[0]}; the loss stacks "
                "tasks of one shape")
    return tuple(np.stack(a) for a in zip(*arrays))


def _first_order(weights, loss, batch, cfg: MetaConfig):
    """First-order meta-gradient and summed query loss of the stacked tasks
    `batch` at `weights`.

    Each task adapts on its support set, then takes its query loss and
    gradient at the adapted weights; both are summed in task order.
    """
    support_x, support_y, query_x, query_y = batch
    adapted = _adapt(weights, loss, support_x, support_y, cfg.inner_lr, cfg.inner_steps)[0]
    losses, grads = loss(adapted, query_x, query_y)
    batch_loss, total = 0.0, None
    for i in range(len(losses)):
        batch_loss += float(losses[i])
        task_grads = [g[i] for g in grads]
        total = task_grads if total is None else [a + b for a, b in zip(total, task_grads)]
    return total, batch_loss


def _fd_gradient(weights, loss, batch, cfg: MetaConfig):
    """Central finite differences of the summed post-adaptation query loss."""
    return finite_diff_grad(lambda w: _first_order(w, loss, batch, cfg)[1], weights, _FD_STEP)


def inner_adapt(
    weights,
    support,
    inner_lr: float,
    steps: int,
    loss_fn=None,
):
    """`steps` gradient steps on the support loss: the adapted weight list;
    the input weights are untouched.

    With inner_lr == 0 or steps == 0 this is exactly the identity. The steps
    run on the fused MLP kernel, or on a custom `loss_fn` of its shape (see
    the module docstring).
    """
    if steps < 0:
        raise InputError(f"steps must be >= 0, got {steps}")
    if steps == 0 or inner_lr == 0.0:
        return weights
    return _adapt(weights, loss_fn or mlp_loss_and_grad, *_as_xy(support), inner_lr, steps)[0]


def meta_gradient(
    weights,
    tasks: list[Task],
    cfg: MetaConfig,
    loss_fn=None,
) -> list[np.ndarray]:
    """Gradient of the summed post-adaptation query losses w.r.t. `weights`,
    one array per weight.

    first_order evaluates each task's query gradient at the adapted
    parameters (inner Jacobian taken as identity) and sums in task order.
    exact_fd_oracle differentiates the full two-loop objective by central
    finite differences; intended for small verification models. Both stack
    the tasks on a leading axis, so the tasks must share one shape
    (InputError naming the first that does not), and run on the fused MLP
    kernel or a custom `loss_fn` of its shape (see the module docstring).
    """
    if not tasks:
        raise InputError("tasks must be nonempty")
    batch, loss = _stacked(tasks), loss_fn or mlp_loss_and_grad
    if cfg.meta_mode == "exact_fd_oracle":
        return _fd_gradient(weights, loss, batch, cfg)
    return _first_order(weights, loss, batch, cfg)[0]


def meta_update(
    weights,
    tasks: list[Task],
    cfg: MetaConfig,
    loss_fn=None,
):
    """One meta step, weights - meta_lr * meta_gradient: the new weight list.
    Identity when meta_lr=0."""
    if not tasks:
        raise InputError("tasks must be nonempty")
    if cfg.meta_lr == 0.0:
        return weights
    g = meta_gradient(weights, tasks, cfg, loss_fn)
    return descend(weights, g, cfg.meta_lr)


@dataclass
class MetaTrainResult:
    model: DetectorModel
    loss_curve: list[float]  # mean post-adaptation query loss per iteration


def meta_train(
    init: DetectorModel, tasks: list[Task], cfg: MetaConfig, seed: int
) -> MetaTrainResult:
    """Run `meta_iterations` meta-updates over seeded task minibatches.

    The task pool is stacked once and each minibatch gathered from it by
    index, so every task must share one shape.
    """
    if len(tasks) < cfg.meta_batch:
        raise InputError(
            f"need at least meta_batch={cfg.meta_batch} tasks, got {len(tasks)}"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    weights, loss = init.weights, mlp_loss_and_grad
    pool = _stacked(tasks)
    curve: list[float] = []
    for iteration in range(cfg.meta_iterations):
        picked = rng.choice(len(tasks), size=cfg.meta_batch, replace=False)
        batch = tuple(a[picked] for a in pool)
        try:
            grads, batch_loss = _first_order(weights, loss, batch, cfg)
            if not np.isfinite(batch_loss):
                raise TrainingError("meta-loss is not finite", iteration)
            if cfg.meta_mode == "exact_fd_oracle":
                grads = _fd_gradient(weights, loss, batch, cfg)
            weights = descend(weights, grads, cfg.meta_lr)
        except InputError as err:
            raise TrainingError(f"parameters diverged: {err}", iteration) from err
        curve.append(batch_loss / cfg.meta_batch)
    return MetaTrainResult(model=init.with_weights(weights), loss_curve=curve)


@dataclass(frozen=True)
class EvalReport:
    """Detection quality on one task's query set after support adaptation."""

    precision: float
    recall: float
    f1: float
    adaptation_steps: int
    confusion: tuple[int, int, int, int]  # (tp, fp, fn, tn)


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def evaluate(model: DetectorModel, tasks: list[Task], cfg: MetaConfig) -> list[EvalReport]:
    """Adapt on each task's support set, score its query set, and report
    P/R/F1: one report per task, in task order.

    The tasks adapt together, stacked on a leading task axis of the fused
    kernel as in `meta_train`, so they must share one shape (InputError
    naming the first that does not). Each task's adapted weights, support
    losses and query scores equal those of adapting it alone, bitwise.
    adaptation_steps is the smallest step count at which the support loss
    reaches ADAPT_LOSS_BOUND, or cfg.inner_steps if it never does within the
    budget.
    """
    if not tasks:
        raise InputError("tasks must be nonempty")
    support_x, support_y, query_x, query_y = _stacked(tasks)
    # one copy of the model per task, so every pass below is stacked alike
    weights = [np.broadcast_to(w, (len(tasks), *w.shape)) for w in model.weights]
    weights, losses = _adapt(weights, mlp_loss_and_grad, support_x, support_y, cfg.inner_lr,
                             cfg.inner_steps)
    met = np.reshape(losses, (len(losses), len(tasks))) <= ADAPT_LOSS_BOUND

    # a (1, d) row per query row, behind the task and row axes, scores each
    # row as `detect` does, bitwise; an (n, d) batch can differ from it in
    # the last bits
    scores = mlp_forward([w[:, None] for w in weights], query_x[:, :, None, :])[-1]
    flags, positive = scores[..., 0, 0] >= model.threshold, query_y == 1.0
    reports = []
    for k in range(len(tasks)):
        tp, fp, fn, tn = (int(np.count_nonzero(f & p)) for f, p in (
            (flags[k], positive[k]), (flags[k], ~positive[k]), (~flags[k], positive[k]),
            (~flags[k], ~positive[k])))
        precision, recall, f1 = _prf(tp, fp, fn)
        reports.append(EvalReport(
            precision=precision,
            recall=recall,
            f1=f1,
            adaptation_steps=int(np.argmax(met[:, k])) if met[:, k].any() else cfg.inner_steps,
            confusion=(tp, fp, fn, tn),
        ))
    return reports
