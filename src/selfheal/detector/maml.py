"""Episodic meta-training for few-shot anomaly detection.

The inner loop runs a handful of gradient steps on a task's support set; the
meta step then descends on the summed post-adaptation query losses across the
batch. Two meta-gradient modes exist: `first_order` treats the inner-loop
Jacobian as identity (the default and the fast path); `exact_fd_oracle`
differentiates through the inner loop by central finite differences and is
meant for verification on small models only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InputError, TrainingError
from ..numerics import (
    GradientTape,
    ParamSet,
    finite_diff_grad,
    grad,
    mlp_forward,
    mlp_loss_and_grad,
    mlp_params,
    mlp_weights,
    sgd_step,
    tape,
)
from ..simulator import Task
from .model import DEFAULT_LAYER_SPEC, DetectorModel

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
        if self.inner_lr < 0 or self.meta_lr < 0:
            raise InputError("learning rates must be >= 0")
        if self.inner_steps < 0:
            raise InputError("inner_steps must be >= 0")
        if self.meta_batch < 1 or self.meta_iterations < 0:
            raise InputError("meta_batch must be >= 1 and meta_iterations >= 0")
        if self.meta_mode not in META_MODES:
            raise InputError(f"meta_mode must be one of {META_MODES}")


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


def _taped_grad(loss_fn, params: ParamSet, x, y) -> ParamSet:
    recorder = GradientTape(params)
    return grad(loss_fn(recorder.leaves, x, y), params)


def _descend(weights, grads, lr: float) -> list[np.ndarray]:
    """One SGD step on raw arrays, with the finiteness check a Tensor makes."""
    out = [w - lr * g for w, g in zip(weights, grads)]
    if not all(np.isfinite(w).all() for w in out):
        raise InputError("parameters are not finite after a descent step")
    return out


def _adapt(weights, x, y, lr: float, steps: int, layer_spec) -> list[np.ndarray]:
    """`steps` fused SGD steps on (x, y); identity when lr == 0."""
    if lr != 0.0:
        for _ in range(steps):
            weights = _descend(
                weights, mlp_loss_and_grad(weights, x, y, layer_spec)[1], lr
            )
    return weights


_TASK_FIELDS = ("support_x", "support_y", "query_x", "query_y")


def _first_order(weights, tasks: list[Task], cfg: MetaConfig, layer_spec):
    """First-order meta-gradient and summed query loss of `tasks` at `weights`.

    Each task adapts on its support set, then takes its query loss and
    gradient at the adapted weights; both are summed in task order. Tasks
    whose support and query shapes all agree are stacked on a leading task
    axis and run as one batch; otherwise they run one at a time.
    """

    def query_loss_and_grad(support_x, support_y, query_x, query_y):
        adapted = _adapt(weights, support_x, support_y, cfg.inner_lr,
                         cfg.inner_steps, layer_spec)
        return mlp_loss_and_grad(adapted, query_x, query_y, layer_spec)

    shapes = {tuple(getattr(t, f).shape for f in _TASK_FIELDS) for t in tasks}
    if len(shapes) == 1:
        losses, grads = query_loss_and_grad(
            *(np.stack([getattr(t, f) for t in tasks]) for f in _TASK_FIELDS)
        )
        per_task = [(losses[i], [g[i] for g in grads]) for i in range(len(tasks))]
    else:
        per_task = [
            query_loss_and_grad(*(getattr(t, f) for f in _TASK_FIELDS))
            for t in tasks
        ]
    batch_loss, total = 0.0, None
    for loss, grads in per_task:
        batch_loss += float(loss)
        total = grads if total is None else [a + b for a, b in zip(total, grads)]
    return total, batch_loss


def task_loss(params: ParamSet, data, layer_spec=DEFAULT_LAYER_SPEC) -> float:
    """Mean BCE of the model's outputs over a labeled dataset."""
    x, y = _as_xy(data)
    return float(mlp_loss_and_grad(mlp_weights(params, layer_spec), x, y, layer_spec)[0])


def inner_adapt(
    params: ParamSet,
    support,
    inner_lr: float,
    steps: int,
    layer_spec=DEFAULT_LAYER_SPEC,
    loss_fn=None,
) -> ParamSet:
    """`steps` gradient steps on the support loss; the input set is untouched.

    With inner_lr == 0 or steps == 0 this is exactly the identity. Without a
    `loss_fn` the steps run on the fused MLP kernel; a custom `loss_fn` runs
    on the tape.
    """
    if steps < 0:
        raise InputError(f"steps must be >= 0, got {steps}")
    if steps == 0 or inner_lr == 0.0:
        return params
    if inner_lr < 0:
        raise InputError(f"learning rate must be >= 0, got {inner_lr}")
    x, y = _as_xy(support)
    if loss_fn is None:
        weights = mlp_weights(params, layer_spec)
        return mlp_params(_adapt(weights, x, y, inner_lr, steps, layer_spec), layer_spec)
    current = params
    for _ in range(steps):
        current = sgd_step(current, _taped_grad(loss_fn, current, x, y), inner_lr)
    return current


def meta_gradient(
    params: ParamSet,
    tasks: list[Task],
    cfg: MetaConfig,
    layer_spec=DEFAULT_LAYER_SPEC,
    loss_fn=None,
) -> ParamSet:
    """Gradient of the summed post-adaptation query losses w.r.t. `params`.

    first_order evaluates each task's query gradient at the adapted
    parameters (inner Jacobian taken as identity) and sums in task order,
    on the fused MLP kernel unless a custom `loss_fn` is given.
    exact_fd_oracle differentiates the full two-loop objective by central
    finite differences, on the fused kernel unless a custom `loss_fn` is
    given; intended for small verification models.
    """
    if not tasks:
        raise InputError("tasks must be nonempty")
    if cfg.meta_mode == "first_order" and loss_fn is None:
        total, _ = _first_order(mlp_weights(params, layer_spec), tasks, cfg, layer_spec)
        return mlp_params(total, layer_spec)
    if cfg.meta_mode == "first_order":
        total: ParamSet | None = None
        for task in tasks:
            adapted = inner_adapt(
                params, (task.support_x, task.support_y), cfg.inner_lr,
                cfg.inner_steps, layer_spec, loss_fn,
            )
            g = _taped_grad(loss_fn, adapted, *_as_xy((task.query_x, task.query_y)))
            total = g if total is None else ParamSet(
                {k: total[k].values + g[k].values for k in total}
            )
        return total

    def objective(p: ParamSet) -> float:
        value = 0.0
        for task in tasks:
            adapted = inner_adapt(
                p, (task.support_x, task.support_y), cfg.inner_lr,
                cfg.inner_steps, layer_spec, loss_fn,
            )
            query = (task.query_x, task.query_y)
            if loss_fn is None:
                value += task_loss(adapted, query, layer_spec)
            else:
                value += float(tape.value_of(loss_fn(adapted, *_as_xy(query))))
        return value

    return finite_diff_grad(objective, params, _FD_STEP)


def meta_update(
    params: ParamSet,
    tasks: list[Task],
    cfg: MetaConfig,
    layer_spec=DEFAULT_LAYER_SPEC,
    loss_fn=None,
) -> ParamSet:
    """One meta step: params - meta_lr * meta_gradient. Identity when meta_lr=0."""
    if not tasks:
        raise InputError("tasks must be nonempty")
    if cfg.meta_lr == 0.0:
        return params
    g = meta_gradient(params, tasks, cfg, layer_spec, loss_fn)
    return sgd_step(params, g, cfg.meta_lr)


@dataclass
class MetaTrainResult:
    model: DetectorModel
    loss_curve: list[float]  # mean post-adaptation query loss per iteration


def meta_train(
    init: DetectorModel, tasks: list[Task], cfg: MetaConfig, seed: int
) -> MetaTrainResult:
    """Run `meta_iterations` meta-updates over seeded task minibatches.

    The parameters stay raw arrays on the fused MLP kernel throughout and
    become a ParamSet once, at the end.
    """
    if len(tasks) < cfg.meta_batch:
        raise InputError(
            f"need at least meta_batch={cfg.meta_batch} tasks, got {len(tasks)}"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    spec = init.layer_spec
    weights = mlp_weights(init.params, spec)
    curve: list[float] = []
    for iteration in range(cfg.meta_iterations):
        picked = rng.choice(len(tasks), size=cfg.meta_batch, replace=False)
        batch = [tasks[int(i)] for i in picked]
        try:
            total, batch_loss = _first_order(weights, batch, cfg, spec)
            if not np.isfinite(batch_loss):
                raise TrainingError("meta-loss is not finite", iteration)
            if cfg.meta_mode == "first_order":
                weights = _descend(weights, total, cfg.meta_lr)
            else:
                params = meta_update(mlp_params(weights, spec), batch, cfg, spec)
                weights = mlp_weights(params, spec)
        except InputError as err:
            raise TrainingError(f"parameters diverged: {err}", iteration) from err
        curve.append(batch_loss / cfg.meta_batch)
    return MetaTrainResult(
        model=init.with_params(mlp_params(weights, spec)), loss_curve=curve
    )


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


def evaluate(model: DetectorModel, task: Task, cfg: MetaConfig) -> EvalReport:
    """Adapt on support, score the query set, and report P/R/F1.

    adaptation_steps is the smallest step count at which the support loss
    reaches ADAPT_LOSS_BOUND, or cfg.inner_steps if it never does within the
    budget.
    """
    spec = model.layer_spec
    x, y = _as_xy((task.support_x, task.support_y))
    weights = mlp_weights(model.params, spec)
    adaptation_steps = None
    for step in range(cfg.inner_steps + 1):
        if step:
            weights = _descend(weights, grads, cfg.inner_lr)
        loss, grads = mlp_loss_and_grad(weights, x, y, spec)
        if adaptation_steps is None and loss <= ADAPT_LOSS_BOUND:
            adaptation_steps = step
    if adaptation_steps is None:
        adaptation_steps = cfg.inner_steps

    # an (n, 1, d) stack scores each row as `detect` does, bitwise; an (n, d)
    # batch can differ from it in the last bits
    scores = mlp_forward(weights, task.query_x[:, None, :], spec)[-1]
    flags, positive = scores[:, 0, 0] >= model.threshold, task.query_y == 1.0
    tp, fp, fn, tn = (int(np.count_nonzero(f & p)) for f, p in (
        (flags, positive), (flags, ~positive), (~flags, positive), (~flags, ~positive)))
    precision, recall, f1 = _prf(tp, fp, fn)
    return EvalReport(
        precision=precision,
        recall=recall,
        f1=f1,
        adaptation_steps=adaptation_steps,
        confusion=(tp, fp, fn, tn),
    )
