"""Few-shot tasks built from telemetry traces, plus synthetic augmentation.

A task is a support/query split of labeled feature vectors. Each feature
vector flattens a window of `w` consecutive ticks' five metrics (d = 5w),
expressed in normalized units so all metrics live on comparable scales. A
window is anomalous iff any of its ticks is labeled anomalous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GenerationError, InputError
from ..seeding import derive_seed
from .telemetry import METRICS, TelemetryTrace, WorkloadPattern, generate_trace

# Unit scale per metric (divisor) so feature values land near [0, 1]:
# fractions stay as-is, latency in hundreds of ms, I/O and qps in thousands.
FEATURE_UNIT_SCALE = {
    "cpu": 1.0,
    "memory": 1.0,
    "latency_ms": 100.0,
    "io_ops": 1000.0,
    "qps": 1000.0,
}

_SCALE_VECTOR = np.array([FEATURE_UNIT_SCALE[m] for m in METRICS])

_MAX_TRACE_ATTEMPTS = 20
# each side of a task's split holds at least one window of each class
MIN_SPLIT = 2


@dataclass
class Task:
    """Support/query split of one workload pattern's labeled windows."""

    support_x: np.ndarray  # (n_support, 5w)
    support_y: np.ndarray  # (n_support,)
    query_x: np.ndarray
    query_y: np.ndarray
    source_pattern_id: str

    def __post_init__(self):
        for name in ("support", "query"):
            x = getattr(self, f"{name}_x")
            y = getattr(self, f"{name}_y")
            if len(x) == 0:
                raise InputError(f"{name} set must be nonempty")
            if x.shape[0] != y.shape[0]:
                raise InputError(f"{name} features and labels disagree in length")
        if self.support_x.shape[1] != self.query_x.shape[1]:
            raise InputError("support and query feature widths differ")

    @property
    def feature_width(self) -> int:
        return self.support_x.shape[1]


def unit_scaled(rows) -> np.ndarray:
    """Metric rows (METRICS order along the last axis) divided by their unit scale."""
    return np.asarray(rows) / _SCALE_VECTOR


def window_feature(rows) -> np.ndarray:
    """Unit-scaled metric rows (METRICS order) of consecutive ticks, flattened."""
    return unit_scaled(rows).ravel()


def trace_windows(trace: TelemetryTrace, width: int) -> tuple[np.ndarray, np.ndarray]:
    """All disjoint windows of the trace as (features, labels)."""
    count = len(trace.labels) // width
    if count == 0:
        raise InputError(f"trace of {len(trace.labels)} ticks too short for width {width}")
    ticks = count * width
    feats = window_feature(trace.metrics[:ticks]).reshape(count, -1)
    labels = trace.labels[:ticks].reshape(count, width).max(axis=1)
    return feats, labels


def _stratified_split(
    feats: np.ndarray,
    labels: np.ndarray,
    n_support: int,
    n_query: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Disjoint index sets, each containing both classes; None if impossible."""
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    if len(pos) < 2 or len(neg) < 2 or len(labels) < n_support + n_query:
        return None
    pos = rng.permutation(pos)
    neg = rng.permutation(neg)
    # seed each side with one example of each class, then fill from the pool
    support = [pos[0], neg[0]]
    query = [pos[1], neg[1]]
    pool = [i for i in rng.permutation(len(labels)) if i not in (*support, *query)]
    need_support = n_support - 2
    need_query = n_query - 2
    if len(pool) < need_support + need_query:
        return None
    support += pool[:need_support]
    query += pool[need_support : need_support + need_query]
    return np.array(sorted(support)), np.array(sorted(query))


def make_tasks(
    patterns: list[WorkloadPattern],
    n_support: int,
    n_query: int,
    window_width: int,
    seed: int,
) -> list[Task]:
    """One task per pattern, with disjoint both-class support/query sets.

    Traces are regenerated (bounded attempts, fresh sub-seed) when anomaly
    placement leaves a class unrepresented.
    """
    if min(n_support, n_query) < MIN_SPLIT:
        raise InputError(f"n_support and n_query must be >= {MIN_SPLIT}, got "
                         f"{n_support} and {n_query}")
    ticks = max(240, (n_support + n_query) * window_width * 3)
    tasks = []
    for pattern in patterns:
        split = None
        for attempt in range(_MAX_TRACE_ATTEMPTS):
            sub_seed = derive_seed(seed, pattern.pattern_id, attempt)
            trace = generate_trace(pattern, sub_seed, ticks)
            feats, labels = trace_windows(trace, window_width)
            rng = np.random.Generator(np.random.PCG64(derive_seed(sub_seed, "split")))
            split = _stratified_split(feats, labels, n_support, n_query, rng)
            if split is not None:
                break
        if split is None:
            raise GenerationError(
                f"pattern '{pattern.pattern_id}' could not produce both classes "
                f"after {_MAX_TRACE_ATTEMPTS} attempts"
            )
        support_idx, query_idx = split
        tasks.append(
            Task(
                support_x=feats[support_idx],
                support_y=labels[support_idx].astype(np.float64),
                query_x=feats[query_idx],
                query_y=labels[query_idx].astype(np.float64),
                source_pattern_id=pattern.pattern_id,
            )
        )
    return tasks


def _mix_side(
    x_a: np.ndarray,
    y_a: np.ndarray,
    x_b: np.ndarray,
    y_b: np.ndarray,
    lam: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Convex combination of same-label vectors, one partner per slot."""
    rows = []
    for k in range(len(y_a)):
        candidates = np.flatnonzero(y_b == y_a[k])
        partner = int(candidates[int(rng.integers(len(candidates)))])
        rows.append(lam * x_a[k] + (1.0 - lam) * x_b[partner])
    return np.stack(rows), y_a.copy()


def check_jitter_std(jitter_std: float) -> None:
    """The jittered copies' feature noise must have a std >= 0."""
    if jitter_std < 0:
        raise InputError(f"jitter_std must be >= 0, got {jitter_std}")


def augment_tasks(
    tasks: list[Task], jitter_std: float, mix_count: int, seed: int
) -> list[Task]:
    """Originals + jittered copies + `mix_count` interpolated tasks.

    Jitter adds Gaussian noise to features only; interpolation convexly
    combines same-label feature vectors from a random task pair. Labels are
    always preserved. Output size is 2 * len(tasks) + mix_count.
    """
    if not tasks:
        raise InputError("tasks must be nonempty")
    check_jitter_std(jitter_std)
    out = list(tasks)

    for i, task in enumerate(tasks):
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "jitter", i)))
        out.append(
            Task(
                support_x=task.support_x + rng.normal(0.0, jitter_std, task.support_x.shape),
                support_y=task.support_y.copy(),
                query_x=task.query_x + rng.normal(0.0, jitter_std, task.query_x.shape),
                query_y=task.query_y.copy(),
                source_pattern_id=f"{task.source_pattern_id}+jitter",
            )
        )

    for m in range(mix_count):
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "mix", m)))
        i = int(rng.integers(len(tasks)))
        j = int(rng.integers(len(tasks)))
        if len(tasks) > 1:
            while j == i:
                j = int(rng.integers(len(tasks)))
        a, b = tasks[i], tasks[j]
        lam = float(rng.uniform(0.25, 0.75))
        sx, sy = _mix_side(a.support_x, a.support_y, b.support_x, b.support_y, lam, rng)
        qx, qy = _mix_side(a.query_x, a.query_y, b.query_x, b.query_y, lam, rng)
        out.append(
            Task(
                support_x=sx,
                support_y=sy,
                query_x=qx,
                query_y=qy,
                source_pattern_id=f"mix({a.source_pattern_id},{b.source_pattern_id})",
            )
        )
    return out
