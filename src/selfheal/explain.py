"""Exact Shapley attributions for detector scores, by coalition enumeration.

Features are partitioned into groups (by default one group per telemetry
metric across the window) and every one of the 2^g coalitions is evaluated,
so the attribution satisfies the efficiency, dummy, and symmetry axioms by
construction rather than by sampling. Replacement semantics are marginal:
out-of-coalition groups take their values from each background row in turn,
and the coalition value is the mean model output over those rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError
from .detector.model import DetectorModel
from .numerics import mlp_forward
from .recovery import ACTIONS, Policy, RecoveryAction, state_positions
from .simulator import METRICS

MAX_GROUPS = 12


@dataclass(frozen=True)
class BackgroundSet:
    """Reference rows that stand in for 'feature absent'."""

    rows: np.ndarray  # (n_rows, width)

    def __post_init__(self):
        if self.rows.ndim != 2 or self.rows.shape[0] < 1:
            raise InputError("background must be a nonempty (rows, width) array")

    @property
    def width(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class Attribution:
    """Signed per-group contributions; sums to instance - base by efficiency."""

    group_names: tuple[str, ...]
    contributions: tuple[float, ...]
    base_value: float
    instance_value: float


def metric_groups(window_width: int) -> dict[str, list[int]]:
    """The default partition: one group per metric across all window ticks."""
    return {
        metric: [t * len(METRICS) + j for t in range(window_width)]
        for j, metric in enumerate(METRICS)
    }


def shapley_attribution(
    model: DetectorModel,
    x,
    background: BackgroundSet,
    groups: dict[str, list[int]],
) -> Attribution:
    """Exact Shapley values of the model score for each feature group.

    phi_j = sum over coalitions S not containing j of
    |S|!(g-|S|-1)!/g! * (v(S + j) - v(S)), with v(S) the mean model output
    when in-S groups come from x and the rest from each background row.
    """
    vec = np.asarray(x, dtype=np.float64)
    if vec.ndim != 1 or vec.shape[0] != model.input_width:
        raise InputError(
            f"expected a feature vector of width {model.input_width}, got {vec.shape}"
        )
    if background.width != model.input_width:
        raise InputError("background width does not match the model")
    names = tuple(groups)
    g = len(names)
    if g > MAX_GROUPS:
        raise CapacityError(
            f"{g} groups would need {2 ** g} coalitions; coarsen the grouping "
            f"to at most {MAX_GROUPS} groups"
        )
    covered = sorted(i for name in names for i in groups[name])
    if covered != list(range(model.input_width)):
        raise InputError("groups must partition all feature indices exactly once")

    # coalition `bits` takes group j from x iff bit j is set: all 2^g
    # coalitions as one (2^g, n_rows, width) stack, scored in one pass
    in_coalition = np.zeros((2 ** g, model.input_width), dtype=bool)
    for j, name in enumerate(names):
        in_coalition[:, groups[name]] = (np.arange(2 ** g) >> j & 1).astype(bool)[:, None]
    data = np.where(in_coalition[:, None, :], vec, background.rows)
    scores = mlp_forward(model.weights, data, model.layer_spec)
    values = [float(block.mean()) for block in scores[-1]]

    fact = [math.factorial(k) for k in range(g + 1)]
    contributions = []
    for j in range(g):
        phi = 0.0
        for bits in range(2 ** g):
            if bits >> j & 1:
                continue
            size = bits.bit_count()
            weight = fact[size] * fact[g - size - 1] / fact[g]
            phi += weight * (values[bits | (1 << j)] - values[bits])
        contributions.append(phi)

    return Attribution(
        group_names=names,
        contributions=tuple(contributions),
        base_value=values[0],
        instance_value=values[(1 << g) - 1],
    )


@dataclass(frozen=True)
class ActionRanking:
    action: RecoveryAction
    q_value: float
    gap_to_best: float


def explain_recovery(policy: Policy, state: int) -> list[ActionRanking]:
    """Actions ranked by Q descending (ties by ordinal), with gaps to the best,
    at the state index `state`."""
    state_positions(state)  # rejects an index outside [0, N_STATES)
    q_row = policy.q[state]
    order = sorted(ACTIONS, key=lambda a: (-q_row[a.value], a.value))
    best = q_row[order[0].value]
    return [
        ActionRanking(
            action=a,
            q_value=float(q_row[a.value]),
            gap_to_best=float(best - q_row[a.value]),
        )
        for a in order
    ]
