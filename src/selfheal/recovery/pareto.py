"""Pareto analysis of recovery trade-offs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InputError
from ..seeding import derive_seed
from .env import RecoveryEnv
from .objectives import ObjectiveVector, RewardWeights
from .qlearning import QHyper, evaluate_policy, train_agent


def pareto_front(points: list[ObjectiveVector]) -> list[ObjectiveVector]:
    """The non-dominated subset, minimizing all objectives.

    A point is dominated when some other point is <= in every objective and
    strictly < in at least one. Input order is preserved and duplicates of a
    non-dominated point are all retained (equal points never dominate each
    other).
    """
    if not points:
        return []
    arr = np.array(points)
    # all-pairs dominance: dominated[i] iff some j has arr[j] <= arr[i]
    # everywhere and arr[j] < arr[i] somewhere
    le = (arr[:, None, :] <= arr[None, :, :]).all(axis=2)
    lt = (arr[:, None, :] < arr[None, :, :]).any(axis=2)
    return [p for p, dominated in zip(points, (le & lt).any(axis=0)) if not dominated]


@dataclass
class SweepEntry:
    weights: RewardWeights
    objectives: ObjectiveVector


@dataclass
class SweepResult:
    entries: list[SweepEntry]
    front: list[SweepEntry]


def weight_sweep(
    env: RecoveryEnv,
    weight_grid: list[RewardWeights],
    episodes: int,
    seed: int,
    eval_episodes: int = 10,
    hyper: QHyper | None = None,
) -> SweepResult:
    """Train one agent per weight vector and chart the resulting trade-offs.

    Every grid point trains on its own seeded episodes, is evaluated greedily
    on a shared held-out set, and contributes its mean ObjectiveVector; the
    front is computed over those means: an entry is on it when its mean is
    in `pareto_front` of all the means (equal means are dominated alike).
    """
    if not weight_grid:
        raise InputError("weight grid must be nonempty")
    eval_seeds = [derive_seed(seed, "sweep-eval", i) for i in range(eval_episodes)]
    entries = []
    for g, weights in enumerate(weight_grid):
        result = train_agent(
            env, weights, episodes, hyper=hyper, seed=derive_seed(seed, "sweep", g)
        )
        mean_vec = evaluate_policy(env, result.policy.choose, eval_seeds)
        entries.append(SweepEntry(weights=weights, objectives=mean_vec))
    front = pareto_front([e.objectives for e in entries])
    return SweepResult(entries=entries, front=[e for e in entries if e.objectives in front])
