"""Episode objectives, the mixing weights, and the reward signal.

The three recovery objectives are mean latency, mean resource usage, and
summed action cost per episode, all minimized. The reward is the negative
weighted sum of normalized objective increments between two snapshots, so an
action that lowers the weighted objectives earns positive reward.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import ConfigurationError, InputError

_WEIGHT_TOL = 1e-12


class ObjectiveVector(NamedTuple):
    """(mean latency ms, mean resource fraction, summed action cost); its
    array is `np.array(vec)`."""

    latency: float
    resource: float
    cost: float


@dataclass(frozen=True)
class RewardWeights:
    """Nonnegative priorities over (latency, resource, cost), summing to 1."""

    latency: float
    resource: float
    cost: float

    def __post_init__(self):
        if min(self.latency, self.resource, self.cost) < 0:
            raise InputError("weights must be nonnegative")
        if abs(self.latency + self.resource + self.cost - 1.0) > _WEIGHT_TOL:
            raise InputError("weights must sum to 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.latency, self.resource, self.cost])

    @staticmethod
    def normalized(latency: float, resource: float, cost: float) -> "RewardWeights":
        total = latency + resource + cost
        if total <= 0 or min(latency, resource, cost) < 0:
            raise InputError("weights must be nonnegative with a positive sum")
        return RewardWeights(latency / total, resource / total, cost / total)


BALANCED_WEIGHTS = RewardWeights.normalized(1.0, 1.0, 1.0)


def _positive(normalizers: tuple[float, float, float]) -> np.ndarray:
    n = np.asarray(normalizers, dtype=np.float64)
    if np.any(n <= 0):
        raise ConfigurationError(f"normalizers must be positive, got {normalizers}")
    return n


def make_reward(
    weights: RewardWeights, normalizers: tuple[float, float, float]
) -> Callable[[float, float, float], float]:
    """The reward `r(latency, resource, cost) = -(w . (increments / normalizers))`
    of the objectives' increments between two snapshots, positive when the
    objectives improved. Weights and normalizers are checked here, once, not
    on every call."""
    w = weights.as_array()
    n0, n1, n2 = _positive(normalizers).tolist()
    x = np.empty(3)  # the scaled increments, rewritten by every call
    dot = w.dot

    def reward(latency: float, resource: float, cost: float) -> float:
        # Each quotient is the same IEEE operation as in `increments / n` on
        # arrays, but the weighted sum must stay the BLAS dot: for 3-vectors it
        # equals an exact fused multiply-add chain, which the plain scalar
        # w0*x0 + w1*x1 + w2*x2 misses on a quarter to a third of random
        # triples, so a scalar sum would change every report.
        x[0], x[1], x[2] = latency / n0, resource / n1, cost / n2
        return -float(dot(x))

    return reward


def weighted_objective(
    vec: ObjectiveVector,
    weights: RewardWeights,
    normalizers: tuple[float, float, float],
) -> float:
    """Scalarized objective used to compare policies (lower is better)."""
    return float(weights.as_array() @ (np.array(vec) / _positive(normalizers)))
