"""Episode objectives, the mixing weights, and the reward signal.

The three recovery objectives are mean latency, mean resource usage, and
summed action cost per episode, all minimized. The reward is the negative
weighted sum of normalized objective increments between two snapshots, so an
action that lowers the weighted objectives earns positive reward.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, InputError

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class ObjectiveVector:
    """(mean latency ms, mean resource fraction, summed action cost)."""

    latency: float
    resource: float
    cost: float

    def __post_init__(self):
        for name in ("latency", "resource", "cost"):
            if getattr(self, name) < 0:
                raise InputError(f"{name} objective must be >= 0")

    def as_array(self) -> np.ndarray:
        return np.array([self.latency, self.resource, self.cost])


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


@dataclass
class EpisodeTrace:
    """Per-tick latency and resource series plus the logged action costs."""

    latencies: np.ndarray
    resources: np.ndarray
    action_costs: list[float]


def episode_objectives(trace: EpisodeTrace) -> ObjectiveVector:
    """Arithmetic means for latency and resource; plain sum for cost."""
    latencies = np.asarray(trace.latencies, dtype=np.float64)
    resources = np.asarray(trace.resources, dtype=np.float64)
    if latencies.size == 0 or resources.size == 0:
        raise InputError("episode trace must cover at least one tick")
    return ObjectiveVector(
        latency=float(latencies.mean()),
        resource=float(resources.mean()),
        cost=float(sum(trace.action_costs)),
    )


def _positive(normalizers: tuple[float, float, float]) -> np.ndarray:
    n = np.asarray(normalizers, dtype=np.float64)
    if np.any(n <= 0):
        raise ConfigurationError(f"normalizers must be positive, got {normalizers}")
    return n


def make_reward(
    weights: RewardWeights, normalizers: tuple[float, float, float]
) -> Callable[[ObjectiveVector, ObjectiveVector], float]:
    """The reward `r(prev, next) = -(w . (next - prev) / normalizers)`,
    positive when the objectives improved. Weights and normalizers are
    checked here, once, not on every call."""
    w, n = weights.as_array(), _positive(normalizers)

    def reward(prev: ObjectiveVector, nxt: ObjectiveVector) -> float:
        delta = nxt.as_array() - prev.as_array()
        return float(-(w @ (delta / n)))

    return reward


def weighted_objective(
    vec: ObjectiveVector,
    weights: RewardWeights,
    normalizers: tuple[float, float, float],
) -> float:
    """Scalarized objective used to compare policies (lower is better)."""
    return float(weights.as_array() @ (vec.as_array() / _positive(normalizers)))
