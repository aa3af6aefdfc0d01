"""Tabular Q-learning over the discretized recovery state space.

The table stays small (72 states x 7 actions) on purpose: every greedy
decision can be audited against brute-force policy enumeration, and training
is bitwise deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import InputError, SchemaError
from ..files import read_text
from ..seeding import derive_seed
from .env import RecoveryEnv, rollout
from .objectives import ObjectiveVector, RewardWeights, make_reward
from .states import ACTIONS, N_ACTIONS, N_STATES, RecoveryAction


@dataclass(frozen=True)
class QHyper:
    gamma: float = 0.95
    lr: float = 0.1
    epsilon_start: float = 0.3
    epsilon_end: float = 0.01

    def __post_init__(self):
        if not 0 <= self.gamma <= 1:
            raise InputError("gamma must be in [0, 1]")
        if self.lr <= 0:
            raise InputError("lr must be positive")
        if not 0 <= self.epsilon_end <= self.epsilon_start <= 1:
            raise InputError("need 0 <= epsilon_end <= epsilon_start <= 1")

    def epsilon_at(self, episode: int, total: int) -> float:
        if total <= 1:
            return self.epsilon_end
        frac = episode / (total - 1)
        return self.epsilon_start + frac * (self.epsilon_end - self.epsilon_start)


@dataclass
class Policy:
    """Full Q table plus the hyperparameters it was trained with."""

    q: np.ndarray  # (N_STATES, N_ACTIONS)
    hyper: QHyper = field(default_factory=QHyper)

    def __post_init__(self):
        if self.q.shape != (N_STATES, N_ACTIONS):
            raise InputError(
                f"Q table must be {(N_STATES, N_ACTIONS)}, got {self.q.shape}"
            )

    def greedy(self, state: int) -> RecoveryAction:
        # np.argmax returns the first maximum: ties break to the lowest ordinal
        return ACTIONS[int(np.argmax(self.q[state]))]

    def choose(self, state: int, tick: int) -> RecoveryAction:
        return self.greedy(state)


def zero_policy(hyper: QHyper | None = None) -> Policy:
    return Policy(q=np.zeros((N_STATES, N_ACTIONS)), hyper=hyper or QHyper())


def random_policy(seed: int):
    """A policy-shaped callable choosing uniformly random actions."""

    def choose(state: int, tick: int) -> RecoveryAction:
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, state, tick)))
        return ACTIONS[int(rng.integers(N_ACTIONS))]

    return choose


def no_op_policy(state: int, tick: int) -> RecoveryAction:
    return RecoveryAction.NO_OP


def estimate_normalizers(
    env: RecoveryEnv, episodes: int = 10, seed: int = 0
) -> tuple[float, float, float]:
    """Running means of each objective's magnitude over random-policy warmup."""
    if episodes < 1:
        raise InputError("need at least one warmup episode")
    totals = np.zeros(3)
    for e in range(episodes):
        vec = rollout(env, random_policy(derive_seed(seed, "warmup-pi", e)),
                      derive_seed(seed, "warmup", e))
        totals += np.abs(np.array(vec))
    means = totals / episodes
    return tuple(float(max(m, 1e-9)) for m in means)


def _step_normalizers(
    env: RecoveryEnv, episodes: int = 10, seed: int = 0
) -> tuple[float, float, float]:
    """Per-tick magnitude scales for the TD reward.

    Latency and resource are per-tick quantities already; cost is scaled by
    the mean cost of one action so a single wasted action is visible against
    one tick's latency signal rather than diluted by the episode total.
    """
    episode_scale = estimate_normalizers(env, episodes, seed)
    mean_action_cost = float(np.mean([c for c in env.action_costs.values()]))
    return episode_scale[0], episode_scale[1], max(mean_action_cost, 1e-9)


@dataclass
class AgentTrainResult:
    policy: Policy
    returns: list[float]  # summed per-step reward per episode
    normalizers: tuple[float, float, float]


def train_agent(
    env: RecoveryEnv,
    weights: RewardWeights,
    episodes: int,
    hyper: QHyper | None = None,
    seed: int = 0,
    normalizers: tuple[float, float, float] | None = None,
) -> AgentTrainResult:
    """One-step temporal-difference Q-learning with epsilon-greedy exploration.

    The per-step reward compares the post-action snapshot against the healthy
    baseline counterfactual at the same tick, normalized per objective.
    Deterministic in `seed`.
    """
    if episodes < 1:
        raise InputError("episodes must be >= 1")
    hyper = hyper or QHyper()
    if normalizers is None:
        normalizers = _step_normalizers(env, seed=derive_seed(seed, "norms"))
    reward = make_reward(weights, normalizers)
    gamma, lr = hyper.gamma, hyper.lr
    # Python float rows while training: the same IEEE arithmetic as a numpy
    # table, without an array round trip per step
    q = [[0.0] * N_ACTIONS for _ in range(N_STATES)]
    returns: list[float] = []
    for episode in range(episodes):
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "explore", episode)))
        epsilon = hyper.epsilon_at(episode, episodes)
        s = env.reset(derive_seed(seed, "episode", episode))
        prev_cost = env.snapshot().cost  # changes only in step(): carried below
        total = 0.0
        done = False
        while not done:
            row = q[s]
            if rng.random() < epsilon:
                a = int(rng.integers(N_ACTIONS))
            else:
                a = row.index(max(row))  # the first maximum, as np.argmax
            nxt, done = env.step(ACTIONS[a])
            actual = env.snapshot()
            baseline = env.baseline_snapshot()
            r = reward((baseline.latency, baseline.resource, prev_cost), actual)
            target = r if done else r + gamma * max(q[nxt])
            row[a] += lr * (target - row[a])
            s = nxt
            total += r
            prev_cost = actual.cost
        returns.append(total)
    return AgentTrainResult(policy=Policy(q=np.array(q), hyper=hyper), returns=returns,
                            normalizers=normalizers)


def evaluate_policy(env: RecoveryEnv, choose, episode_seeds: list[int]) -> ObjectiveVector:
    """Mean episode objectives of a policy over fixed held-out episodes."""
    if not episode_seeds:
        raise InputError("need at least one evaluation episode")
    mean = np.array([rollout(env, choose, s) for s in episode_seeds]).mean(axis=0)
    return ObjectiveVector(*mean.tolist())


def save_policy(policy: Policy, path: str | Path) -> None:
    """Textual table: state index, action name, Q value (exact repr floats)."""
    lines = ["state\taction\tq"]
    for s in range(N_STATES):
        for a in ACTIONS:
            lines.append(f"{s}\t{a.name}\t{float(policy.q[s, a.value])!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_policy(path: str | Path, hyper: QHyper | None = None) -> Policy:
    lines = read_text(path).strip().splitlines()
    if not lines or lines[0].split("\t") != ["state", "action", "q"]:
        raise SchemaError(f"{path}: not a policy table")
    q = np.zeros((N_STATES, N_ACTIONS))
    seen = np.zeros((N_STATES, N_ACTIONS), dtype=bool)
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != 3:
            raise SchemaError(f"{path}: line {i} is not 'state\\taction\\tq'")
        try:
            s, value = int(parts[0]), float(parts[2])
        except ValueError:
            raise SchemaError(f"{path}: line {i} has a non-numeric state or q") from None
        if not 0 <= s < N_STATES:
            raise SchemaError(f"{path}: line {i} has state {s} outside [0, {N_STATES})")
        if parts[1] not in RecoveryAction.__members__:
            raise SchemaError(f"{path}: line {i} has unknown action '{parts[1]}'")
        if not np.isfinite(value):
            raise SchemaError(f"{path}: line {i} has non-finite q {parts[2]}")
        a = RecoveryAction[parts[1]].value
        if seen[s, a]:
            raise SchemaError(f"{path}: line {i} repeats state {s} action {parts[1]}")
        q[s, a] = value
        seen[s, a] = True
    if not seen.all():
        raise SchemaError(f"{path}: table does not cover every (state, action)")
    return Policy(q=q, hyper=hyper or QHyper())
