import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfheal.errors import ConfigurationError, InputError, SchemaError
from selfheal.harness import AgentSection
from selfheal.recovery import (
    ACTIONS,
    ANOMALY_STATUSES,
    BALANCED_WEIGHTS,
    FAILED_BINS,
    N_ACTIONS,
    N_STATES,
    ObjectiveVector,
    Policy,
    QHyper,
    RecoveryAction,
    RecoveryEnv,
    RewardWeights,
    failed_bin,
    load_policy,
    make_reward,
    named_state,
    no_op_policy,
    pareto_front,
    random_policy,
    rollout,
    save_policy,
    state_index,
    state_positions,
    train_agent,
    weight_sweep,
    weighted_objective,
)
from selfheal.recovery import env as envmod
from selfheal.recovery import pareto
from selfheal.seeding import derive_seed
from selfheal.simulator import AFFECTED_METRICS, ANOMALY_KINDS, METRICS, healthy_series
from selfheal.simulator.telemetry import DIURNAL_PERIOD, clip_metrics

DESK_SWEEP_GRID = [RewardWeights.normalized(*w) for w in AgentSection().sweep_grid]


def reward(prev, nxt, weights, normalizers):
    """The reward from `prev` to `nxt`, (latency, resource, cost) tuples."""
    return make_reward(weights, normalizers)(*(b - a for a, b in zip(prev, nxt)))


class TestSystemState:
    def test_space_size_is_72(self):
        assert N_STATES == 72

    def test_index_roundtrip(self):
        for i in range(N_STATES):
            assert state_index(*state_positions(i)) == i

    def test_names_encode_their_positions(self):
        assert named_state("low", "none", "none") == 0
        assert state_positions(named_state("high", "io", "low")) == (2, 4, 1)
        assert named_state("medium", "cpu") == named_state("medium", "cpu", "none")

    def test_index_outside_the_space_rejected(self):
        for index in (-1, N_STATES):
            with pytest.raises(InputError, match="outside"):
                state_positions(index)

    def test_invalid_values_rejected(self):
        with pytest.raises(InputError):
            named_state("turbo", "none", "none")
        with pytest.raises(InputError):
            named_state("low", "gremlins", "none")
        with pytest.raises(InputError):
            named_state("low", "none", "most")

    def test_failed_bins(self):
        cases = [(0.0, "none"), (1e-9, "low"), (0.25, "low"), (0.2500001, "medium"),
                 (0.5, "medium"), (0.51, "high"), (1.0, "high")]
        assert [FAILED_BINS[failed_bin(f)] for f, _ in cases] == [b for _, b in cases]
        for fraction in (-0.1, 1.1, float("nan")):
            with pytest.raises(InputError):
                failed_bin(fraction)


class TestEpisodeObjectives:
    def test_constant_latency(self):
        vec = rollout(SingleStateEnv(excess=0.0, ticks=4), no_op_policy, episode_seed=0)
        assert vec.latency == pytest.approx(20.0)

    def test_no_actions_zero_cost(self):
        vec = rollout(SingleStateEnv(ticks=2), no_op_policy, episode_seed=0)
        assert vec.cost == 0.0

    def test_hand_arithmetic(self):
        # scale_up clears the excess until the next action: latencies
        # 30, 20, 30, 20 over the reset snapshot and three steps
        plan = [RecoveryAction.SCALE_UP, RecoveryAction.REROUTE_QUERY,
                RecoveryAction.SCALE_UP]
        vec = rollout(SingleStateEnv(excess=10.0, ticks=3),
                      lambda state, tick: plan[tick], episode_seed=0)
        assert vec.latency == pytest.approx(25.0)
        assert vec.resource == pytest.approx(0.5)
        assert vec.cost == 5.0 + 1.0 + 5.0


class TestReward:
    def test_zero_delta_zero_reward(self):
        vec = ObjectiveVector(10.0, 0.5, 2.0)
        assert reward(vec, vec, BALANCED_WEIGHTS, (1, 1, 1)) == 0.0

    def test_latency_only_weight(self):
        w = RewardWeights(1.0, 0.0, 0.0)
        prev = ObjectiveVector(10.0, 0.5, 0.0)
        nxt = ObjectiveVector(5.0, 0.9, 7.0)
        assert reward(prev, nxt, w, (5.0, 1.0, 1.0)) == pytest.approx(1.0)

    def test_hand_arithmetic(self):
        w = RewardWeights(0.5, 0.25, 0.25)
        prev = ObjectiveVector(20.0, 0.5, 1.0)
        nxt = ObjectiveVector(10.0, 0.5, 3.0)
        # deltas (-10, 0, +2) over normalizers (10, 1, 10)
        assert reward(prev, nxt, w, (10.0, 1.0, 10.0)) == pytest.approx(0.45)

    def test_nonpositive_normalizer_rejected(self):
        vec = ObjectiveVector(1.0, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            make_reward(BALANCED_WEIGHTS, (1.0, 0.0, 1.0))
        with pytest.raises(ConfigurationError):
            weighted_objective(vec, BALANCED_WEIGHTS, (1.0, 1.0, -2.0))

    @settings(max_examples=50, deadline=None)
    @given(
        lam=st.floats(0.0, 1.0),
        deltas=st.tuples(
            st.floats(-50, 50), st.floats(-1, 1), st.floats(-20, 20)
        ),
    )
    def test_linear_in_weights(self, lam, deltas):
        w1 = RewardWeights(0.5, 0.3, 0.2)
        w2 = RewardWeights(0.1, 0.2, 0.7)
        mixed = RewardWeights(
            lam * w1.latency + (1 - lam) * w2.latency,
            lam * w1.resource + (1 - lam) * w2.resource,
            lam * w1.cost + (1 - lam) * w2.cost,
        )
        prev = ObjectiveVector(100.0, 0.5, 30.0)
        nxt = ObjectiveVector(
            100.0 + deltas[0], max(0.0, 0.5 + deltas[1]), max(0.0, 30.0 + deltas[2])
        )
        norms = (10.0, 0.5, 5.0)
        combined = reward(prev, nxt, mixed, norms)
        parts = lam * reward(prev, nxt, w1, norms) + (1 - lam) * reward(
            prev, nxt, w2, norms
        )
        assert combined == pytest.approx(parts, abs=1e-12)


class TestRewardDot:
    def test_reward_is_the_array_dot_bitwise(self):
        # The reward's weighted sum must stay the BLAS dot `w @ x`. For
        # 3-vectors it matched an exact fused multiply-add chain
        # fma(w2, x2, fma(w1, x1, w0 * x0)) on every one of 20,000 random
        # triples, where the plain scalar w0*x0 + w1*x1 + w2*x2 matched on only
        # about two thirds. A scalar rewrite would therefore change the
        # learned Q tables and every report hash.
        rng = np.random.default_rng(2026)
        scale = np.array([400.0, 1.0, 300.0])  # latency ms, resource, cost
        for weights in [*DESK_SWEEP_GRID, RewardWeights(0.5, 0.3, 0.2)]:
            norms = tuple(rng.uniform(0.01, 50.0, size=3).tolist())
            w, n = weights.as_array(), np.array(norms)
            fast = make_reward(weights, norms)
            for _ in range(1000):
                prev = tuple((rng.uniform(size=3) * scale).tolist())
                nxt = tuple((rng.uniform(size=3) * scale).tolist())
                expected = float(-(w @ ((np.array(nxt) - np.array(prev)) / n)))
                increments = (b - a for a, b in zip(prev, nxt))
                assert fast(*increments).hex() == expected.hex()


class TestRewardWeights:
    def test_must_sum_to_one(self):
        with pytest.raises(InputError):
            RewardWeights(0.5, 0.5, 0.5)

    def test_normalized_constructor(self):
        w = RewardWeights.normalized(2.0, 1.0, 1.0)
        assert w.latency == pytest.approx(0.5)
        assert w.latency + w.resource + w.cost == pytest.approx(1.0, abs=1e-12)


def brute_force_front(points: list[ObjectiveVector]) -> list[ObjectiveVector]:
    """Independent O(n^2) pairwise oracle, straight from the definition."""
    out = []
    for p in points:
        pa = (p.latency, p.resource, p.cost)
        dominated = False
        for q in points:
            qa = (q.latency, q.resource, q.cost)
            if all(x <= y for x, y in zip(qa, pa)) and any(
                x < y for x, y in zip(qa, pa)
            ):
                dominated = True
                break
        if not dominated:
            out.append(p)
    return out


class TestParetoFront:
    def test_single_point_is_its_own_front(self):
        p = ObjectiveVector(1.0, 2.0, 3.0)
        assert pareto_front([p]) == [p]

    def test_strict_domination(self):
        a = ObjectiveVector(1.0, 1.0, 1.0)
        b = ObjectiveVector(2.0, 2.0, 2.0)
        assert pareto_front([a, b]) == [a]

    def test_duplicates_all_retained(self):
        a = ObjectiveVector(1.0, 2.0, 3.0)
        b = ObjectiveVector(1.0, 2.0, 3.0)
        c = ObjectiveVector(0.5, 9.0, 9.0)
        assert pareto_front([a, b, c]) == [a, b, c]

    def test_input_order_preserved(self):
        pts = [
            ObjectiveVector(3.0, 1.0, 1.0),
            ObjectiveVector(1.0, 3.0, 1.0),
            ObjectiveVector(1.0, 1.0, 3.0),
        ]
        assert pareto_front(pts) == pts

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pts = [ObjectiveVector(*row) for row in rng.uniform(0, 10, size=(300, 3))]
        fast = pareto_front(pts)
        oracle = brute_force_front(pts)
        assert [(p.latency, p.resource, p.cost) for p in fast] == [
            (p.latency, p.resource, p.cost) for p in oracle
        ]

    def test_scaling_invariance(self):
        rng = np.random.default_rng(17)
        pts = [ObjectiveVector(*row) for row in rng.uniform(0, 5, size=(200, 3))]
        front = pareto_front(pts)
        scaled = [
            ObjectiveVector(p.latency * 7.0, p.resource * 7.0, p.cost * 7.0)
            for p in pts
        ]
        scaled_front = pareto_front(scaled)
        assert len(front) == len(scaled_front)
        kept = [i for i, p in enumerate(pts) if p in front]
        kept_scaled = [i for i, p in enumerate(scaled) if p in scaled_front]
        assert kept == kept_scaled

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_front_properties(self, tuples):
        pts = [ObjectiveVector(*map(float, t)) for t in tuples]
        front = pareto_front(pts)
        oracle = brute_force_front(pts)
        assert len(front) == len(oracle)
        # every excluded point is dominated by some retained point
        front_arrays = [np.array(p) for p in front]
        for p in pts:
            if p in front:
                continue
            pa = np.array(p)
            assert any(
                (fa <= pa).all() and (fa < pa).any() for fa in front_arrays
            )


class SingleStateEnv:
    """Toy episode generator: scale_up removes all latency excess, anything
    else leaves it; the state never changes. Its objectives are attributes,
    as `RecoveryEnv` keeps them."""

    resource = healthy_resource = 0.5
    healthy_latency = 20.0

    def __init__(self, excess=80.0, ticks=6):
        self.action_costs = {a: float(a.value) for a in ACTIONS}
        self.action_costs[RecoveryAction.SCALE_UP] = 5.0
        self.excess = excess
        self.ticks = ticks
        self._tick = 0
        self._cum = 0.0
        self._last = RecoveryAction.NO_OP
        self.first_action = None

    def reset(self, episode_seed):
        self._tick = 0
        self._cum = 0.0
        self._last = RecoveryAction.NO_OP
        return named_state("medium", "cpu", "none")

    @property
    def latency(self):
        return 20.0 if self._last is RecoveryAction.SCALE_UP else 20.0 + self.excess

    @property
    def cost(self):
        return self._cum

    def snapshot(self):
        return ObjectiveVector(self.latency, self.resource, self.cost)

    def baseline_snapshot(self):
        return ObjectiveVector(self.healthy_latency, self.healthy_resource, 0.0)

    def step(self, action):
        if self.first_action is None:
            self.first_action = action
        self._cum += self.action_costs[action]
        self._last = action
        self._tick += 1
        return named_state("medium", "cpu", "none"), self._tick >= self.ticks


class TestTrainAgent:
    def test_dominant_action_learned(self):
        # oracle: exhaustively evaluate all 7 constant policies by mean reward
        norms = (20.0, 0.5, 4.0)

        def constant_policy_return(action):
            env = SingleStateEnv()
            env.reset(0)
            total = 0.0
            done = False
            while not done:
                prev_cost = env.snapshot().cost
                _, done = env.step(action)
                snap = env.snapshot()
                base = env.baseline_snapshot()
                total += reward(
                    (base.latency, base.resource, prev_cost),
                    snap,
                    BALANCED_WEIGHTS,
                    norms,
                )
            return total

        returns = {a: constant_policy_return(a) for a in ACTIONS}
        best = max(returns, key=lambda a: returns[a])
        assert best is RecoveryAction.SCALE_UP

        env = SingleStateEnv()
        result = train_agent(env, BALANCED_WEIGHTS, episodes=150, seed=4,
                             normalizers=norms)
        state = named_state("medium", "cpu", "none")
        assert result.policy.greedy(state) is RecoveryAction.SCALE_UP

    def test_nonpositive_normalizer_rejected_before_any_episode(self):
        class SpyEnv(SingleStateEnv):
            resets = 0

            def reset(self, episode_seed):
                self.resets += 1
                return super().reset(episode_seed)

        env = SpyEnv()
        with pytest.raises(ConfigurationError, match="normalizers"):
            train_agent(env, BALANCED_WEIGHTS, episodes=3, seed=0,
                        normalizers=(1.0, 0.0, 1.0))
        assert env.resets == 0

    def test_epsilon_zero_zero_q_first_action_is_no_op(self):
        env = SingleStateEnv()
        hyper = QHyper(epsilon_start=0.0, epsilon_end=0.0)
        train_agent(env, BALANCED_WEIGHTS, episodes=1, hyper=hyper, seed=0,
                    normalizers=(1.0, 1.0, 1.0))
        assert env.first_action is RecoveryAction.NO_OP

    def test_fixed_seed_bitwise_identical_q(self):
        env = RecoveryEnv(seed=3)
        a = train_agent(env, BALANCED_WEIGHTS, episodes=20, seed=7)
        b = train_agent(env, BALANCED_WEIGHTS, episodes=20, seed=7)
        assert np.array_equal(a.policy.q, b.policy.q)
        assert a.returns == b.returns

    def test_zero_episodes_return_the_zero_table(self):
        result = train_agent(RecoveryEnv(seed=3), BALANCED_WEIGHTS, episodes=0, seed=7)
        assert result.policy.q.shape == (N_STATES, N_ACTIONS)
        assert not result.policy.q.any()
        assert result.returns == []

    def test_negative_episodes_rejected(self):
        with pytest.raises(InputError, match="episodes must be >= 0"):
            train_agent(SingleStateEnv(), BALANCED_WEIGHTS, episodes=-1, seed=0)

    def test_greedy_invariant_under_constant_q_shift(self):
        rng = np.random.default_rng(5)
        policy = Policy(q=rng.normal(size=(N_STATES, 7)))
        shifted = Policy(q=policy.q + 123.456)
        for state in range(N_STATES):
            assert policy.greedy(state) == shifted.greedy(state)


def reference_train(env, weights, episodes, hyper, seed, normalizers):
    """The Q-learning loop as first written, kept as a bitwise reference: a
    numpy Q table, Enum actions, np.argmax/np.max and the array reward."""
    w, n = weights.as_array(), np.array(normalizers)
    q = np.zeros((N_STATES, N_ACTIONS))
    returns = []
    for episode in range(episodes):
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "explore", episode)))
        epsilon = hyper.epsilon_at(episode, episodes)
        s = env.reset(derive_seed(seed, "episode", episode))
        prev_cost = env.snapshot().cost
        total = 0.0
        done = False
        while not done:
            if rng.random() < epsilon:
                action = ACTIONS[int(rng.integers(N_ACTIONS))]
            else:
                action = ACTIONS[int(np.argmax(q[s]))]
            nxt, done = env.step(action)
            actual = env.snapshot()
            baseline = env.baseline_snapshot()
            delta = np.array(actual) - np.array(
                (baseline.latency, baseline.resource, prev_cost))
            r = float(-(w @ (delta / n)))
            target = r if done else r + hyper.gamma * float(np.max(q[nxt]))
            q[s, action.value] += hyper.lr * (target - q[s, action.value])
            s = nxt
            total += r
            prev_cost = actual.cost
        returns.append(total)
    return q, returns


class ReferenceEnv(RecoveryEnv):
    """`RecoveryEnv`'s episodes with the tick as first written, kept as a
    bitwise reference: every reset recomputes the diurnal levels, and every
    tick recomputes the action scaling, calls `_keep_healthy` and `_observe`
    (through `state_index` and `failed_bin`), and is read through two
    ObjectiveVectors. It records the anomaly kind of every episode."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.kinds = []

    def reset(self, episode_seed):
        rng = np.random.Generator(np.random.PCG64(derive_seed(episode_seed, "episode")))
        noise = np.random.Generator(np.random.PCG64(derive_seed(episode_seed, "base-trace")))
        phase = np.sin(2.0 * np.pi * np.arange(self.episode_ticks) / DIURNAL_PERIOD)
        series = np.empty((self.episode_ticks, len(METRICS)))
        for j, metric in enumerate(METRICS):
            series[:, j] = (
                self.pattern.base_rates[metric]
                + self.pattern.diurnal_amplitude[metric] * phase
                + noise.normal(0.0, self.pattern.noise_std[metric], size=self.episode_ticks)
            )
        self._base = clip_metrics(series).tolist()
        self._tick = 0
        self._kind = ANOMALY_STATUSES[1:][int(rng.integers(len(ANOMALY_STATUSES) - 1))]
        self.kinds.append(self._kind)
        self._onset = int(rng.integers(self.onset_range[0], self.onset_range[1] + 1))
        self._active = False
        self._mitigation = 1.0
        self._scale_ups = 0
        self._scale_downs = 0
        self._throttled = False
        self._hiccup = 0.0
        self._failed_fraction = 0.0
        self._cum_cost = 0.0
        self._keep_healthy()
        return self._observe()

    def _keep_healthy(self):
        cpu, memory, latency_ms, _, qps = self._base[self._tick]
        latency_scale = envmod._SCALE_DOWN_LATENCY ** self._scale_downs
        if self._throttled:
            latency_scale *= envmod._THROTTLE_LATENCY
            qps *= envmod._THROTTLE_QPS
        self._latency = latency_ms * latency_scale
        self._resource = 0.5 * (cpu + memory) + (
            envmod._SCALE_UP_RESOURCE * self._scale_ups
            - envmod._SCALE_DOWN_RESOURCE * self._scale_downs
        )
        self._qps = qps

    def _observe(self):
        load = sum(self._qps > cut for cut in self._load_cuts)
        status = ANOMALY_STATUSES.index(self._kind) if self._active else 0
        return state_index(load, status, failed_bin(self._failed_fraction))

    def snapshot(self):
        latency, resource = self._latency, self._resource
        if self._active:
            latency *= 1.0 + (envmod._LATENCY_INFLATION - 1.0) * self._mitigation
            resource += envmod._ANOMALY_RESOURCE_BOOST[self._kind]
        if self._hiccup > 0:
            latency *= envmod._RESTART_HICCUP
        return ObjectiveVector(latency, float(np.clip(resource, 0.0, 1.0)), self._cum_cost)

    def baseline_snapshot(self):
        return ObjectiveVector(self._latency, float(np.clip(self._resource, 0.0, 1.0)), 0.0)

    def step(self, action):
        if self._tick >= self.episode_ticks - 1:
            raise InputError("episode finished; call reset() to start another")
        self._cum_cost += self.action_costs[action]
        self._hiccup = max(0.0, self._hiccup - 1.0)
        if action is RecoveryAction.SCALE_UP:
            self._scale_ups = min(envmod._MAX_SCALE_UPS, self._scale_ups + 1)
        elif action is RecoveryAction.SCALE_DOWN:
            self._scale_downs = min(envmod._MAX_SCALE_DOWNS, self._scale_downs + 1)
        elif action is RecoveryAction.THROTTLE_ADMISSION:
            self._throttled = True
        if action is RecoveryAction.RESTART_COMPONENT:
            self._hiccup = 1.0
        if self._active:
            if action in envmod.CLEARING_ACTIONS[self._kind]:
                self._active = False
                self._failed_fraction = 0.0
            elif action in envmod.MITIGATING_ACTIONS[self._kind]:
                self._mitigation *= 0.5
        self._tick += 1
        if not self._active and self._tick == self._onset:
            self._active = True
            self._mitigation = 1.0
        if self._active and self._kind == "cascade":
            self._failed_fraction = min(envmod._CASCADE_CAP,
                                        self._failed_fraction + envmod._CASCADE_GROWTH)
        self._keep_healthy()
        return self._observe(), self._tick >= self.episode_ticks - 1


def reference_reward(prev, nxt, weights, normalizers):
    """The reward as first written: the increments as a new 3-element array."""
    n0, n1, n2 = normalizers
    x = np.array([(nxt[0] - prev[0]) / n0, (nxt[1] - prev[1]) / n1, (nxt[2] - prev[2]) / n2])
    return float(-(weights.as_array() @ x))


def reference_rollout(env, choose, episode_seed):
    """`rollout` as first written: one ObjectiveVector read per tick."""
    state = env.reset(episode_seed)
    snaps, tick, done = [env.snapshot()], 0, False
    while not done:
        state, done = env.step(choose(state, tick))
        snaps.append(env.snapshot())
        tick += 1
    return ObjectiveVector(float(np.array([v.latency for v in snaps]).mean()),
                           float(np.array([v.resource for v in snaps]).mean()),
                           float(snaps[-1].cost))


def reference_normalizers(env, seed):
    """`train_agent`'s default normalizers, from ten reference rollouts."""
    seed = derive_seed(seed, "norms")
    totals = np.zeros(3)
    for e in range(10):
        vec = reference_rollout(env, random_policy(derive_seed(seed, "warmup-pi", e)),
                                derive_seed(seed, "warmup", e))
        totals += np.abs(np.array(vec))
    latency, resource, _ = (float(max(m, 1e-9)) for m in totals / 10)
    return latency, resource, max(float(np.mean(list(env.action_costs.values()))), 1e-9)


def reference_train_agent(env, weights, episodes, hyper, seed):
    """`train_agent`'s loop as first written over tuples: (Q, returns,
    normalizers)."""
    normalizers = reference_normalizers(env, seed)
    q = [[0.0] * N_ACTIONS for _ in range(N_STATES)]
    returns = []
    for episode in range(episodes):
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "explore", episode)))
        epsilon = hyper.epsilon_at(episode, episodes)
        s = env.reset(derive_seed(seed, "episode", episode))
        prev_cost = env.snapshot().cost
        total, done = 0.0, False
        while not done:
            row = q[s]
            if rng.random() < epsilon:
                a = int(rng.integers(N_ACTIONS))
            else:
                a = row.index(max(row))
            nxt, done = env.step(ACTIONS[a])
            actual, baseline = env.snapshot(), env.baseline_snapshot()
            r = reference_reward((baseline.latency, baseline.resource, prev_cost), actual,
                                 weights, normalizers)
            target = r if done else r + hyper.gamma * max(q[nxt])
            row[a] += hyper.lr * (target - row[a])
            s, total, prev_cost = nxt, total + r, actual.cost
        returns.append(total)
    return np.array(q), returns, normalizers


def _tick_cases():
    """(env kwargs, weights, hyper, seed): seeds, episode lengths from the
    shortest a config allows to the default, the desk sweep's weight vectors
    and random ones, default and overridden action costs, and exploration
    pinned to always or never."""
    rng = np.random.default_rng(2024)
    cases = []
    for k in range(24):
        costs = None
        if k % 3 == 1:
            costs = {ACTIONS[int(i)]: float(c) for i, c in zip(
                rng.choice(N_ACTIONS, size=3, replace=False), rng.uniform(0.0, 12.0, 3))}
        elif k % 3 == 2:
            costs = dict.fromkeys(ACTIONS, 0.0)  # a free action on every tick
        weights = (DESK_SWEEP_GRID[k % 4] if k < 8
                   else RewardWeights.normalized(*rng.uniform(0.0, 1.0, 3)))
        epsilon = (0.3, 1.0, 0.0)[k % 3] if k >= 12 else None
        hyper = QHyper() if epsilon is None else QHyper(epsilon_start=epsilon,
                                                        epsilon_end=epsilon)
        env = {"episode_ticks": (40, 13, 25)[k % 3], "action_costs": costs, "seed": k}
        cases.append((env, weights, hyper, int(rng.integers(2**32))))
    return cases


class TestReferenceTick:
    EPISODES = 40

    @pytest.mark.parametrize("case", range(24))
    def test_training_equals_the_reference_bitwise(self, case):
        env_kwargs, weights, hyper, seed = _tick_cases()[case]
        result = train_agent(RecoveryEnv(**env_kwargs), weights, self.EPISODES,
                             hyper=hyper, seed=seed)
        reference = ReferenceEnv(**env_kwargs)
        q, returns, normalizers = reference_train_agent(reference, weights, self.EPISODES,
                                                        hyper, seed)
        assert result.policy.q.tobytes() == q.tobytes()
        assert np.array(result.returns).tobytes() == np.array(returns).tobytes()
        assert np.array(result.normalizers).tobytes() == np.array(normalizers).tobytes()
        assert "cascade" in reference.kinds and np.count_nonzero(q) > 0

    @pytest.mark.parametrize("case", range(0, 24, 5))
    def test_rollouts_equal_the_reference_bitwise(self, case):
        env_kwargs, weights, hyper, seed = _tick_cases()[case]
        env, reference = RecoveryEnv(**env_kwargs), ReferenceEnv(**env_kwargs)
        policy = train_agent(env, weights, self.EPISODES, hyper=hyper, seed=seed).policy
        for e in range(30):
            for choose in (policy.choose, random_policy(e), no_op_policy):
                assert (np.array(rollout(env, choose, e)).tobytes()
                        == np.array(reference_rollout(reference, choose, e)).tobytes())
        assert set(reference.kinds) == set(ANOMALY_STATUSES[1:])


class TestTrainingOracle:
    EPISODES = 25

    def _check(self, env, weights, seed, hyper=None, normalizers=None):
        hyper = hyper or QHyper()
        result = train_agent(env, weights, self.EPISODES, hyper=hyper, seed=seed,
                             normalizers=normalizers)
        q, returns = reference_train(env, weights, self.EPISODES, hyper, seed,
                                     result.normalizers)
        assert np.array_equal(result.policy.q, q)
        assert result.returns == returns
        assert np.count_nonzero(q) > 0

    @pytest.mark.parametrize("seed", [0, 7, 20260811])
    @pytest.mark.parametrize("g", range(len(DESK_SWEEP_GRID)))
    def test_desk_sweep_weights(self, seed, g):
        self._check(RecoveryEnv(seed=3), DESK_SWEEP_GRID[g], seed)

    def test_non_default_action_costs(self):
        env = RecoveryEnv(action_costs={RecoveryAction.SCALE_UP: 0.5,
                                        RecoveryAction.RESTART_COMPONENT: 20.0,
                                        RecoveryAction.NO_OP: 0.25}, seed=5)
        self._check(env, BALANCED_WEIGHTS, seed=11)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0])
    def test_epsilon_pinned(self, epsilon):
        # 0: every action greedy; 1: every action drawn at random
        hyper = QHyper(epsilon_start=epsilon, epsilon_end=epsilon)
        self._check(RecoveryEnv(seed=4), RewardWeights(0.6, 0.2, 0.2), seed=2,
                    hyper=hyper, normalizers=(30.0, 0.4, 3.0))

    def test_rollout_matches_a_reference(self):
        env = RecoveryEnv(action_costs={RecoveryAction.REBUILD_INDEX: 0.3}, seed=6)
        for e in range(5):
            choose = random_policy(e)
            state, done, tick = env.reset(e), False, 0
            snaps, costs = [env.snapshot()], []
            while not done:
                action = choose(state, tick)
                costs.append(env.action_costs[action])
                state, done = env.step(action)
                snaps.append(env.snapshot())
                tick += 1
            assert rollout(env, choose, episode_seed=e) == ObjectiveVector(
                float(np.array([v.latency for v in snaps]).mean()),
                float(np.array([v.resource for v in snaps]).mean()),
                float(sum(costs)),
            )


class TestEnv:
    def test_rollout_deterministic(self):
        env = RecoveryEnv(seed=1)
        a = rollout(env, no_op_policy, episode_seed=5)
        b = rollout(env, no_op_policy, episode_seed=5)
        assert a == b

    def test_anomaly_inflates_latency_when_ignored(self):
        env = RecoveryEnv(seed=2)
        env.reset(9)
        latencies, done = [env.snapshot().latency], False
        while not done:
            _, done = env.step(RecoveryAction.NO_OP)
            latencies.append(env.snapshot().latency)
        healthy = np.mean(latencies[:4])
        assert max(latencies) > 2.0 * healthy

    def test_state_index_reads_the_active_anomaly(self):
        env = RecoveryEnv(seed=2)
        state, done, seen = env.reset(9), False, set()
        while not done:
            kind = env.true_anomaly_kind()
            _, anomaly, _ = state_positions(state)
            assert ANOMALY_STATUSES[anomaly] == (kind or "none")
            seen.add(anomaly)
            state, done = env.step(RecoveryAction.NO_OP)
        assert len(seen) == 2

    def test_step_before_reset_rejected(self):
        env = RecoveryEnv(seed=2)
        with pytest.raises(InputError):
            env.step(RecoveryAction.NO_OP)
        for read in (env.snapshot, env.baseline_snapshot, env.current_metrics,
                     env.true_anomaly_kind, env.episode_anomaly):
            with pytest.raises(InputError, match="reset"):
                read()
        env = RecoveryEnv(episode_ticks=3, onset_range=(1, 2), seed=2)
        env.reset(0)
        assert not env.step(RecoveryAction.NO_OP)[1]
        assert env.step(RecoveryAction.NO_OP)[1]
        with pytest.raises(InputError, match="episode finished"):
            env.step(RecoveryAction.NO_OP)

    def test_repeated_reads_agree(self):
        env = RecoveryEnv(seed=2)
        env.reset(9)
        for tick in range(env.episode_ticks - 1):
            for read in (env.snapshot, env.baseline_snapshot, env.current_metrics):
                assert read() == read()
            env.step(ACTIONS[tick % N_ACTIONS])

    def test_reads_follow_the_healthy_trace(self):
        # before the onset, under no-ops, every read is the tick's healthy row
        env = RecoveryEnv(seed=2)
        env.reset(9)
        trace = healthy_series(
            env.pattern, np.random.Generator(np.random.PCG64(derive_seed(9, "base-trace"))),
            env.episode_ticks,
        )
        for tick in range(env.episode_anomaly()[1]):
            assert env.current_metrics() == trace[tick].tolist()
            assert env.baseline_snapshot().latency == trace[tick, METRICS.index("latency_ms")]
            env.step(RecoveryAction.NO_OP)

    def test_observed_anomaly_matches_the_simulator_signature(self):
        # env kind i is simulator kind i: while the anomaly is active and no
        # action touches it, exactly that kind's AFFECTED_METRICS go up
        env, seen = RecoveryEnv(seed=2), set()
        for episode_seed in range(100):
            env.reset(episode_seed)
            kind, onset = env.episode_anomaly()
            if kind in seen:
                continue
            seen.add(kind)
            affected = AFFECTED_METRICS[ANOMALY_KINDS[ANOMALY_STATUSES.index(kind) - 1]]
            trace = healthy_series(env.pattern, np.random.Generator(
                np.random.PCG64(derive_seed(episode_seed, "base-trace"))), env.episode_ticks)
            for tick in range(env.episode_ticks):
                row = env.current_metrics()
                raised = {m for m, v, h in zip(METRICS, row, trace[tick]) if v != h}
                assert raised == (set(affected) if tick >= onset else set())
                assert all(v >= h for v, h in zip(row, trace[tick]))
                if tick < env.episode_ticks - 1:
                    env.step(RecoveryAction.NO_OP)
        assert seen == set(ANOMALY_STATUSES[1:])

    def test_extra_reads_change_no_tick(self):
        # one episode seed per anomaly kind, each played with every action
        # cycle offset, so every action meets every kind
        finder, seeds = RecoveryEnv(seed=2), {}
        for episode_seed in range(100):
            finder.reset(episode_seed)
            seeds.setdefault(finder.episode_anomaly()[0], episode_seed)
        assert sorted(seeds) == sorted(ANOMALY_STATUSES[1:])
        rng = np.random.default_rng(0)
        for episode_seed in seeds.values():
            for offset in range(N_ACTIONS):
                quiet, busy = RecoveryEnv(seed=2), RecoveryEnv(seed=2)
                assert quiet.reset(episode_seed) == busy.reset(episode_seed)
                done, tick = False, 0
                while not done:
                    for _ in range(int(rng.integers(4))):
                        busy.snapshot(), busy.baseline_snapshot(), busy.current_metrics()
                        busy.true_anomaly_kind()
                    for read in ("snapshot", "baseline_snapshot", "current_metrics",
                                 "true_anomaly_kind"):
                        assert getattr(quiet, read)() == getattr(busy, read)()
                    action = ACTIONS[(tick + offset) % N_ACTIONS]
                    step = quiet.step(action)
                    assert step == busy.step(action)
                    done, tick = step[1], tick + 1

    def test_percentile_rule_equals_np_percentile_bitwise(self):
        # one-element series, ties (few distinct values), long series, and q
        # whose position has a fraction at or above 0.5. numpy orders 0.0
        # and -0.0 arbitrarily, so the values hold no zero.
        from selfheal.recovery.env import _percentile

        def plain(ascending, q):  # a + (b - a) * t, which rounds differently
            pos = (len(ascending) - 1) * (q / 100.0)
            i = min(int(pos), len(ascending) - 1)
            b = ascending[min(i + 1, len(ascending) - 1)]
            return ascending[i] + (b - ascending[i]) * (pos - i)

        rng = np.random.default_rng(23)
        ours = theirs = upper = 0
        for k in range(4000):
            n = 1 if k < 50 else int(rng.integers(1, 800))
            if k % 3 == 0:
                x = rng.integers(1, 6, n).astype(float)
            elif k % 3 == 1:
                x = rng.normal(300.0, 60.0, n)
            else:
                x = rng.uniform(0.5, 1.0, n) * 10.0 ** rng.integers(-30, 30)
            ascending = np.sort(x).tolist()
            for q in (33.0, 66.0, 50.0, 100.0, float(rng.uniform(0.0, 100.0))):
                expected = np.percentile(x, q).tobytes()
                ours += np.float64(_percentile(ascending, q)).tobytes() != expected
                theirs += np.float64(plain(ascending, q)).tobytes() != expected
                pos = (n - 1) * (q / 100.0)
                upper += pos % 1.0 >= 0.5
        assert ours == 0
        assert theirs > 0  # the test tells the two rules apart
        assert upper > 1000

    @pytest.mark.parametrize("cost", [-1.0, float("nan"), float("inf")])
    def test_bad_action_cost_rejected_at_construction(self, cost):
        with pytest.raises(InputError, match="NO_OP"):
            RecoveryEnv(action_costs={RecoveryAction.NO_OP: cost}, seed=2)


class TestRandomPolicy:
    def test_draws_once_per_pair_as_a_fresh_generator_would(self, monkeypatch):
        pairs = [(state, tick) for state in (0, 1, 7, N_STATES - 1) for tick in range(12)]
        expected = {
            (state, tick): ACTIONS[int(np.random.Generator(np.random.PCG64(
                derive_seed(5, state, tick))).integers(N_ACTIONS))]
            for state, tick in pairs
        }
        built, pcg64 = [], np.random.PCG64
        monkeypatch.setattr(np.random, "PCG64",
                            lambda seed: built.append(seed) or pcg64(seed))
        choose = random_policy(5)
        for _ in range(3):
            assert {pair: choose(*pair) for pair in pairs} == expected
        assert len(built) == len(pairs)


class TestPolicyIo:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        policy = Policy(q=rng.normal(size=(N_STATES, 7)))
        path = tmp_path / "policy.tsv"
        save_policy(policy, path)
        loaded = load_policy(path)
        assert np.array_equal(loaded.q, policy.q)

    def test_incomplete_table_rejected(self, tmp_path):
        path = tmp_path / "partial.tsv"
        path.write_text("state\taction\tq\n0\tNO_OP\t1.0\n")
        with pytest.raises(Exception):
            load_policy(path)

    @pytest.mark.parametrize(
        "line_no, row, reason",
        [
            (2, "72\tNO_OP\t0.0", "state 72 outside"),
            (2, "-1\tNO_OP\t0.0", "state -1 outside"),
            (2, "0\tEXPLODE\t0.0", "unknown action 'EXPLODE'"),
            (2, "zero\tNO_OP\t0.0", "non-numeric state or q"),
            (2, "0\tNO_OP\tbig", "non-numeric state or q"),
            (2, "0\tNO_OP\tnan", "non-finite q"),
            (3, "0\tNO_OP\t0.5", "repeats state 0 action NO_OP"),
        ],
    )
    def test_malformed_row_names_path_and_line(self, tmp_path, line_no, row, reason):
        path = tmp_path / "policy.tsv"
        save_policy(Policy(q=np.zeros((N_STATES, 7))), path)
        lines = path.read_text().splitlines()
        lines[line_no - 1] = row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=re.escape(f"{path}: line {line_no} ")) as err:
            load_policy(path)
        assert reason in str(err.value)


class TestWeightSweep:
    def test_single_grid_point_front_is_itself(self):
        env = RecoveryEnv(seed=4)
        result = weight_sweep(env, [BALANCED_WEIGHTS], episodes=5, seed=1,
                              eval_episodes=2)
        assert len(result.entries) == 1
        assert result.front == result.entries

    def test_simplex_grid_front_matches_brute_force_oracle(self):
        env = RecoveryEnv(seed=8)
        grid = [
            RewardWeights.normalized(1, 0, 0),
            RewardWeights.normalized(0, 1, 0),
            RewardWeights.normalized(0, 0, 1),
            RewardWeights.normalized(1, 1, 1),
            RewardWeights.normalized(2, 1, 1),
        ]
        result = weight_sweep(env, grid, episodes=15, seed=3, eval_episodes=3)
        oracle = brute_force_front([e.objectives for e in result.entries])
        assert [e.objectives for e in result.front] == oracle

    def test_duplicate_objectives_all_on_front(self):
        # a constant environment: objectives are weight-independent
        class FixedEnv(SingleStateEnv):
            latency = 20.0

        grid = [
            RewardWeights(0.6, 0.2, 0.2),
            RewardWeights(0.2, 0.6, 0.2),
        ]
        env = FixedEnv()
        result = weight_sweep(env, grid, episodes=3, seed=2, eval_episodes=2)
        assert len(result.front) == 2

    def test_front_comes_from_one_pareto_front_call(self, monkeypatch):
        calls = []

        def spy(points):
            calls.append(list(points))
            return pareto_front(points)

        monkeypatch.setattr(pareto, "pareto_front", spy)
        result = weight_sweep(SingleStateEnv(), DESK_SWEEP_GRID[:3], episodes=3, seed=2,
                              eval_episodes=2)
        assert calls == [[e.objectives for e in result.entries]]

    def test_entries_with_equal_objectives_share_their_front_status(self, monkeypatch):
        # per grid point: dominated by the third, its equal, the dominating
        # point, an incomparable point and its equal
        means = iter([ObjectiveVector(2.0, 2.0, 2.0), ObjectiveVector(2.0, 2.0, 2.0),
                      ObjectiveVector(1.0, 1.0, 1.0), ObjectiveVector(0.5, 3.0, 1.0),
                      ObjectiveVector(0.5, 3.0, 1.0)])
        monkeypatch.setattr(pareto, "evaluate_policy", lambda *args: next(means))
        grid = [RewardWeights.normalized(1, i, 1) for i in range(5)]
        result = weight_sweep(SingleStateEnv(), grid, episodes=1, seed=2, eval_episodes=1)
        assert [result.entries.index(e) for e in result.front] == [2, 3, 4]
