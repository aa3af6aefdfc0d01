"""Seeded episode generator the recovery agent trains against.

Each episode overlays one anomaly on a healthy workload trace. While the
anomaly is active it inflates latency (and resource usage); recovery actions
either clear it, mitigate it, or waste their cost, with effects depending on
the anomaly kind. The per-tick training reward compares the actual snapshot
against the healthy-baseline counterfactual, so enduring an anomaly and
over-acting are both penalized.

Load-level thresholds come from the 33rd/66th qps percentiles of a reference
trace of the same pattern.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from ..errors import InputError
from ..seeding import derive_seed
from ..simulator import (
    AFFECTED_METRICS, ANOMALY_KINDS, METRICS, default_patterns, healthy_series,
)
from ..simulator.telemetry import clip_metrics, diurnal_levels
from .objectives import ObjectiveVector
from .states import (
    ACTIONS,
    ANOMALY_STATUSES,
    DEFAULT_ACTION_COSTS,
    FAILED_BINS,
    RecoveryAction,
    failed_bin,
)

# Actions that fully clear an active anomaly, per kind.
CLEARING_ACTIONS = {
    "cpu": {RecoveryAction.SCALE_UP, RecoveryAction.RESTART_COMPONENT},
    "memory": {RecoveryAction.RESTART_COMPONENT},
    "lock": {RecoveryAction.REROUTE_QUERY, RecoveryAction.RESTART_COMPONENT},
    "io": {RecoveryAction.REBUILD_INDEX, RecoveryAction.RESTART_COMPONENT},
    "cascade": {RecoveryAction.RESTART_COMPONENT},
}

# Actions that halve the remaining latency excess while the anomaly persists.
MITIGATING_ACTIONS = {
    "cpu": {RecoveryAction.THROTTLE_ADMISSION},
    "memory": {RecoveryAction.SCALE_UP},
    "lock": {RecoveryAction.THROTTLE_ADMISSION},
    "io": {RecoveryAction.REROUTE_QUERY},
    "cascade": {RecoveryAction.REROUTE_QUERY},
}

# the same sets as action codes (`RecoveryAction.value`), which step() tests
_CLEARING_CODES = {k: frozenset(a.value for a in v) for k, v in CLEARING_ACTIONS.items()}
_MITIGATING_CODES = {k: frozenset(a.value for a in v) for k, v in MITIGATING_ACTIONS.items()}
_SCALE_UP = RecoveryAction.SCALE_UP.value
_SCALE_DOWN = RecoveryAction.SCALE_DOWN.value
_RESTART = RecoveryAction.RESTART_COMPONENT.value
_THROTTLE = RecoveryAction.THROTTLE_ADMISSION.value

_ANOMALY_KINDS = ANOMALY_STATUSES[1:]
_N_STATUSES, _N_FAILED_BINS = len(ANOMALY_STATUSES), len(FAILED_BINS)

# the first and last tick an episode's anomaly may start at, so an episode
# needs more ticks than ONSET_RANGE[1]
ONSET_RANGE = (5, 12)

_LATENCY_INFLATION = 3.0
_ANOMALY_RESOURCE_BOOST = {"cpu": 0.3, "memory": 0.3, "lock": 0.1, "io": 0.15, "cascade": 0.2}
_RESTART_HICCUP = 1.8  # one-tick latency multiplier after a restart
_SCALE_UP_RESOURCE = 0.08
_MAX_SCALE_UPS = 3
_SCALE_DOWN_RESOURCE = 0.06
_SCALE_DOWN_LATENCY = 1.08
_MAX_SCALE_DOWNS = 2
_THROTTLE_LATENCY = 0.92  # while throttled; throttling again has no extra effect
_THROTTLE_QPS = 0.75
_CASCADE_GROWTH = 0.08
_CASCADE_CAP = 0.6

# How an active anomaly shows up in sampled telemetry: the columns the trace
# simulator's injected anomaly of the same position in ANOMALY_KINDS inflates.
_OBSERVED_COLUMNS = {
    kind: [METRICS.index(m) for m in AFFECTED_METRICS[sim_kind]]
    for kind, sim_kind in zip(_ANOMALY_KINDS, ANOMALY_KINDS, strict=True)
}
_OBSERVED_INFLATION = 2.8


class RecoveryEnv:
    """Deterministic anomaly-and-recovery episodes over a workload pattern.

    `reset` and `step` compute the tick's objectives once and keep them as
    plain attributes, which a training loop reads without a call:
    `latency`, `resource` and the cumulative `cost` are `snapshot()`'s,
    `healthy_latency` and `healthy_resource` are `baseline_snapshot()`'s.
    """

    def __init__(
        self,
        episode_ticks: int = 40,
        onset_range: tuple[int, int] = ONSET_RANGE,
        action_costs: dict[RecoveryAction, float] | None = None,
        seed: int = 0,
    ):
        if episode_ticks < 2:
            raise InputError("episodes need at least 2 ticks")
        if not 1 <= onset_range[0] <= onset_range[1] < episode_ticks:
            raise InputError(
                f"onset range {onset_range} must lie within [1, {episode_ticks})"
            )
        # only the pattern's healthy series is used
        self.pattern = default_patterns(1, seed=derive_seed(seed, "env-pattern"))[0]
        self.episode_ticks = episode_ticks
        self.onset_range = onset_range
        self.action_costs = dict(DEFAULT_ACTION_COSTS)
        if action_costs:
            self.action_costs.update(action_costs)
        for action, cost in self.action_costs.items():
            # the only way a snapshot's objectives could go negative
            if not 0.0 <= cost < math.inf:
                raise InputError(f"action cost for {action.name} must be finite "
                                 f"and >= 0, got {cost}")
        self._costs = tuple(self.action_costs[a] for a in ACTIONS)  # by action code
        qps = np.sort(healthy_series(
            self.pattern, _rng(derive_seed(seed, "load-reference")), 600
        )[:, METRICS.index("qps")]).tolist()
        self._load_cuts = (_percentile(qps, 33.0), _percentile(qps, 66.0))
        # every episode's noise-free levels: the same ticks of the same pattern
        self._levels = diurnal_levels(self.pattern, episode_ticks)
        self._base = None  # the episode's healthy metric rows; set by reset()
        self._tick = self._last_tick = episode_ticks - 1  # step() waits for reset()

    # -- episode state ---------------------------------------------------

    def reset(self, episode_seed: int) -> int:
        """Start the episode `episode_seed`; returns the first state index."""
        rng = _rng(derive_seed(episode_seed, "episode"))
        # Python floats, so the per-tick arithmetic stays on scalars
        self._base = healthy_series(
            self.pattern, _rng(derive_seed(episode_seed, "base-trace")), self.episode_ticks,
            self._levels,
        ).tolist()
        self._tick = 0
        self._kind = _ANOMALY_KINDS[int(rng.integers(len(_ANOMALY_KINDS)))]
        self._status = ANOMALY_STATUSES.index(self._kind)
        self._clearing = _CLEARING_CODES[self._kind]
        self._mitigating = _MITIGATING_CODES[self._kind]
        self._onset = int(rng.integers(self.onset_range[0], self.onset_range[1] + 1))
        self._active = False
        self._mitigation = 1.0  # scales the latency excess while active
        self._scale_ups = 0
        self._scale_downs = 0
        self._throttled = False
        self._rescale()
        self._restarted = False  # the last action restarted the component
        self._failed_fraction = 0.0
        self._failed_bin = 0
        self.cost = 0.0
        return self._settle()

    def _require_episode(self) -> None:
        if self._base is None:
            raise InputError("call reset() before stepping the environment")

    def _settle(self) -> int:
        """Compute the current tick's values once, after reset() and each
        step(): its base metric row (METRICS order), its qps and healthy
        latency under the actions taken so far, and the attributes behind
        `snapshot` and `baseline_snapshot`. Returns the tick's state index."""
        cpu, memory, latency, _, qps = row = self._base[self._tick]
        self._row, self._qps = row, qps * self._qps_scale
        self.healthy_latency = latency = latency * self._latency_scale
        resource = 0.5 * (cpu + memory) + self._resource_shift
        self.healthy_resource = _unit_clip(resource)
        status = 0  # ANOMALY_STATUSES[0] is "none"
        if self._active:
            status = self._status
            latency *= 1.0 + (_LATENCY_INFLATION - 1.0) * self._mitigation
            resource += _ANOMALY_RESOURCE_BOOST[self._kind]
        if self._restarted:
            latency *= _RESTART_HICCUP
        self.latency, self.resource = latency, _unit_clip(resource)
        # state_index(load, status, failed bin), where the load level is qps
        # at or below the 33rd, the 66th, or above both cuts
        load = bisect_left(self._load_cuts, self._qps)
        return (load * _N_STATUSES + status) * _N_FAILED_BINS + self._failed_bin

    def _rescale(self) -> None:
        """The factors and shift that the scaling and throttling actions taken
        so far apply to every later tick's healthy values."""
        latency_scale, qps_scale = _SCALE_DOWN_LATENCY ** self._scale_downs, 1.0
        if self._throttled:
            latency_scale *= _THROTTLE_LATENCY
            qps_scale = _THROTTLE_QPS
        self._latency_scale, self._qps_scale = latency_scale, qps_scale
        self._resource_shift = (_SCALE_UP_RESOURCE * self._scale_ups
                                - _SCALE_DOWN_RESOURCE * self._scale_downs)

    def snapshot(self) -> ObjectiveVector:
        """Instantaneous (latency, resource, cumulative cost) at the current tick."""
        self._require_episode()
        return ObjectiveVector(self.latency, self.resource, self.cost)

    def current_metrics(self) -> list[float]:
        """The telemetry row (METRICS order) a monitor would sample right now.

        While an anomaly is active, the metrics matching its kind are inflated
        the same way the trace simulator's injected anomalies inflate them, so
        a detector trained on simulated traces sees in-distribution windows.
        """
        self._require_episode()
        cpu, memory, _, io_ops, _ = self._row
        row = [cpu, memory, self.healthy_latency, io_ops, self._qps]
        if self._active:
            inflation = 1.0 + (_OBSERVED_INFLATION - 1.0) * self._mitigation
            for j in _OBSERVED_COLUMNS[self._kind]:
                row[j] *= inflation
            row = clip_metrics(row).tolist()
        if self._restarted:
            row[2] *= _RESTART_HICCUP  # latency_ms
        return row

    def true_anomaly_kind(self) -> str | None:
        """Ground-truth active anomaly kind, for evaluation harnesses."""
        self._require_episode()
        return self._kind if self._active else None

    def episode_anomaly(self) -> tuple[str, int]:
        """This episode's (anomaly kind, onset tick), active or not."""
        self._require_episode()
        return self._kind, self._onset

    def baseline_snapshot(self) -> ObjectiveVector:
        """The healthy counterfactual at the current tick (no anomaly, no cost)."""
        self._require_episode()
        return ObjectiveVector(self.healthy_latency, self.healthy_resource, 0.0)

    def step(self, action: RecoveryAction) -> tuple[int, bool]:
        """Apply the action, advance one tick; returns (state index, done)."""
        if self._tick >= self._last_tick:
            self._require_episode()
            raise InputError("episode finished; call reset() to start another")
        code = action._value_  # the field behind the `.value` property, without its call
        self.cost += self._costs[code]
        self._restarted = code == _RESTART

        if code == _SCALE_UP:
            self._scale_ups = min(_MAX_SCALE_UPS, self._scale_ups + 1)
            self._rescale()
        elif code == _SCALE_DOWN:
            self._scale_downs = min(_MAX_SCALE_DOWNS, self._scale_downs + 1)
            self._rescale()
        elif code == _THROTTLE:
            self._throttled = True
            self._rescale()

        if self._active:
            if code in self._clearing:
                self._active = False
                self._failed_fraction, self._failed_bin = 0.0, 0
            elif code in self._mitigating:
                self._mitigation *= 0.5

        self._tick += 1
        if not self._active and self._tick == self._onset:
            self._active = True
            self._mitigation = 1.0
        if self._active and self._kind == "cascade":
            self._failed_fraction = min(
                _CASCADE_CAP, self._failed_fraction + _CASCADE_GROWTH
            )
            self._failed_bin = failed_bin(self._failed_fraction)
        return self._settle(), self._tick >= self._last_tick


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _percentile(ascending: list[float], q: float) -> float:
    """`np.percentile(values, q)` from the values sorted ascending, with the
    same bits, but without the `np.unique` call that imports `numpy.ma`.

    numpy's linear rule reads the neighbours a <= b of the position
    (n - 1) * q / 100 and its fraction t, and interpolates from a when t is
    below 0.5 and back from b otherwise, which rounds differently from a
    plain a + (b - a) * t. Past the last value both neighbours are the last.
    """
    last = len(ascending) - 1
    pos = last * (q / 100.0)
    i = math.floor(pos)
    t = pos - i
    a, b = (ascending[i], ascending[i + 1]) if pos < last else (ascending[-1],) * 2
    diff = b - a
    return b - diff * (1.0 - t) if t >= 0.5 else a + diff * t


def _unit_clip(value: float) -> float:
    # same bytes as float(np.clip(value, 0, 1)), without the array round trip
    return 0.0 if value < 0.0 else 1.0 if value > 1.0 else value


def rollout(env: RecoveryEnv, choose, episode_seed: int) -> ObjectiveVector:
    """Run one episode with `choose(state index, tick) -> RecoveryAction`.

    Its objectives are the mean latency and resource over every snapshot,
    the one after reset included, and the last snapshot's cumulative cost:
    the action costs summed in the order they were paid.
    """
    state = env.reset(episode_seed)
    latencies, resources = [env.latency], [env.resource]
    tick = 0
    done = False
    while not done:
        state, done = env.step(choose(state, tick))
        latencies.append(env.latency)
        resources.append(env.resource)
        tick += 1
    return ObjectiveVector(
        latency=float(np.array(latencies).mean()),
        resource=float(np.array(resources).mean()),
        cost=float(env.cost),
    )
