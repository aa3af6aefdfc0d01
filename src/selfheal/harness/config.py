"""Run configuration: defaults, strict parsing, and the provenance hash.

A run is a pure function of its RunConfig; every key has a default and
unknown keys are rejected by path so typos cannot silently change a run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .. import files
from ..depgraph.gnn import check_flag_threshold
from ..depgraph.metrics import check_tick_seconds
from ..detector import MetaConfig
from ..detector.model import check_threshold
from ..errors import ConfigurationError, InputError
from ..numerics.nets import check_learning_rate
from ..recovery import QHyper, RecoveryAction, RewardWeights
from ..recovery.env import ONSET_RANGE as EPISODE_ONSET_RANGE
from ..simulator.cascade import ONSET_RANGE, check_fail_threshold
from ..simulator.tasks import MIN_SPLIT, check_jitter_std
from ..simulator.telemetry import check_anomaly_rate


def _check_value(key: str, default, value) -> None:
    """`value` must have the type of its field's `default`: an int (not a bool)
    >= 0, a finite number, a string, or a list whose items match the default's
    first item (an empty default leaves its items to the section's own check)."""
    if isinstance(default, tuple):
        if not isinstance(value, tuple):
            raise ConfigurationError(f"'{key}' must be a list")
        for i, item in enumerate(value if default else ()):
            _check_value(f"{key}.{i}", default[0], item)
    elif isinstance(default, int):
        files.integer(value, f"'{key}'", 0, ConfigurationError)
    elif isinstance(default, float):
        files.number(value, f"'{key}'", error=ConfigurationError)
    elif not isinstance(value, type(default)):
        raise ConfigurationError(f"'{key}' must be a {type(default).__name__}, "
                                 f"got {value!r}")


def _owned(key: str, check, *values) -> None:
    """`check(*values)`, the range check of the code that uses the value, so
    that each range has one home; its error names the key."""
    try:
        check(*values)
    except (InputError, ConfigurationError) as err:
        raise ConfigurationError(f"'{key}': {err}") from None


@dataclass(frozen=True)
class SimulatorSection:
    n_train_patterns: int = 12
    n_eval_patterns: int = 10
    anomaly_rate: float = 0.15
    window_width: int = 4
    n_support: int = 12
    n_query: int = 30
    jitter_std: float = 0.01
    mix_count: int = 10
    n_cascades: int = 200
    cascade_nodes: int = 10
    cascade_horizon: int = 18
    fail_threshold: float = 0.5

    def __post_init__(self):
        for name in ("n_train_patterns", "n_eval_patterns", "window_width", "cascade_nodes"):
            files.integer(getattr(self, name), f"'simulator.{name}'", 1, ConfigurationError)
        for name in ("n_support", "n_query"):
            files.integer(getattr(self, name), f"'simulator.{name}'", MIN_SPLIT,
                          ConfigurationError)
        _owned("simulator.anomaly_rate", check_anomaly_rate, self.anomaly_rate)
        _owned("simulator.jitter_std", check_jitter_std, self.jitter_std)
        _owned("simulator.fail_threshold", check_fail_threshold, self.fail_threshold)
        # every cascade's seed node fails at a tick drawn from range(*ONSET_RANGE)
        files.integer(self.cascade_horizon, "'simulator.cascade_horizon'", ONSET_RANGE[1],
                      ConfigurationError)


@dataclass(frozen=True)
class DetectorSection(MetaConfig):
    threshold: float = 0.5
    hidden_widths: tuple[int, ...] = (32, 16)
    eval_inner_steps: int = 5
    adapt_max_steps: int = 25

    def __post_init__(self):
        super().__post_init__()
        _owned("detector.threshold", check_threshold, self.threshold)
        # the floor `load_checkpoint` enforces, so a trained detector loads back
        for i, width in enumerate(self.hidden_widths):
            files.integer(width, f"'detector.hidden_widths.{i}'", 1, ConfigurationError)


@dataclass(frozen=True)
class GnnSection:
    hidden_widths: tuple[int, ...] = (16, 16)
    epochs: int = 300
    lr: float = 0.3
    label_horizon: int = 2
    flag_threshold: float = 0.5
    train_fraction: float = 0.8

    def __post_init__(self):
        # the ranges `load_gnn` enforces, so a trained GNN always loads back
        files.integer(self.label_horizon, "'gnn.label_horizon'", 0, ConfigurationError)
        _owned("gnn.lr", check_learning_rate, self.lr)
        _owned("gnn.flag_threshold", check_flag_threshold, self.flag_threshold)
        for i, width in enumerate(self.hidden_widths):
            files.integer(width, f"'gnn.hidden_widths.{i}'", 1, ConfigurationError)
        # the share of `simulator.n_cascades` that trains; the rest is held out
        if not 0.0 <= files.number(self.train_fraction, "'gnn.train_fraction'",
                                   error=ConfigurationError) <= 1.0:
            raise ConfigurationError(
                f"'gnn.train_fraction' must be in [0, 1], got {self.train_fraction!r}")


@dataclass(frozen=True)
class AgentSection(QHyper):
    episodes: int = 900
    episode_ticks: int = 40
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0)  # normalized at use
    # overrides of the per-invocation action cost table, by action name
    action_costs: tuple[tuple[str, float], ...] = ()
    sweep_grid: tuple[tuple[float, float, float], ...] = (
        (0.6, 0.2, 0.2),
        (0.2, 0.6, 0.2),
        (0.2, 0.2, 0.6),
        (1.0, 1.0, 1.0),
    )
    sweep_episodes: int = 120
    sweep_eval_episodes: int = 8

    def __post_init__(self):
        super().__post_init__()
        if not self.sweep_grid:
            raise ConfigurationError("'agent.sweep_grid' must hold at least one weight vector")
        files.integer(self.sweep_eval_episodes, "'agent.sweep_eval_episodes'", 1,
                      ConfigurationError)
        # a reward weighs exactly three objectives: latency, resource, cost
        vectors = {"agent.weights": self.weights, **{
            f"agent.sweep_grid.{i}": w for i, w in enumerate(self.sweep_grid)}}
        for key, vector in vectors.items():
            if not isinstance(vector, tuple) or len(vector) != 3:
                raise ConfigurationError(
                    f"'{key}' must be three numbers (latency, resource, cost), "
                    f"got {vector!r}")
            _owned(key, RewardWeights.normalized, *vector)
        # each episode's anomaly starts by tick EPISODE_ONSET_RANGE[1]
        files.integer(self.episode_ticks, "'agent.episode_ticks'", EPISODE_ONSET_RANGE[1] + 1,
                      ConfigurationError)
        for pair in self.action_costs:
            if not isinstance(pair, tuple) or len(pair) != 2 or not isinstance(pair[0], str):
                raise ConfigurationError(
                    f"'agent.action_costs' must map action names to costs, got {pair!r}"
                )
        resolve_action_costs(self)  # names and costs, at load rather than in a stage


@dataclass(frozen=True)
class EvalSection:
    recovery_episodes: int = 16
    tick_seconds: float = 1.0
    background_rows: int = 16
    closed_loop_episodes: int = 3

    def __post_init__(self):
        for name in ("recovery_episodes", "background_rows", "closed_loop_episodes"):
            files.integer(getattr(self, name), f"'eval.{name}'", 1, ConfigurationError)
        _owned("eval.tick_seconds", check_tick_seconds, self.tick_seconds)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 20260811
    output_dir: str = "out"
    simulator: SimulatorSection = field(default_factory=SimulatorSection)
    detector: DetectorSection = field(default_factory=DetectorSection)
    gnn: GnnSection = field(default_factory=GnnSection)
    agent: AgentSection = field(default_factory=AgentSection)
    eval: EvalSection = field(default_factory=EvalSection)

    def __post_init__(self):
        # the depgraph stage trains on the first `split` cascades and scores the rest
        n, fraction = self.simulator.n_cascades, self.gnn.train_fraction
        if not 1 <= (split := int(n * fraction)) < n:
            raise ConfigurationError(
                f"'gnn.train_fraction' {fraction!r} of 'simulator.n_cascades' {n} leaves "
                f"{split} training and {n - split} held-out cascades; each side needs one")
        # augment_tasks gives each training pattern a jittered copy, plus the mixes
        sim = self.simulator
        pool = 2 * sim.n_train_patterns + sim.mix_count
        if self.detector.meta_batch > pool:
            raise ConfigurationError(
                f"'detector.meta_batch' {self.detector.meta_batch} exceeds the {pool} "
                f"training tasks (2 * 'simulator.n_train_patterns' {sim.n_train_patterns} "
                f"+ 'simulator.mix_count' {sim.mix_count})")

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, seed=seed)

    def with_output_dir(self, output_dir: str) -> "RunConfig":
        return replace(self, output_dir=output_dir)

    def to_dict(self) -> dict:
        return asdict(self)

    def hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _coerce(section_type, raw, path: str):
    """`raw` as a `section_type` (the root `RunConfig` at path ""): no key
    outside its fields, each value of its default's type, a section given as
    an object; the section's own ranges run in its `__post_init__`, and a
    learner's InputError there becomes a ConfigurationError."""
    files.fields(raw, f"'{path}'" if path else "config", (),
                 [f.name for f in fields(section_type)], ConfigurationError)
    defaults, kwargs = section_type(), {}
    for name, value in raw.items():
        key, default = f"{path}.{name}" if path else name, getattr(defaults, name)
        if is_dataclass(default):
            kwargs[name] = _coerce(type(default), value, key)
            continue
        if isinstance(default, tuple) and isinstance(value, dict):
            value = tuple(sorted((str(k), v) for k, v in value.items()))
        elif isinstance(default, tuple) and isinstance(value, (list, tuple)):
            value = tuple(tuple(v) if isinstance(v, (list, tuple)) else v for v in value)
        _check_value(key, default, value)
        kwargs[name] = value
    try:
        return section_type(**kwargs)
    except InputError as err:  # a range of MetaConfig or QHyper
        raise ConfigurationError(f"'{path}': {err}") from None


def config_from_dict(raw: dict) -> RunConfig:
    return _coerce(RunConfig, raw, "")


def resolve_action_costs(agent: AgentSection):
    """The agent section's cost overrides as a RecoveryAction-keyed table."""
    table = {}
    for name, cost in agent.action_costs:
        try:
            action = RecoveryAction[name.upper()]
        except KeyError:
            raise ConfigurationError(
                f"agent.action_costs names unknown action '{name}'"
            ) from None
        # the range RecoveryEnv enforces: a negative cost is the only way to
        # a negative objective, and a non-finite one poisons every reward
        files.number(cost, f"'agent.action_costs.{name}'", 0.0, ConfigurationError)
        table[action] = float(cost)
    return table


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    return config_from_dict(files.read_json(path, ConfigurationError))


def resolved_config_json(cfg: RunConfig) -> str:
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True)
