"""Run configuration: defaults, strict parsing, and the provenance hash.

A run is a pure function of its RunConfig; every key has a default and
unknown keys are rejected by path so typos cannot silently change a run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from ..errors import ConfigurationError
from ..files import read_json


def _check_int(key: str, value, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigurationError(
            f"'{key}' must be an integer >= {minimum}, got {value!r}"
        )


def _check_number(key: str, value, minimum: float | None = None) -> None:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum:g}"
        raise ConfigurationError(f"'{key}' must be a finite number{bound}, got {value!r}")


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
        _check_int(key, value, 0)
    elif isinstance(default, float):
        _check_number(key, value)
    elif not isinstance(value, type(default)):
        raise ConfigurationError(f"'{key}' must be a {type(default).__name__}, "
                                 f"got {value!r}")


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
        _check_int("simulator.window_width", self.window_width, 1)


@dataclass(frozen=True)
class DetectorSection:
    inner_lr: float = 0.5
    meta_lr: float = 0.1
    inner_steps: int = 2
    meta_batch: int = 6
    meta_iterations: int = 2500
    meta_mode: str = "first_order"
    threshold: float = 0.5
    hidden_widths: tuple[int, ...] = (32, 16)
    eval_inner_steps: int = 5
    adapt_max_steps: int = 25

    def __post_init__(self):
        # the floor `load_checkpoint` enforces, so a trained detector loads back
        for i, width in enumerate(self.hidden_widths):
            _check_int(f"detector.hidden_widths.{i}", width, 1)


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
        _check_int("gnn.label_horizon", self.label_horizon, 0)
        for i, width in enumerate(self.hidden_widths):
            _check_int(f"gnn.hidden_widths.{i}", width, 1)


@dataclass(frozen=True)
class AgentSection:
    episodes: int = 900
    gamma: float = 0.95
    lr: float = 0.1
    epsilon_start: float = 0.3
    epsilon_end: float = 0.01
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
        for pair in self.action_costs:
            if not isinstance(pair, tuple) or len(pair) != 2:
                raise ConfigurationError(
                    f"'agent.action_costs' must map action names to costs, got {pair!r}"
                )
            # the range RecoveryEnv enforces: a negative cost is the only way to
            # a negative objective, and a non-finite one poisons every reward
            _check_number(f"agent.action_costs.{pair[0]}", pair[1], 0.0)


@dataclass(frozen=True)
class EvalSection:
    recovery_episodes: int = 16
    tick_seconds: float = 1.0
    background_rows: int = 16
    closed_loop_episodes: int = 3


_SECTION_TYPES = {
    "simulator": SimulatorSection,
    "detector": DetectorSection,
    "gnn": GnnSection,
    "agent": AgentSection,
    "eval": EvalSection,
}


@dataclass(frozen=True)
class RunConfig:
    seed: int = 20260811
    output_dir: str = "out"
    simulator: SimulatorSection = field(default_factory=SimulatorSection)
    detector: DetectorSection = field(default_factory=DetectorSection)
    gnn: GnnSection = field(default_factory=GnnSection)
    agent: AgentSection = field(default_factory=AgentSection)
    eval: EvalSection = field(default_factory=EvalSection)

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, seed=seed)

    def with_output_dir(self, output_dir: str) -> "RunConfig":
        return replace(self, output_dir=output_dir)

    def to_dict(self) -> dict:
        return asdict(self)

    def hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _coerce(section_type, raw: dict, path: str):
    known = {f.name: f for f in fields(section_type)}
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ConfigurationError(f"unknown config keys under '{path}': {unknown}")
    kwargs = {}
    for name, value in raw.items():
        default = getattr(section_type(), name)
        if isinstance(default, tuple):
            if isinstance(value, dict):
                value = tuple(sorted((str(k), v) for k, v in value.items()))
            elif isinstance(value, (list, tuple)):
                value = tuple(
                    tuple(v) if isinstance(v, (list, tuple)) else v for v in value
                )
            else:
                raise ConfigurationError(f"'{path}.{name}' must be a list")
        _check_value(f"{path}.{name}", default, value)
        kwargs[name] = value
    try:
        return section_type(**kwargs)
    except TypeError as err:
        raise ConfigurationError(f"bad values under '{path}': {err}") from None


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a JSON object")
    known = {"seed", "output_dir", *(_SECTION_TYPES)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigurationError(f"unknown top-level config keys: {unknown}")
    kwargs: dict = {}
    if "seed" in raw:
        if not isinstance(raw["seed"], int):
            raise ConfigurationError("'seed' must be an integer")
        kwargs["seed"] = raw["seed"]
    if "output_dir" in raw:
        kwargs["output_dir"] = str(raw["output_dir"])
    for name, section_type in _SECTION_TYPES.items():
        if name in raw:
            if not isinstance(raw[name], dict):
                raise ConfigurationError(f"'{name}' must be an object")
            kwargs[name] = _coerce(section_type, raw[name], name)
    return RunConfig(**kwargs)


def resolve_action_costs(agent: AgentSection):
    """The agent section's cost overrides as a RecoveryAction-keyed table."""
    from ..recovery import RecoveryAction

    table = {}
    for name, cost in agent.action_costs:
        try:
            action = RecoveryAction[name.upper()]
        except KeyError:
            raise ConfigurationError(
                f"agent.action_costs names unknown action '{name}'"
            ) from None
        _check_number(f"agent.action_costs.{name}", cost, 0.0)
        table[action] = float(cost)
    return table


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    return config_from_dict(read_json(path, ConfigurationError))


def resolved_config_json(cfg: RunConfig) -> str:
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True)
