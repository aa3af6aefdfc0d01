"""Synthetic database workload telemetry.

A trace holds one row of metrics (cpu, memory, latency, I/O, query rate) per
tick, following a diurnal base pattern with Gaussian noise, plus one anomaly
label per tick. Anomalies are injected as multiplicative bursts over an
interval, which also sets the labels. Everything is a pure function of
(inputs, seed).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import InputError, RowError, SchemaError
from ..files import read_text

METRICS = ("cpu", "memory", "latency_ms", "io_ops", "qps")

# (low, high) clamp bounds per metric; None means unbounded above.
METRIC_BOUNDS = {
    "cpu": (0.0, 1.0),
    "memory": (0.0, 1.0),
    "latency_ms": (0.0, None),
    "io_ops": (0.0, None),
    "qps": (0.0, None),
}

ANOMALY_KINDS = (
    "cpu_spike",
    "memory_leak",
    "lock_contention",
    "io_saturation",
    "cascade_seed",
)

# Metrics an anomaly kind multiplies while active.
AFFECTED_METRICS = {
    "cpu_spike": ("cpu",),
    "memory_leak": ("memory",),
    "lock_contention": ("latency_ms",),
    "io_saturation": ("io_ops", "latency_ms"),
    "cascade_seed": ("latency_ms",),
}

DIURNAL_PERIOD = 288  # ticks per simulated day

# Injected event shape when drawing anomalies from a pattern's rate.
_EVENT_DURATION_RANGE = (3, 6)
_EVENT_MAGNITUDE_RANGE = (2.2, 3.5)
_MEAN_EVENT_DURATION = (_EVENT_DURATION_RANGE[0] + _EVENT_DURATION_RANGE[1]) / 2.0


# METRIC_BOUNDS as arrays in METRICS order; no upper bound reads as inf.
_LOWS = np.array([METRIC_BOUNDS[m][0] for m in METRICS])
_HIGHS = np.array([math.inf if METRIC_BOUNDS[m][1] is None else METRIC_BOUNDS[m][1]
                   for m in METRICS])


def clip_metrics(rows) -> np.ndarray:
    """Metric rows (METRICS order along the last axis) clamped to METRIC_BOUNDS."""
    return np.clip(rows, _LOWS, _HIGHS)


class TelemetryTrace:
    """Per-tick metrics, a (ticks, 5) array in METRICS order, and anomaly
    labels, a (ticks,) array of 0/1.

    Shapes, labels and METRIC_BOUNDS are checked once, here; both arrays are
    read-only copies of the inputs.
    """

    def __init__(self, metrics, labels):
        metrics = np.array(metrics, dtype=np.float64)
        labels = np.array(labels)
        if metrics.ndim != 2 or metrics.shape[1] != len(METRICS) or (
            labels.shape != metrics.shape[:1]
        ):
            raise InputError(
                f"a trace needs (ticks, {len(METRICS)}) metrics and (ticks,) labels, "
                f"got {metrics.shape} and {labels.shape}"
            )
        outside = ~((metrics >= _LOWS) & (metrics <= _HIGHS))
        if outside.any():
            tick, col = np.argwhere(outside)[0]
            low, high = METRIC_BOUNDS[METRICS[col]]
            raise InputError(
                f"tick {tick}: {METRICS[col]}={metrics[tick, col]} outside [{low}, {high}]"
            )
        valid = (labels == 0) | (labels == 1)
        if not valid.all():
            raise InputError(f"labels must be 0 or 1, got {labels[~valid][0]}")
        labels = labels.astype(np.int64)
        metrics.flags.writeable = False
        labels.flags.writeable = False
        self.metrics = metrics
        self.labels = labels


@dataclass(frozen=True)
class WorkloadPattern:
    """Parametric workload: per-metric base rate, diurnal swing, and noise."""

    pattern_id: str
    base_rates: dict[str, float]
    diurnal_amplitude: dict[str, float]
    noise_std: dict[str, float]
    anomaly_rate: float = 0.05

    def __post_init__(self):
        for name, table in (
            ("base_rates", self.base_rates),
            ("diurnal_amplitude", self.diurnal_amplitude),
            ("noise_std", self.noise_std),
        ):
            missing = [m for m in METRICS if m not in table]
            if missing:
                raise InputError(f"{name} missing metrics: {missing}")
        if any(self.noise_std[m] < 0 for m in METRICS):
            raise InputError("noise_std must be >= 0")
        if not 0.0 <= self.anomaly_rate <= 0.5:
            raise InputError(
                f"anomaly_rate must be in [0, 0.5], got {self.anomaly_rate}"
            )


@dataclass(frozen=True)
class AnomalyEvent:
    """A burst that multiplies some metrics over [onset, onset + duration)."""

    kind: str
    onset: int
    duration: int
    magnitude: float
    origin_node: str | None = None

    def __post_init__(self):
        if self.kind not in ANOMALY_KINDS:
            raise InputError(f"unknown anomaly kind '{self.kind}'")
        if self.duration < 1:
            raise InputError(f"duration must be >= 1, got {self.duration}")
        if self.magnitude <= 1.0:
            raise InputError(f"magnitude must be > 1, got {self.magnitude}")
        if self.kind == "cascade_seed" and self.origin_node is None:
            raise InputError("cascade_seed events need an origin_node")


def default_patterns(count: int, seed: int, anomaly_rate: float = 0.05) -> list[WorkloadPattern]:
    """A family of distinct but related workload patterns.

    Base rates and swing vary per pattern so tasks built from them are
    genuinely different classification problems.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    patterns = []
    for i in range(count):
        base = {
            "cpu": float(rng.uniform(0.18, 0.32)),
            "memory": float(rng.uniform(0.3, 0.45)),
            "latency_ms": float(rng.uniform(15.0, 25.0)),
            "io_ops": float(rng.uniform(100.0, 200.0)),
            "qps": float(rng.uniform(150.0, 400.0)),
        }
        amplitude = {m: base[m] * float(rng.uniform(0.05, 0.15)) for m in METRICS}
        noise = {m: base[m] * float(rng.uniform(0.01, 0.03)) for m in METRICS}
        patterns.append(
            WorkloadPattern(
                pattern_id=f"pattern-{i}",
                base_rates=base,
                diurnal_amplitude=amplitude,
                noise_std=noise,
                anomaly_rate=anomaly_rate,
            )
        )
    return patterns


def healthy_series(
    pattern: WorkloadPattern, rng: np.random.Generator, ticks: int
) -> np.ndarray:
    """The pattern's anomaly-free metrics as a (ticks, 5) array, METRICS order.

    Each metric is base + diurnal sinusoid + Gaussian noise, clamped to its
    range; the noise is drawn from `rng` one metric at a time.
    """
    if ticks < 1:
        raise InputError(f"ticks must be >= 1, got {ticks}")
    phase = np.sin(2.0 * math.pi * np.arange(ticks) / DIURNAL_PERIOD)
    series = np.empty((ticks, len(METRICS)))
    for j, metric in enumerate(METRICS):
        series[:, j] = (
            pattern.base_rates[metric]
            + pattern.diurnal_amplitude[metric] * phase
            + rng.normal(0.0, pattern.noise_std[metric], size=ticks)
        )
    return clip_metrics(series)


def generate_trace(
    pattern: WorkloadPattern, seed: int, ticks: int
) -> TelemetryTrace:
    """Simulate `ticks` ticks of the pattern, anomalies included.

    The healthy metrics come from `healthy_series`. Anomaly onsets are
    Bernoulli draws tuned so the expected fraction of anomalous ticks matches
    the pattern's anomaly_rate; each onset becomes an AnomalyEvent realized
    via inject_anomaly.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    trace = TelemetryTrace(healthy_series(pattern, rng, ticks),
                           np.zeros(ticks, dtype=np.int64))

    onset_prob = pattern.anomaly_rate / _MEAN_EVENT_DURATION
    injectable = [k for k in ANOMALY_KINDS if k != "cascade_seed"]
    for tick in range(ticks):
        if rng.random() >= onset_prob:
            continue
        duration = int(rng.integers(_EVENT_DURATION_RANGE[0], _EVENT_DURATION_RANGE[1] + 1))
        duration = min(duration, ticks - tick)
        event = AnomalyEvent(
            kind=injectable[int(rng.integers(len(injectable)))],
            onset=tick,
            duration=duration,
            magnitude=float(rng.uniform(*_EVENT_MAGNITUDE_RANGE)),
        )
        trace = inject_anomaly(trace, event)
    return trace


def inject_anomaly(trace: TelemetryTrace, event: AnomalyEvent) -> TelemetryTrace:
    """Return a copy of the trace with the event applied.

    Affected metrics are multiplied by the event magnitude (then clamped);
    labels over [onset, onset + duration) become 1.
    """
    ticks = len(trace.labels)
    if event.onset < 0 or event.onset + event.duration > ticks:
        raise InputError(
            f"event [{event.onset}, {event.onset + event.duration}) does not fit "
            f"a trace of {ticks} ticks"
        )
    span = slice(event.onset, event.onset + event.duration)
    cols = [METRICS.index(m) for m in AFFECTED_METRICS[event.kind]]
    metrics = trace.metrics.copy()
    labels = trace.labels.copy()
    metrics[span, cols] *= event.magnitude
    metrics[span] = clip_metrics(metrics[span])
    labels[span] = 1
    return TelemetryTrace(metrics, labels)


CSV_COLUMNS = ("tick", "cpu", "memory", "latency_ms", "io_ops", "qps", "label")

_SCHEMA_TARGETS = METRICS + ("label",)


@dataclass
class CsvIngest:
    """Ingestion result: the parsed trace plus the per-metric clamp report."""

    trace: TelemetryTrace
    clamp_counts: dict[str, int]


def ingest_csv(path: str | Path, schema_map: dict[str, str]) -> CsvIngest:
    """Read a UTF-8, comma-separated, headered telemetry file.

    `schema_map` maps column names to metric names (plus "label"); it must
    cover all five metrics and the label. Columns not named in the map are
    ignored; ticks are row order. Out-of-range values are clamped and
    counted; a missing, non-numeric or non-finite cell, or a label other than
    0 or 1, raises `RowError` with the cell's name and line.
    """
    targets = set(schema_map.values())
    missing_targets = [t for t in _SCHEMA_TARGETS if t not in targets]
    if missing_targets:
        raise SchemaError(f"schema map does not cover: {missing_targets}")
    unknown = sorted(targets - set(_SCHEMA_TARGETS))
    if unknown:
        raise SchemaError(f"schema map names unknown metrics: {unknown}")

    path = Path(path)
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{path}: empty file, expected a header row") from None
    header = [h.strip() for h in header]
    missing_cols = [c for c in schema_map if c not in header]
    if missing_cols:
        raise SchemaError(f"{path}: missing columns: {missing_cols}")
    positions = {schema_map[c]: header.index(c) for c in schema_map}

    rows: list[list[float]] = []
    labels: list[float] = []
    for line, row in enumerate(reader, start=2):
        rows.append([_parse_cell(row, positions[m], m, line) for m in METRICS])
        label = _parse_cell(row, positions["label"], "label", line)
        if label not in (0.0, 1.0):
            raise RowError(f"label must be 0 or 1, got {label:g}", line)
        labels.append(label)
    raw = np.array(rows, dtype=np.float64).reshape(-1, len(METRICS))
    metrics = clip_metrics(raw)
    clamp_counts = dict(zip(METRICS, (metrics != raw).sum(axis=0).tolist()))
    return CsvIngest(trace=TelemetryTrace(metrics, labels), clamp_counts=clamp_counts)


def _parse_cell(row: list[str], position: int, name: str, line: int) -> float:
    """The finite number in column `position`; a missing cell reads as empty."""
    cell = row[position] if position < len(row) else ""
    try:
        value = float(cell)
    except ValueError:
        raise RowError(f"cannot parse {name} cell {cell!r}", line) from None
    if not math.isfinite(value):
        raise RowError(f"{name} cell {cell!r} is not finite", line)
    return value


def export_csv(trace: TelemetryTrace, path: str | Path) -> None:
    """Write a trace in the canonical CSV schema with 6 significant digits."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        rows = zip(trace.metrics.tolist(), trace.labels.tolist())
        for tick, (values, label) in enumerate(rows):
            writer.writerow([tick] + [format(v, ".6g") for v in values] + [label])
