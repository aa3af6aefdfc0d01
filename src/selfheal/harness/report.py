"""Run report: one in-memory structure, two renderings.

The JSON rendering is the machine-readable source of truth and round-trips
exactly; the markdown rendering lays the same numbers out as one table per
metric family, printed to 4 significant digits.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .. import files
from ..errors import SchemaError


@dataclass
class RunReport:
    provenance: dict
    detection: dict
    adaptation: dict
    dependency: dict
    recovery: dict
    pareto: dict
    attribution: dict
    closed_loop: dict

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(raw: dict, where: str = "report") -> "RunReport":
        return RunReport(**files.fields(raw, where, [f.name for f in fields(RunReport)]))


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format(value, ".4g")
    return str(value)


def _table(headers: list[str], rows: list[list]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join([" --- "] * len(headers)) + "|")
    for row in rows:
        lines.append("| " + " | ".join(_fmt(v) for v in row) + " |")
    return lines


def render_markdown(report: RunReport) -> str:
    lines = ["# Self-healing lab run report", ""]
    prov = report.provenance
    lines += [
        f"- seed: {prov['seed']}",
        f"- config hash: `{prov['config_hash']}`",
        f"- version: {prov['version']}",
        "",
    ]

    det = report.detection
    lines += ["## Detection", ""]
    lines += _table(
        ["metric", "value"],
        [
            ["precision", det["precision"]],
            ["recall", det["recall"]],
            ["f1", det["f1"]],
            ["held-out tasks", det["tasks"]],
            ["inner steps", det["inner_steps"]],
        ],
    )
    lines.append("")

    ad = report.adaptation
    lines += ["## Adaptation latency", ""]
    lines += _table(
        ["initialization", "median steps to support loss <= " + _fmt(ad["loss_bound"])],
        [
            ["meta-trained", ad["median_proposed"]],
            ["random init", ad["median_baseline"]],
        ],
    )
    lines.append("")

    dep = report.dependency
    lines += ["## Dependency modeling", ""]
    lines += _table(
        ["metric", "value"],
        [
            ["node-failure accuracy", dep["accuracy"]],
            ["mttfp (s)", dep["mttfp_seconds"]],
            ["early-warning fraction", dep["early_warning_fraction"]],
            ["false-alarm rate", dep["false_alarm_rate"]],
            ["miss rate", dep["miss_rate"]],
            ["held-out cascades", dep["held_out_cascades"]],
        ],
    )
    lines.append("")

    rec = report.recovery
    lines += ["## Recovery", ""]
    lines += _table(
        ["policy", "mean latency (ms)", "mean resource", "total cost", "weighted"],
        [
            [name, rec[name]["latency_ms"], rec[name]["resource"],
             rec[name]["cost"], rec[name]["weighted"]]
            for name in ("proposed", "random", "no_op")
        ],
    )
    lines.append("")
    improvements = rec["improvement_vs_random_pct"]
    lines += _table(
        ["objective", "improvement vs random (%)"],
        [[key, improvements[key]] for key in sorted(improvements)],
    )
    lines.append("")

    lines += ["## Pareto sweep", ""]
    lines += _table(
        ["w_latency", "w_resource", "w_cost", "latency", "resource", "cost", "on front"],
        [
            entry["weights"] + entry["objectives"] + [entry["on_front"]]
            for entry in report.pareto["entries"]
        ],
    )
    lines.append("")

    att = report.attribution
    lines += ["## Attribution", ""]
    if att["groups"]:
        lines += _table(
            ["feature group", "contribution"],
            sorted(zip(att["groups"], att["contributions"]),
                   key=lambda pair: -abs(pair[1])),
        )
        lines += ["", f"base value: {_fmt(att['base_value'])}, "
                      f"instance value: {_fmt(att['instance_value'])}"]
    else:
        lines.append("no flagged anomalous window available")
    lines.append("")

    cl = report.closed_loop
    lines += ["## Closed loop", ""]
    lines += _table(
        ["metric", "value"],
        [
            ["episodes", len(cl["episodes"])],
            ["detected fraction", cl["detected_fraction"]],
            ["mean detection delay (ticks)", cl["mean_detection_delay_ticks"]],
        ],
    )
    lines.append("")
    return "\n".join(lines)


def emit_report(report: RunReport, out_dir: str | Path) -> dict[str, Path]:
    """Write report.json and report.md; returns their paths by format."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {"json": out_dir / "report.json", "markdown": out_dir / "report.md"}
    written["json"].write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    written["markdown"].write_text(render_markdown(report), encoding="utf-8")
    return written


def parse_report(path: str | Path) -> RunReport:
    """The report in the `emit_report` JSON file at `path`. It must hold the
    eight sections and lay out as markdown: what `render_markdown` cannot lay
    out (a missing key, a section of the wrong type) raises a SchemaError."""
    report = RunReport.from_dict(files.read_json(path), str(path))
    try:
        render_markdown(report)
    except (KeyError, TypeError, IndexError) as err:
        raise SchemaError(f"{path}: cannot lay out the report "
                          f"({type(err).__name__}: {err})") from None
    return report
