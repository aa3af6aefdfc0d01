#!/usr/bin/env python3
"""The selfheal benchmark.

    python3 perfbench/run.py --workload desk --seed 20260811 --seconds 60 --trace 0

Runs one workload (see README.md) from the root of a checkout. Every run of
the program is a fresh worker process (worker.py) that imports the checkout's
`src/`, resolves a generated config, calls `run_pipeline` and `emit_report`
and checks the report. The workload seed gives a few configs (workloads.py);
pipeline runs cycle through them until the next one would overrun
`--seconds`, at least one round, and a set-up-only probe precedes each run.
With `--trace 1` one untraced run is followed by traced runs of the first
config (tracing.py), and the result holds the per-layer metrics instead of the
end-to-end ones.

Prints the machine block and one line per run, then the result as one JSON
object on the last line. Exits non-zero without a result when the benchmark
itself cannot run, for example outside a checkout of the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
DEFAULT_SEED = 20260811
DEADLINE_S = 170.0
# One BLAS thread: the load is one process, and on a small shared machine
# extra BLAS threads only add noise to matrices this size.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "ok_run_frac": "ratio",
    "detector_f1": "ratio", "gnn_accuracy": "ratio", "early_warning_frac": "ratio",
    "recovery_gain_pct": "%",
}


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="selfheal benchmark")
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed; claims are re-checked on seed 5077 (README.md)")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Starts worker processes within one deadline."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {**os.environ, **BLAS_ENV}
        self.started = 0

    def spawn(self, config_path: Path, *flags: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchmarkError(f"ran out of the {DEADLINE_S:.0f} s budget")
        out_dir = self.run_dir / f"run{self.started}"
        self.started += 1
        cmd = [sys.executable, str(HERE / "worker.py"), "--config", str(config_path),
               "--out", str(out_dir), *flags, "--spawned-ns", str(time.time_ns())]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining,
                                  env=self.env, cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"worker overran the {DEADLINE_S:.0f} s budget") from None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchmarkError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["wall_s"] = time.perf_counter() - start
        return result


def source_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_determinism(runs: list[dict], cfgs: list[dict]) -> None:
    """Fail every run whose report differs from the first one recorded for
    this source tree and config, in this or an earlier invocation."""
    record_path = STATE / "hashes.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    fingerprint = source_fingerprint()
    for run in runs:
        if "sha256" not in run:
            continue
        cfg = json.dumps(cfgs[run["sub"]], sort_keys=True)
        key = hashlib.sha256((fingerprint + cfg).encode()).hexdigest()
        expected = record.setdefault(key, run["sha256"])
        if run["sha256"] != expected:
            run["failed_checks"].append(f"report sha256 {run['sha256']} != {expected} "
                                        "recorded for the same code and config")
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))


def seed_commit_hashes(workload: str, seed: int) -> list[str] | None:
    recorded = json.loads((HERE / "seed_hashes.json").read_text())
    return recorded.get(workload, {}).get(str(seed))


def failed(run: dict) -> bool:
    return "error" in run or bool(run["failed_checks"])


def end_to_end(setups: list[float], runs: list[dict]) -> dict:
    done = [r for r in runs if "run_s" in r]
    values = {"setup_s": statistics.median(setups)}
    for name in ("run_s", "cpu_s", "peak_rss_mb"):
        values[name] = statistics.median(r[name] for r in done) if done else 0.0
    values["ok_run_frac"] = sum(not failed(r) for r in runs) / len(runs)
    # Quality is a function of the config: one value per config, the median
    # over the workload's configs.
    by_config = {r["sub"]: r["quality"] for r in done}
    for name in ("detector_f1", "gnn_accuracy", "early_warning_frac", "recovery_gain_pct"):
        per_config = [q[name] for q in by_config.values()]
        values[name] = statistics.median(per_config) if per_config else 0.0
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    traced = [r for r in traced if "layers" in r]
    if not traced:
        return {}
    layers = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    base = [r["run_s"] for r in untraced if "run_s" in r]
    if base:
        median = statistics.median(base)
        layers["harness.trace_overhead_pct"] = (
            100.0 * (statistics.median(r["run_s"] for r in traced) - median) / median)
    return {name: {"value": v, "unit": _layer_unit(name)} for name, v in layers.items()}


def _layer_unit(name: str) -> str:
    """Unit from the name's last word: `.s`, `_ms`, `_us`, `_pct`, else a count."""
    last = name.rsplit(".", 1)[-1].rsplit("_", 1)[-1]
    return {"s": "s", "ms": "ms", "us": "us", "pct": "%"}.get(last, "count")


def measure(runner: Runner, paths: list[Path], seconds: float, trace: bool):
    """Pipeline runs until the next would overrun `seconds`, each after a
    set-up probe. Untraced runs cycle through every config, at least one
    round. A traced measurement makes one untraced run of the first config,
    then traced runs of it."""
    setups, runs, traced = [], [], []
    start = time.perf_counter()
    while True:
        setups.append(runner.spawn(paths[0], "--setup-only")["setup_s"])
        if trace and runs:
            traced.append({**runner.spawn(paths[0], "--trace"), "sub": 0, "traced": True})
            last = traced[-1]
        else:
            sub = len(runs) % len(paths)
            runs.append({**runner.spawn(paths[sub]), "sub": sub})
            last = runs[-1]
        elapsed = time.perf_counter() - start
        enough = len(traced) >= 1 if trace else len(runs) >= len(paths)
        if enough and elapsed + last["wall_s"] > seconds:
            return setups, runs, traced


def run(args) -> dict:
    if not (ROOT / "src" / "selfheal" / "__init__.py").is_file():
        raise BenchmarkError(f"no selfheal sources under {ROOT / 'src'}")
    cfgs = workloads.workload_configs(args.workload, args.seed)
    run_dir = STATE / f"{args.workload}-{args.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, cfg in enumerate(cfgs):
        paths.append(run_dir / f"config{i}.json")
        paths[-1].write_text(json.dumps(cfg, indent=2))
    runner = Runner(run_dir)

    setups, runs, traced = measure(runner, paths, args.seconds, bool(args.trace))
    every_run = runs + traced
    setups += [r["setup_s"] for r in runs]
    check_determinism(every_run, cfgs)

    machine = next((r["machine"] for r in every_run if "machine" in r), None)
    print(json.dumps({"machine": machine, "blas_env": BLAS_ENV,
                      "config_seeds": [cfg["seed"] for cfg in cfgs]}))
    seed_hashes = seed_commit_hashes(args.workload, args.seed) or [None] * len(cfgs)
    for i, r in enumerate(every_run):
        print(json.dumps({
            "run": i, "config": r["sub"], "traced": r.get("traced", False), "wall_s": r["wall_s"],
            **{k: r.get(k) for k in ("setup_s", "run_s", "cpu_s", "peak_rss_mb", "sha256",
                                      "error", "failed_checks")},
            "matches_seed_commit": (None if seed_hashes[r["sub"]] is None
                                    else r.get("sha256") == seed_hashes[r["sub"]]),
        }))
    if traced and "spans" in traced[0]:
        spans = traced[0]["spans"]
        for key, (calls, secs) in sorted(spans.items(), key=lambda kv: -kv[1][1]):
            print(f"span {key:48s} calls={calls:8d} s={secs:10.4f}")
    metrics = per_layer(traced, runs) if args.trace else end_to_end(setups, runs)
    n_failed = sum(failed(r) for r in every_run)
    return {"correct": n_failed == 0, "attempted": len(every_run), "failed": n_failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchmarkError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
