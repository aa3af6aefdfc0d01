"""One benchmark process: set up, run the pipeline once, check the report.

    python3 perfbench/worker.py --config CFG --out DIR --spawned-ns NS [--setup-only] [--trace]

`--spawned-ns` is the wall clock (time.time_ns) at which the parent started
this process, so `setup_s` covers interpreter start, imports and config
resolution. Prints one JSON object on its last stdout line. A StageError or a
failed report check is a failed run, reported in that object; anything else
is an error of the benchmark itself and exits non-zero.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import selfheal
    from selfheal.errors import StageError
    from selfheal.harness import emit_report, load_config, run_pipeline

    if not Path(selfheal.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported selfheal from {selfheal.__file__}, not from this checkout")
    cfg = load_config(args.config)
    setup_s = (time.time_ns() - args.spawned_ns) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        run_pipeline = tracer.wrap(run_pipeline, "harness.run_pipeline", "harness")

    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        report = run_pipeline(cfg)
    except StageError as err:
        print(json.dumps({"setup_s": setup_s, "error": f"StageError: {err}", "failed_checks": []}))
        return 0
    t1 = time.perf_counter()
    written = emit_report(report, args.out)
    t2, cpu2 = time.perf_counter(), time.process_time()

    report_json = written["json"].read_bytes()
    result = {
        "setup_s": setup_s,
        "run_s": t2 - t0,
        "cpu_s": cpu2 - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sha256": hashlib.sha256(report_json).hexdigest(),
        "failed_checks": check_report(json.loads(report_json), cfg, written["json"]),
        "quality": quality(report.to_dict()),
        "machine": machine(),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, cfg, report.to_dict(), t1 - t0, t2 - t1)
        result["spans"] = {key: [tracer.calls[key], tracer.seconds[key]]
                           for key in sorted(tracer.calls)}
    print(json.dumps(result))
    return 0


def quality(report: dict) -> dict:
    return {
        "detector_f1": report["detection"]["f1"],
        "gnn_accuracy": report["dependency"]["accuracy"],
        "early_warning_frac": report["dependency"]["early_warning_fraction"],
        "recovery_gain_pct": report["recovery"]["improvement_vs_random_pct"]["weighted"],
    }


def _numbers(value, path="report"):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _numbers(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _numbers(item, f"{path}[{i}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, value


def _dominates(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def check_report(report: dict, cfg, path: Path) -> list[str]:
    """Checks that hold whatever the floating-point summation order."""
    from selfheal.harness import parse_report

    failed = []
    try:
        parse_report(path)
    except Exception as err:  # any rejection is a failed check, not a crash
        failed.append(f"parse_report rejected report.json: {err!r}")
    for where, value in _numbers(report):
        if not math.isfinite(value):
            failed.append(f"{where} is not finite: {value}")
    dep = report["dependency"]
    if dep["held_out_cascades"] + dep["training_cascades"] != cfg.simulator.n_cascades:
        failed.append("held-out + training cascades != n_cascades")
    att = report["attribution"]
    if att["groups"]:
        gap = sum(att["contributions"]) - (att["instance_value"] - att["base_value"])
        if not abs(gap) <= 1e-9:
            failed.append(f"Shapley efficiency off by {gap}")
    entries = report["pareto"]["entries"]
    for i, entry in enumerate(entries):
        if entry["on_front"] and any(
            _dominates(other["objectives"], entry["objectives"]) for other in entries
        ):
            failed.append(f"pareto entry {i} is on the front but dominated")
    return failed


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps
                       if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def machine() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": threads,
    }


def layer_metrics(tracer, cfg, report: dict, pipeline_s: float, emit_s: float) -> dict:
    """The per-layer metrics, from one traced run."""
    calls, secs = tracer.count, tracer.time

    def per_call(key, scale):
        n = calls(key)
        return secs(key) * scale / n if n else 0.0

    sweep_episodes = len(cfg.agent.sweep_grid) * cfg.agent.sweep_episodes
    agent_episodes = cfg.agent.episodes + sweep_episodes
    metrics = {
        "numerics.grad.calls": calls("numerics.grad"),
        "numerics.grad.detector_us": per_call("numerics.grad@detector", 1e6),
        "numerics.grad.depgraph_us": per_call("numerics.grad@depgraph", 1e6),
        "numerics.forward_mlp.calls": calls("numerics.forward_mlp"),
        "numerics.forward_mlp.s": secs("numerics.forward_mlp"),
        "numerics.sgd_step.calls": calls("numerics.sgd_step"),
        "numerics.sgd_step.s": secs("numerics.sgd_step"),
        "simulator.make_tasks.s": secs("simulator.make_tasks"),
        "simulator.augment_tasks.s": secs("simulator.augment_tasks"),
        "simulator.make_cascade_dataset.s": secs("simulator.make_cascade_dataset"),
        "simulator.generate_trace.calls": calls("simulator.generate_trace"),
        "simulator.generate_trace.us": per_call("simulator.generate_trace", 1e6),
        "detector.meta_train.s": secs("detector.meta_train"),
        "detector.meta_iter_ms": secs("detector.meta_train") * 1e3
        / max(cfg.detector.meta_iterations, 1),
        "detector.inner_adapt.calls": calls("detector.inner_adapt"),
        "detector.evaluate.calls": calls("detector.evaluate"),
        "detector.evaluate.s": secs("detector.evaluate"),
        "detector.detect.calls": calls("detector.detect"),
        "detector.detect.us": per_call("detector.detect", 1e6),
        "depgraph.train_gnn.s": secs("depgraph.train_gnn"),
        "depgraph.epoch_ms": secs("depgraph.train_gnn") * 1e3 / max(cfg.gnn.epochs, 1),
        "depgraph.predict_failures.calls": calls("depgraph.predict_failures"),
        "depgraph.predict_failures.s": secs("depgraph.predict_failures"),
        "recovery.train_agent.s": secs("recovery.train_agent@harness"),
        "recovery.episode_ms": secs("recovery.train_agent") * 1e3 / max(agent_episodes, 1),
        "recovery.env.step.calls": calls("recovery.env.step"),
        "recovery.env.step.us": per_call("recovery.env.step", 1e6),
        "recovery.env.reset.calls": calls("recovery.env.reset"),
        "recovery.env.reset.us": per_call("recovery.env.reset", 1e6),
        "recovery.weight_sweep.s": secs("recovery.weight_sweep"),
        "recovery.evaluate_policy.s": secs("recovery.evaluate_policy@harness"),
        "recovery.pareto_front.us": per_call("recovery.pareto_front", 1e6),
        "explain.shapley_attribution.calls": calls("explain.shapley_attribution"),
        "explain.shapley_attribution.ms": per_call("explain.shapley_attribution", 1e3),
        "explain.coalitions": calls("explain.shapley_attribution")
        * 2 ** len(report["attribution"]["groups"]),
        "harness.run_pipeline.s": pipeline_s,
        "harness.emit_report.ms": emit_s * 1e3,
    }
    for layer in tracer.self_s:
        metrics[f"{layer}.self_s"] = tracer.self_s[layer]
        if layer != "harness":
            metrics[f"{layer}.total_s"] = tracer.total_s[layer]
    return metrics


if __name__ == "__main__":
    sys.exit(main())
