"""Command-line interface for the lab.

Exit codes: 0 success, 2 configuration error, 3 stage/training failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..errors import ConfigurationError, SchemaError, SelfHealError, StageError
from ..seeding import derive_seed
from ..detector import save_checkpoint
from ..depgraph import save_gnn, write_graph
from ..recovery import save_policy
from ..simulator import export_csv, generate_trace
from ..simulator.cascade import make_tree_graph
from .config import RunConfig, load_config, resolved_config_json
from .pipeline import (
    agent_stage,
    build_tasks,
    detector_stage,
    gnn_stage,
    run_pipeline,
    sweep_stage,
    workload_patterns,
)
from .report import emit_report, parse_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3


def _base_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", type=Path, help="JSON config file")
    shared.add_argument("--seed", type=int, help="override the config seed")
    shared.add_argument("--out", type=Path, help="override the output directory")

    parser = argparse.ArgumentParser(
        prog="selfheal",
        description="Self-healing database lab: simulate, train, run, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[shared],
                   help="emit workload traces and a dependency graph")
    sub.add_parser("train-detector", parents=[shared],
                   help="meta-train the anomaly detector and save a checkpoint")
    sub.add_parser("train-gnn", parents=[shared],
                   help="train the failure predictor and save its parameters")
    sub.add_parser("train-agent", parents=[shared],
                   help="train the recovery agent and save its policy table")
    run = sub.add_parser("run", parents=[shared], help="run the full pipeline")
    run.add_argument("--print-config", action="store_true",
                     help="print the fully resolved config and exit")
    rep = sub.add_parser("report", parents=[shared],
                         help="re-emit report files from a structured report")
    rep.add_argument("--input", type=Path, required=True,
                     help="existing report.json")
    sub.add_parser("sweep", parents=[shared],
                   help="train across the weight grid and chart the Pareto front")
    return parser


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    if args.out is not None:
        cfg = cfg.with_output_dir(str(args.out))
    return cfg


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    seed = derive_seed(cfg.seed, "simulator")
    patterns = workload_patterns(cfg, "train")
    for pattern in patterns:
        trace = generate_trace(pattern, derive_seed(seed, "trace", pattern.pattern_id),
                               ticks=600)
        export_csv(trace, out / f"trace-{pattern.pattern_id}.csv")
    graph = make_tree_graph(cfg.simulator.cascade_nodes, seed=derive_seed(seed, "graph"))
    write_graph(graph, out / "graph.json")
    print(f"wrote {len(patterns)} traces and graph.json to {out}")
    return EXIT_OK


def _trained_detector(cfg: RunConfig):
    result = detector_stage(cfg, *build_tasks(cfg))[0]
    return result.model, result.loss_curve


def _trained_gnn(cfg: RunConfig):
    result = gnn_stage(cfg)[0]
    return result.gnn, result.loss_curve


def _trained_agent(cfg: RunConfig):
    result = agent_stage(cfg)[1]
    return result.policy, result.returns


def _mean_return(returns: list[float]) -> str:
    last = returns[-20:]
    return f"mean return of last {len(last)} episodes {sum(last) / len(last):.4f}"


# command: (train -> (model, curve), save, model file, curve file, what the
# model file holds, a summary of a nonempty curve)
_TRAIN_COMMANDS = {
    "train-detector": (_trained_detector, save_checkpoint, "detector.json",
                       "detector-loss.json", "detector checkpoint",
                       lambda curve: f"final meta-loss {curve[-1]:.4f}"),
    "train-gnn": (_trained_gnn, save_gnn, "gnn.json", "gnn-loss.json", "GNN parameters",
                  lambda curve: f"final loss {curve[-1]:.4f}"),
    "train-agent": (_trained_agent, save_policy, "policy.tsv", "agent-returns.json",
                    "policy table", _mean_return),
}


def _cmd_train(cfg: RunConfig, train, save, name, curve_name, what, summary) -> int:
    """Train, then save the model and its curve and say where they went."""
    model, curve = train(cfg)
    out = _out_dir(cfg)
    save(model, out / name)
    (out / curve_name).write_text(json.dumps(curve))
    note = f" ({summary(curve)})" if curve else ""
    print(f"saved {what} to {out / name}{note}")
    return EXIT_OK


def _emit(cfg: RunConfig, report) -> int:
    for fmt, path in emit_report(report, _out_dir(cfg)).items():
        print(f"{fmt}: {path}")
    return EXIT_OK


def _cmd_sweep(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    pareto = sweep_stage(cfg)
    path = out / "sweep.json"
    path.write_text(json.dumps(pareto["entries"], indent=2) + "\n")
    print(f"swept {len(pareto['entries'])} weight vectors; front size "
          f"{pareto['front_size']}; wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _base_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load(args)
        if args.command == "simulate":
            return _cmd_simulate(cfg)
        if args.command in _TRAIN_COMMANDS:
            return _cmd_train(cfg, *_TRAIN_COMMANDS[args.command])
        if args.command == "run" and args.print_config:
            print(resolved_config_json(cfg))
            return EXIT_OK
        if args.command == "run":
            return _emit(cfg, run_pipeline(cfg))
        if args.command == "report":
            return _emit(cfg, parse_report(args.input))
        if args.command == "sweep":
            return _cmd_sweep(cfg)
        parser.error(f"unknown command {args.command}")
    except (ConfigurationError, SchemaError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except StageError as err:
        print(f"stage failure: {err}", file=sys.stderr)
        return EXIT_STAGE
    except SelfHealError as err:
        print(f"failure: {err}", file=sys.stderr)
        return EXIT_STAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
