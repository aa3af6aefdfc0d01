"""Benchmark workloads: run configs derived from the desk config.

`desk.json` here is a frozen copy of the repository's `configs/desk.json`, so
the benchmark's inputs do not move when the repository's desk config does.
Each workload applies section overrides to it, sized so that one pipeline run
takes about ten seconds and four to six runs fit in a 60 s window. Each
workload seed gives `SUB_CONFIGS` configs: the first has the workload seed as
its config seed, the others a seed derived from it. Nothing else depends on
the seed. README.md says why each workload exists and which layer should
dominate it.
"""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path

DESK_PATH = Path(__file__).resolve().parent / "desk.json"
SUB_CONFIGS = 3

# Settings every workload shares. 1000 agent episodes scored on 64 recovery
# episodes keep `recovery_gain_pct` steady across seeds, and ten adaptation
# steps at evaluation do the same for `detector_f1`.
COMMON = {
    "detector": {"eval_inner_steps": 10},
    "agent": {"episodes": 1000, "sweep_episodes": 20},
    "eval": {"recovery_episodes": 64},
}

# A small detector (4 tasks per meta-batch, one inner step) whose F1 still
# holds steady across seeds, for the workload that is not about the detector.
SMALL_DETECTOR = {"meta_iterations": 300, "inner_steps": 1, "meta_batch": 4}

OVERRIDES = {
    # Detector meta-training dominates: the committed detector, fewer
    # meta-iterations.
    "desk": {
        "detector": {"meta_iterations": 600},
        "gnn": {"epochs": 100},
    },
    # Large dependency graphs: the GNN's taped passes on a few large arrays
    # dominate.
    "cascade_scale": {
        "simulator": {"n_cascades": 160, "cascade_nodes": 40, "cascade_horizon": 24},
        "detector": SMALL_DETECTOR,
        "gnn": {"epochs": 300},
    },
}

NAMES = tuple(OVERRIDES)


def sub_seeds(seed: int) -> list[int]:
    """The config seeds of one workload seed: the seed itself, then derived ones."""
    derived = [int.from_bytes(hashlib.sha256(f"{seed}/{k}".encode()).digest()[:4], "big")
               for k in range(1, SUB_CONFIGS)]
    return [seed, *derived]


def workload_configs(name: str, seed: int) -> list[dict]:
    """The configs the program receives for workload `name` at `seed`."""
    base = json.loads(DESK_PATH.read_text(encoding="utf-8"))
    for overrides in (COMMON, OVERRIDES[name]):
        for section, values in overrides.items():
            base[section].update(copy.deepcopy(values))
    base["output_dir"] = f"out/{name}"
    return [{**base, "seed": s} for s in sub_seeds(seed)]
