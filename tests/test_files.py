"""Every loader reads its file through `selfheal.files`: a missing, empty,
truncated or non-UTF-8 file, or a directory, raises the loader's named error,
giving the path, instead of an `OSError` or a decoder's exception."""

import json
import re
from dataclasses import fields

import numpy as np
import pytest

from selfheal.depgraph import init_gnn, load_gnn, read_graph, save_gnn, write_graph
from selfheal.detector import init_detector, load_checkpoint, save_checkpoint
from selfheal.errors import ConfigurationError, SchemaError
from selfheal.harness import RunReport, load_config, parse_report
from selfheal.recovery import Policy, load_policy, save_policy
from selfheal.recovery.states import N_ACTIONS, N_STATES
from selfheal.simulator import METRICS, default_patterns, export_csv, generate_trace, ingest_csv
from selfheal.simulator.cascade import make_tree_graph


def _write_report(path):
    path.write_text(json.dumps({f.name: {} for f in fields(RunReport)}), encoding="utf-8")


# loader name -> (read the file, the error it raises, write a valid file)
LOADERS = {
    "read_graph": (read_graph, SchemaError,
                   lambda path: write_graph(make_tree_graph(6, seed=1), path)),
    "load_gnn": (load_gnn, SchemaError,
                 lambda path: save_gnn(init_gnn(make_tree_graph(6, seed=1), seed=2), path)),
    "load_checkpoint": (load_checkpoint, SchemaError,
                        lambda path: save_checkpoint(init_detector(20, seed=3), path)),
    "parse_report": (parse_report, SchemaError, _write_report),
    "load_config": (load_config, ConfigurationError,
                    lambda path: path.write_text(json.dumps({"seed": 7, "gnn": {"epochs": 3}}))),
    "load_policy": (load_policy, SchemaError,
                    lambda path: save_policy(Policy(q=np.ones((N_STATES, N_ACTIONS))), path)),
    "ingest_csv": (lambda path: ingest_csv(path, {m: m for m in (*METRICS, "label")}),
                   SchemaError,
                   lambda path: export_csv(generate_trace(default_patterns(1, seed=4)[0],
                                                          seed=5, ticks=20), path)),
}


def _valid_bytes(tmp_path, name):
    path = tmp_path / "valid"
    LOADERS[name][2](path)
    LOADERS[name][0](path)  # the unbroken file loads
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(LOADERS))
@pytest.mark.parametrize("damage", ["empty", "non_utf8", "missing", "directory"])
def test_unreadable_file_raises_named_error(tmp_path, name, damage):
    data = _valid_bytes(tmp_path, name)
    path = tmp_path / "damaged"
    if damage == "directory":
        path.mkdir()
    elif damage != "missing":
        path.write_bytes(b"" if damage == "empty"
                         else data[:len(data) // 2] + b"\xff\xfe" + data[len(data) // 2:])
    load, error, _ = LOADERS[name]
    with pytest.raises(error, match=re.escape(str(path))):
        load(path)


@pytest.mark.parametrize("name", sorted(set(LOADERS) - {"ingest_csv"}))
def test_truncated_file_raises_named_error(tmp_path, name):
    # a CSV has no end marker: cut at a row boundary it is a shorter trace
    data = _valid_bytes(tmp_path, name)
    path = tmp_path / "truncated"
    path.write_bytes(data[:len(data) // 2])
    load, error, _ = LOADERS[name]
    with pytest.raises(error, match=re.escape(str(path))):
        load(path)


@pytest.mark.parametrize("name", ["read_graph", "load_gnn", "load_checkpoint",
                                  "parse_report", "load_config"])
def test_json_top_level_must_be_an_object(tmp_path, name):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    load, error, _ = LOADERS[name]
    with pytest.raises(error, match="expected a JSON object"):
        load(path)
