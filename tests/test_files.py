"""Every loader reads its file through `selfheal.files`: a missing, empty,
truncated or non-UTF-8 file, or a directory, raises the loader's named error,
giving the path, instead of an `OSError` or a decoder's exception. Edited,
truncated or byte-flipped files raise only that error too, and the writers'
bytes are pinned."""

import hashlib
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfheal.depgraph import init_gnn, load_gnn, read_graph, save_gnn, write_graph
from selfheal.detector import init_detector, load_checkpoint, save_checkpoint
from selfheal.errors import ConfigurationError, InputError, RowError, SchemaError
from selfheal.harness import (
    RunReport,
    config_from_dict,
    emit_report,
    load_config,
    parse_report,
    run_pipeline,
)
from selfheal.harness.cli import main
from selfheal.recovery import Policy, load_policy, save_policy
from selfheal.recovery.states import N_ACTIONS, N_STATES
from selfheal.simulator import METRICS, default_patterns, export_csv, generate_trace, ingest_csv
from selfheal.simulator.cascade import make_tree_graph

# a run small enough to take a tenth of a second, whose report fills every
# section (a low threshold flags a window, so attribution has groups)
TINY_CONFIG = {
    "seed": 7,
    "simulator": {"n_train_patterns": 2, "n_eval_patterns": 2, "n_support": 4, "n_query": 6,
                  "mix_count": 1, "n_cascades": 10, "cascade_nodes": 4, "cascade_horizon": 6},
    "detector": {"meta_iterations": 2, "meta_batch": 2, "hidden_widths": [4],
                 "eval_inner_steps": 1, "adapt_max_steps": 2, "threshold": 0.05},
    "gnn": {"epochs": 2, "hidden_widths": [4]},
    "agent": {"episodes": 4, "episode_ticks": 20, "sweep_episodes": 2,
              "sweep_eval_episodes": 1, "sweep_grid": [[1.0, 1.0, 1.0], [0.6, 0.2, 0.2]]},
    "eval": {"recovery_episodes": 1, "closed_loop_episodes": 2, "background_rows": 2},
}


def _write_report(path):
    emit_report(run_pipeline(config_from_dict(TINY_CONFIG)), path.parent)["json"].replace(path)


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


def test_graph_without_nodes_is_named_error(tmp_path):
    # ComponentGraph refuses it where it is built, so no network is sized by
    # an empty graph
    path = tmp_path / "empty-graph.json"
    path.write_text(json.dumps({"nodes": [], "edges": []}))
    with pytest.raises(SchemaError, match=re.escape(f"{path}: a graph needs at least one node")):
        read_graph(path)
    with pytest.raises(InputError, match="a graph needs at least one node"):
        make_tree_graph(0, seed=1)


# sha256 of the bytes each writer gave for the small fixed models below before
# `detector.json` and `gnn.json` shared one container writer
WRITER_SHA256 = {
    "read_graph": "e9fe3956ebb44b3938744b6361002661ad578a80251a8ece115be0c126742b55",
    "load_gnn": "c3fd31b09946b33e8fd8bc45f8385c34d5bb28478610d5c6439b6c6a323e2aa5",
    "load_checkpoint": "75d365d875a7b3237a819534ad3fe49e08b80a7676f738dd3d1fcf30d59ba3cd",
    "load_policy": "4640daf086b6c81e809016983f8e1016d2a6efa741ea99ad6d3cf49ecdab8bc2",
}
# loader name -> the writer of what it loads, for save -> load -> save
SAVERS = {"read_graph": write_graph, "load_gnn": save_gnn,
          "load_checkpoint": save_checkpoint, "load_policy": save_policy}


def _pinned_model(name, path):
    if name == "load_policy":  # seeded normals, so the pin covers float repr
        q = np.random.default_rng(6).standard_normal((N_STATES, N_ACTIONS))
        save_policy(Policy(q=q), path)
    else:
        LOADERS[name][2](path)


@pytest.mark.parametrize("name", sorted(WRITER_SHA256))
def test_writer_bytes_are_pinned(tmp_path, name):
    path = tmp_path / "model"
    _pinned_model(name, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WRITER_SHA256[name]


@pytest.mark.parametrize("name", sorted(SAVERS))
def test_save_load_save_is_identical(tmp_path, name):
    first, second = tmp_path / "first", tmp_path / "second"
    _pinned_model(name, first)
    SAVERS[name](LOADERS[name][0](first), second)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("name", ["load_gnn", "load_checkpoint"])
@pytest.mark.parametrize("version", [True, 1.0, "1", 2])
def test_model_version_must_be_the_integer_written(tmp_path, name, version):
    payload = json.loads(_valid_bytes(tmp_path, name))
    payload["version"] = version
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError, match=re.escape(f"{path}: unsupported version {version!r}")):
        LOADERS[name][0](path)


@pytest.mark.parametrize("sections", [["provenance"], ["recovery"], ["pareto"], ["closed_loop"],
                                      [f.name for f in fields(RunReport)]],
                         ids=["provenance", "recovery", "pareto", "closed_loop", "all"])
def test_report_that_cannot_be_laid_out_is_named_error(tmp_path, capsys, sections):
    path = tmp_path / "report.json"
    _write_report(path)
    payload = json.loads(path.read_text())
    payload.update(dict.fromkeys(sections, 5))
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError, match=re.escape(f"{path}: cannot lay out")):
        parse_report(path)
    assert main(["report", "--input", str(path), "--out", str(tmp_path / "o")]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("digits", [400, 5000], ids=["past_float", "past_digit_limit"])
@pytest.mark.parametrize("name, keys", [
    ("load_checkpoint", ["threshold"]),
    ("load_checkpoint", ["params", "layer0.b", "values", 0]),
    ("read_graph", ["edges", 0, "weight"]),
    ("read_graph", ["nodes", 0, "static_features", 0]),
    ("load_config", ["gnn", "lr"]),
])
def test_huge_integer_is_named_error(tmp_path, name, keys, digits):
    # 10**400 is no float; Python's JSON reader refuses ints of 4,300+ digits
    payload = json.loads(_valid_bytes(tmp_path, name))
    node = payload
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = "HUGE"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload).replace('"HUGE"', "1" + "0" * digits))
    load, error, _ = LOADERS[name]
    with pytest.raises(error):
        load(path)


# -- property test: edited, truncated and byte-flipped files ------------------

JSON_LOADERS = sorted(set(LOADERS) - {"load_policy", "ingest_csv"})
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=4), st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)
_FUZZ = dict(derandomize=True, database=None, deadline=None)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Each loader's valid bytes (the config's from `configs/desk.json`, which
    sets every section), and a directory to write damaged copies into."""
    root = tmp_path_factory.mktemp("fuzz")
    valid = {}
    for name in LOADERS:
        (root / name).mkdir()
        valid[name] = _valid_bytes(root / name, name)
    valid["load_config"] = (Path(__file__).parent.parent / "configs" / "desk.json").read_bytes()
    return root, valid


@st.composite
def _tree_edit(draw, tree):
    """`tree` with one value replaced, or one key or item deleted or added, at
    a node reached by descending through random children."""
    parent, key, node = None, None, tree
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    edit = draw(st.sampled_from(["replace", "delete", "add"]))
    if edit == "add" and isinstance(node, dict):
        node[draw(st.text(max_size=4))] = draw(_JUNK)
    elif edit == "add" and isinstance(node, list):
        node.append(draw(_JUNK))
    elif edit == "delete" and parent is not None:
        del parent[key]
    elif parent is None:
        tree = draw(_JUNK)
    else:
        parent[key] = draw(_JUNK)
    return tree


@st.composite
def _byte_damage(draw, data):
    """`data` cut short, or with one to three bytes flipped."""
    if draw(st.booleans()):
        return data[:draw(st.integers(0, len(data) - 1))]
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        out[draw(st.integers(0, len(out) - 1))] ^= draw(st.integers(1, 255))
    return bytes(out)


def _load_raises_only_its_named_error(root, name, data):
    path = root / name / "damaged"
    path.write_bytes(data)
    load, error, _ = LOADERS[name]
    try:
        loaded = load(path)
    except (error, RowError):  # RowError: a CSV cell, named by line
        return
    if name == "parse_report":  # what parses also re-emits, and parses again
        parse_report(emit_report(loaded, root / name / "reemit")["json"])


@pytest.mark.parametrize("name", JSON_LOADERS)
@settings(max_examples=60, **_FUZZ)
@given(edit=st.data())
def test_tree_edits_raise_only_the_named_error(valid_files, name, edit):
    root, valid = valid_files
    tree = edit.draw(_tree_edit(json.loads(valid[name])))
    _load_raises_only_its_named_error(root, name, json.dumps(tree).encode())


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=30, **_FUZZ)
@given(damage=st.data())
def test_byte_damage_raises_only_the_named_error(valid_files, name, damage):
    root, valid = valid_files
    _load_raises_only_its_named_error(root, name, damage.draw(_byte_damage(valid[name])))
