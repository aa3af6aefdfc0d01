"""Graph interchange and model files.

The graph file is JSON listing nodes and weighted dependency edges; unknown
fields are rejected by name so configuration typos surface loudly. The GNN
checkpoint is the detector's versioned JSON container (`numerics.write_model`),
which round-trips parameters bitwise.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import InputError, SchemaError
from ..files import fields, integer, number, read_json, string
from ..numerics import gnn_param_shapes, params_from_payload, read_model, write_model
from ..simulator import ComponentGraph, GraphEdge, GraphNode
from .gnn import GnnParams


def write_graph(graph: ComponentGraph, path: str | Path) -> None:
    payload = {
        "nodes": [
            {
                "id": n.id,
                "kind": n.kind,
                "static_features": list(n.static_features),
            }
            for n in graph.nodes
        ],
        "edges": [
            {"from": e.src, "to": e.dst, "weight": e.weight} for e in graph.edges
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


def read_graph(path: str | Path) -> ComponentGraph:
    payload = fields(read_json(path), str(path), ("nodes", "edges"))
    for section in ("edges", "nodes"):
        if not isinstance(payload[section], list):
            raise SchemaError(f"{path}: section '{section}' must be a list, "
                              f"got {payload[section]!r}")
    nodes = []
    for i, entry in enumerate(payload["nodes"]):
        where = f"{path}: node {i}"
        fields(entry, where, ("id", "kind", "static_features"))
        features = entry["static_features"]
        if not isinstance(features, list):
            raise SchemaError(f"{where}.static_features must be a list, got {features!r}")
        features = tuple(float(number(x, f"{where}.static_features.{j}"))
                         for j, x in enumerate(features))
        node_id, kind = string(entry["id"], f"{where}.id"), string(entry["kind"], f"{where}.kind")
        try:
            nodes.append(GraphNode(id=node_id, kind=kind, static_features=features))
        except InputError as err:  # an unknown kind
            raise SchemaError(f"{where}: {err}") from None
    edges = []
    for i, entry in enumerate(payload["edges"]):
        where = f"{path}: edge {i}"
        fields(entry, where, ("from", "to", "weight"))
        src, dst = string(entry["from"], f"{where}.from"), string(entry["to"], f"{where}.to")
        weight = entry["weight"]
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise SchemaError(f"{where}.weight must be a number, got {weight!r}")
        try:
            edges.append(GraphEdge(src=src, dst=dst, weight=float(weight)))
        except (InputError, OverflowError) as err:  # a self-edge, or outside (0, 1]
            raise SchemaError(f"{where}: {err}") from None
    try:
        return ComponentGraph(nodes, edges)
    except InputError as err:  # repeated ids or edges, dangling edges, ragged features
        raise SchemaError(f"{path}: {err}") from None


_GNN_FORMAT = "selfheal-gnn"


def save_gnn(gnn: GnnParams, path: str | Path) -> None:
    write_model(path, _GNN_FORMAT, {
        "input_width": gnn.input_width,
        "hidden_widths": list(gnn.hidden_widths),
        "hidden_activation": "relu",  # a fixed header: every GNN is relu
        "label_horizon": gnn.label_horizon,
    }, gnn_param_shapes(gnn.input_width, gnn.hidden_widths), gnn.weights)


def load_gnn(path: str | Path) -> GnnParams:
    """Read a `save_gnn` file; its hidden activation must be relu, parameter
    names and shapes must match its widths and every value must be finite
    (SchemaError otherwise)."""
    payload = read_model(path, _GNN_FORMAT, (
        "input_width", "hidden_widths", "hidden_activation", "label_horizon"))
    if payload["hidden_activation"] != "relu":
        raise SchemaError(f"{path}: field 'hidden_activation' must be 'relu', "
                          f"got {payload['hidden_activation']!r}")
    input_width = integer(payload["input_width"], f"{path}: field 'input_width'", 1)
    widths = payload["hidden_widths"]
    if not isinstance(widths, list):
        raise SchemaError(f"{path}: field 'hidden_widths' must be a list")
    hidden_widths = tuple(integer(w, f"{path}: field 'hidden_widths.{i}'", 1)
                          for i, w in enumerate(widths))
    label_horizon = integer(payload["label_horizon"], f"{path}: field 'label_horizon'", 0)
    shapes = gnn_param_shapes(input_width, hidden_widths)
    return GnnParams(params_from_payload(payload["params"], shapes, path), label_horizon)
