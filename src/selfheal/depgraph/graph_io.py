"""Graph interchange and model files.

The graph file is JSON listing nodes and weighted dependency edges; unknown
fields are rejected by name so configuration typos surface loudly. The GNN
checkpoint mirrors the detector's: a versioned JSON container that round-trips
parameters bitwise.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from ..errors import InputError, SchemaError
from ..numerics import int_from_payload, params_from_payload
from ..simulator import ComponentGraph, GraphEdge, GraphNode
from .gnn import HIDDEN_ACTIVATIONS, GnnParams, gnn_param_shapes

_NODE_FIELDS = {"id", "kind", "static_features"}
_EDGE_FIELDS = {"from", "to", "weight"}
_TOP_FIELDS = {"nodes", "edges"}


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
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    unknown = sorted(set(payload) - _TOP_FIELDS)
    if unknown:
        raise SchemaError(f"{path}: unknown top-level fields: {unknown}")
    missing = sorted(_TOP_FIELDS - set(payload))
    if missing:
        raise SchemaError(f"{path}: missing sections: {missing}")
    nodes = []
    for i, entry in enumerate(payload["nodes"]):
        if not isinstance(entry, dict):
            raise SchemaError(f"{path}: node {i} must be an object, got {entry!r}")
        unknown = sorted(set(entry) - _NODE_FIELDS)
        if unknown:
            raise SchemaError(f"{path}: node {i} has unknown fields: {unknown}")
        missing = sorted(_NODE_FIELDS - set(entry))
        if missing:
            raise SchemaError(f"{path}: node {i} missing fields: {missing}")
        try:
            features = tuple(float(x) for x in entry["static_features"])
            node = GraphNode(id=str(entry["id"]), kind=str(entry["kind"]),
                             static_features=features)
        except (TypeError, ValueError) as err:
            raise SchemaError(f"{path}: node {i}: {err}") from None
        if not all(map(math.isfinite, features)):
            raise SchemaError(f"{path}: node {i}.static_features must be finite, "
                              f"got {list(features)}")
        nodes.append(node)
    edges = []
    for i, entry in enumerate(payload["edges"]):
        if not isinstance(entry, dict):
            raise SchemaError(f"{path}: edge {i} must be an object, got {entry!r}")
        unknown = sorted(set(entry) - _EDGE_FIELDS)
        if unknown:
            raise SchemaError(f"{path}: edge {i} has unknown fields: {unknown}")
        missing = sorted(_EDGE_FIELDS - set(entry))
        if missing:
            raise SchemaError(f"{path}: edge {i} missing fields: {missing}")
        try:
            edges.append(GraphEdge(src=str(entry["from"]), dst=str(entry["to"]),
                                   weight=float(entry["weight"])))
        except (TypeError, ValueError) as err:
            raise SchemaError(f"{path}: edge {i}: {err}") from None
    try:
        return ComponentGraph(nodes, edges)
    except InputError as err:  # duplicate ids, dangling edges, ragged features
        raise SchemaError(f"{path}: {err}") from None


_GNN_FORMAT = "selfheal-gnn"
_GNN_VERSION = 1
_GNN_FIELDS = {
    "input_width", "hidden_widths", "hidden_activation", "label_horizon", "params",
}


def save_gnn(gnn: GnnParams, path: str | Path) -> None:
    payload = {
        "format": _GNN_FORMAT,
        "version": _GNN_VERSION,
        "input_width": gnn.input_width,
        "hidden_widths": list(gnn.hidden_widths),
        "hidden_activation": gnn.hidden_activation,
        "label_horizon": gnn.label_horizon,
        "params": {
            name: {"shape": list(t.shape), "values": t.values.ravel().tolist()}
            for name, t in gnn.params.items()
        },
    }
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


def load_gnn(path: str | Path) -> GnnParams:
    """Read a `save_gnn` file; parameter names and shapes must match its
    hidden widths and every value must be finite (SchemaError otherwise)."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or payload.get("format") != _GNN_FORMAT:
        raise SchemaError(f"{path}: not a GNN checkpoint")
    if payload.get("version") != _GNN_VERSION:
        raise SchemaError(f"{path}: unsupported version {payload.get('version')}")
    missing = sorted(_GNN_FIELDS - set(payload))
    if missing:
        raise SchemaError(f"{path}: missing fields: {missing}")
    input_width = int_from_payload(payload["input_width"], "input_width", path, 1)
    widths = payload["hidden_widths"]
    if not isinstance(widths, list):
        raise SchemaError(f"{path}: field 'hidden_widths' must be a list")
    hidden_widths = tuple(
        int_from_payload(w, f"hidden_widths.{i}", path, 1) for i, w in enumerate(widths)
    )
    activation = payload["hidden_activation"]
    if activation not in HIDDEN_ACTIVATIONS:
        raise SchemaError(
            f"{path}: field 'hidden_activation' must be one of "
            f"{list(HIDDEN_ACTIVATIONS)}, got {activation!r}"
        )
    params = params_from_payload(
        payload["params"], gnn_param_shapes(input_width, hidden_widths), path
    )
    return GnnParams(
        input_width=input_width,
        hidden_widths=hidden_widths,
        params=params,
        hidden_activation=activation,
        label_horizon=int_from_payload(payload["label_horizon"], "label_horizon", path, 0),
    )
