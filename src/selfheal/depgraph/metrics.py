"""Prediction quality metrics: lead time, accuracy, alarm and miss rates."""

from __future__ import annotations

import numpy as np

from ..errors import InputError
from ..simulator import CascadeTrace
from .gnn import (
    FailurePrediction, GnnParams, _node_probs, edge_arrays, fails_within, init_embeddings,
)

_EVAL_OFFSET = 1  # node_failure_accuracy scores the tick after each onset


def mttfp(
    pred: FailurePrediction, truth: CascadeTrace, tick_seconds: float
) -> float | None:
    """Mean lead time, in seconds, over correct strictly-early failure flags.

    Only nodes that truly fail AND were flagged strictly before their failure
    tick qualify; flags at or after the failure tick, and flags on healthy
    nodes, are excluded (those show up in prediction_rates instead). Returns
    None when no node qualifies.
    """
    if tick_seconds <= 0:
        raise InputError(f"tick_seconds must be > 0, got {tick_seconds}")
    if set(pred.per_node) != set(truth.failure_times):
        raise InputError("prediction and trace cover different node sets")
    leads = []
    for nid, (_prob, flag_tick) in pred.per_node.items():
        fail_tick = truth.failure_times[nid]
        if fail_tick is None or flag_tick is None or flag_tick >= fail_tick:
            continue
        leads.append((fail_tick - flag_tick) * tick_seconds)
    if not leads:
        return None
    return float(np.mean(leads))


def prediction_rates(
    pred: FailurePrediction, truth: CascadeTrace
) -> dict[str, float]:
    """false_alarm_rate: flagged share of never-failing nodes.
    miss_rate: never-flagged share of truly-failing nodes."""
    if set(pred.per_node) != set(truth.failure_times):
        raise InputError("prediction and trace cover different node sets")
    failing = [n for n, t in truth.failure_times.items() if t is not None]
    healthy = [n for n, t in truth.failure_times.items() if t is None]
    flagged = set(pred.flagged())
    false_alarms = sum(1 for n in healthy if n in flagged)
    misses = sum(1 for n in failing if n not in flagged)
    return {
        "false_alarm_rate": false_alarms / len(healthy) if healthy else 0.0,
        "miss_rate": misses / len(failing) if failing else 0.0,
    }


def node_failure_accuracy(
    gnn: GnnParams, traces: list[CascadeTrace], flag_threshold: float = 0.5
) -> float:
    """Accuracy of 'fails within the label horizon' at onset + _EVAL_OFFSET."""
    if not traces:
        raise InputError("traces must be nonempty")
    correct = 0
    total = 0
    for trace in traces:
        tick = min(trace.onset + _EVAL_OFFSET, trace.ticks - 1)
        h0 = init_embeddings(trace.graph, trace.node_telemetry, tick).vectors
        probs = _node_probs(gnn, edge_arrays(trace.graph), h0)
        labels = fails_within(trace, tick, gnn.label_horizon)
        correct += int(np.sum((probs >= flag_threshold) == (labels == 1.0)))
        total += len(labels)
    return correct / total
