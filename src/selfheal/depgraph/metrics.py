"""Prediction quality metrics: lead time, accuracy, alarm and miss rates."""

from __future__ import annotations

import numpy as np

from ..errors import InputError
from ..simulator import CascadeTrace
from ..simulator.cascade import NEVER
from .gnn import DEFAULT_FLAG_THRESHOLD, FailurePrediction, GnnParams, fails_within, scan_failures

_EVAL_OFFSET = 1  # node_failure_accuracy scores the tick after each onset


def check_tick_seconds(tick_seconds: float) -> None:
    """A tick must last more than 0 seconds."""
    if tick_seconds <= 0:
        raise InputError(f"tick_seconds must be > 0, got {tick_seconds}")


def _failed_and_flagged(pred: FailurePrediction, truth: CascadeTrace):
    """The trace's failure ticks and the prediction's flag ticks, of the same nodes."""
    fails, flags = truth.failure_ticks, pred.flag_ticks
    if fails.shape != flags.shape:
        raise InputError(f"prediction covers {len(flags)} nodes, trace {len(fails)}")
    return fails, flags


def mttfp(
    pred: FailurePrediction, truth: CascadeTrace, tick_seconds: float
) -> float | None:
    """Mean lead time, in seconds, over correct strictly-early failure flags.

    Only nodes that truly fail AND were flagged strictly before their failure
    tick qualify; flags at or after the failure tick, and flags on healthy
    nodes, are excluded (those show up in prediction_rates instead). Returns
    None when no node qualifies.
    """
    check_tick_seconds(tick_seconds)
    fails, flags = _failed_and_flagged(pred, truth)
    early = (fails != NEVER) & (flags != NEVER) & (flags < fails)
    if not early.any():
        return None
    return float(np.mean((fails[early] - flags[early]) * tick_seconds))


def prediction_rates(
    pred: FailurePrediction, truth: CascadeTrace
) -> dict[str, float]:
    """false_alarm_rate: flagged share of never-failing nodes.
    miss_rate: never-flagged share of truly-failing nodes."""
    fails, flags = _failed_and_flagged(pred, truth)
    failing, flagged = fails != NEVER, flags != NEVER
    healthy_flags, failing_flags = flagged[~failing], flagged[failing]
    return {
        "false_alarm_rate": float(healthy_flags.mean()) if healthy_flags.size else 0.0,
        "miss_rate": float((~failing_flags).mean()) if failing_flags.size else 0.0,
    }


def score_traces(
    gnn: GnnParams, traces: list[CascadeTrace],
    flag_threshold: float = DEFAULT_FLAG_THRESHOLD,
) -> tuple[float, list[FailurePrediction]]:
    """`node_failure_accuracy(gnn, traces, flag_threshold)` and, per trace,
    `predict_failures` over all its ticks, from one scan of each trace."""
    if not traces:
        raise InputError("traces must be nonempty")
    correct = 0
    total = 0
    predictions = []
    for trace in traces:
        probs, prediction = scan_failures(trace.graph, trace.telemetry, gnn, trace.ticks,
                                          flag_threshold)
        predictions.append(prediction)
        tick = min(trace.onset + _EVAL_OFFSET, trace.ticks - 1)
        labels = fails_within(trace, tick, gnn.label_horizon)
        correct += int(np.sum((probs[tick] >= flag_threshold) == (labels == 1.0)))
        total += len(labels)
    return correct / total, predictions


def node_failure_accuracy(
    gnn: GnnParams, traces: list[CascadeTrace], flag_threshold: float = DEFAULT_FLAG_THRESHOLD
) -> float:
    """Accuracy of 'fails within the label horizon' at onset + _EVAL_OFFSET."""
    return score_traces(gnn, traces, flag_threshold)[0]
