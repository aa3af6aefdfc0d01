"""Discretized system states and the recovery action set.

A state is an integer in [0, N_STATES): one cell of the
load level x anomaly status x failed bin grid, encoded by `state_index`.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum

from ..errors import InputError

LOAD_LEVELS = ("low", "medium", "high")
ANOMALY_STATUSES = ("none", "cpu", "memory", "lock", "io", "cascade")
# failed-fraction bins: exactly 0, (0, 0.25], (0.25, 0.5], > 0.5
FAILED_BINS = ("none", "low", "medium", "high")
_FAILED_EDGES = (0.0, 0.25, 0.5)  # upper edges of the first three bins

N_STATES = len(LOAD_LEVELS) * len(ANOMALY_STATUSES) * len(FAILED_BINS)  # 72


class RecoveryAction(Enum):
    """Recovery measures, ordered; the ordinal breaks Q-value ties."""

    NO_OP = 0
    REROUTE_QUERY = 1
    SCALE_UP = 2
    SCALE_DOWN = 3
    RESTART_COMPONENT = 4
    REBUILD_INDEX = 5
    THROTTLE_ADMISSION = 6


ACTIONS = tuple(RecoveryAction)
N_ACTIONS = len(ACTIONS)

DEFAULT_ACTION_COSTS = {
    RecoveryAction.NO_OP: 0.0,
    RecoveryAction.REROUTE_QUERY: 1.0,
    RecoveryAction.SCALE_UP: 5.0,
    RecoveryAction.SCALE_DOWN: 1.0,
    RecoveryAction.RESTART_COMPONENT: 8.0,
    RecoveryAction.REBUILD_INDEX: 10.0,
    RecoveryAction.THROTTLE_ADMISSION: 2.0,
}


def failed_bin(fraction: float) -> int:
    """The position in FAILED_BINS of a failed fraction in [0, 1]."""
    if not 0.0 <= fraction <= 1.0:
        raise InputError(f"failed fraction must be in [0, 1], got {fraction}")
    return bisect_left(_FAILED_EDGES, fraction)


def state_index(load: int, anomaly: int, failed: int) -> int:
    """The state index of positions in LOAD_LEVELS, ANOMALY_STATUSES and
    FAILED_BINS; the inverse of `state_positions`."""
    return (load * len(ANOMALY_STATUSES) + anomaly) * len(FAILED_BINS) + failed


def state_positions(index: int) -> tuple[int, int, int]:
    """The (load, anomaly, failed) positions of a state index."""
    if not 0 <= index < N_STATES:
        raise InputError(f"state index {index} outside [0, {N_STATES})")
    load, rest = divmod(index, len(ANOMALY_STATUSES) * len(FAILED_BINS))
    anomaly, failed = divmod(rest, len(FAILED_BINS))
    return load, anomaly, failed


def named_state(load_level: str, anomaly_status: str, failed: str = "none") -> int:
    """The state index of a cell given by its names."""
    try:
        return state_index(LOAD_LEVELS.index(load_level),
                           ANOMALY_STATUSES.index(anomaly_status),
                           FAILED_BINS.index(failed))
    except ValueError:
        raise InputError(
            f"unknown state ({load_level!r}, {anomaly_status!r}, {failed!r})"
        ) from None
