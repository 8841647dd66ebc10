"""Threshold alarm state machine over metric snapshots.

Three operating states (NORMAL, REVIEW, SUSPENDED) with hysteresis in
both directions: escalation requires a configured number of consecutive
breaching periods, de-escalation requires a configured number of
consecutive clean periods per step down, and no evaluation ever moves the
state more than one level. A period breaches when any enabled metric
crosses its bound (disjunctive default; a conjunctive flag requires all
enabled metrics to cross at once).

State transitions happen only through evaluate(), which returns a new
immutable state carrying an append-only history. A saved engine stores
the snapshots and, at load, evaluates them again in order instead of
storing the decisions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .core import MetricSnapshot, TimeIndex, check_fields
from .errors import NoMetrics


class OperatingState(enum.Enum):
    NORMAL = "normal"
    REVIEW = "review"
    SUSPENDED = "suspended"


_LADDER = [OperatingState.NORMAL, OperatingState.REVIEW, OperatingState.SUSPENDED]


@dataclass(frozen=True)
class ThresholdPolicy:
    """Bounds and hysteresis for the alarm machine.

    A bound of None disables that metric. A metric breaches only when it
    is strictly above its bound (ece_max, cvar_max, regret_rate_max or
    drift_min): a drift score equal to drift_min does not alarm.
    conjunctive=True requires every enabled, defined metric to breach in
    the same period before the period counts as breaching.

    Each setting is checked here, so a bad one fails before any record is
    read: a bound is None or a finite number, at least one bound is set,
    the streak counts are integers, conjunctive is a bool; else ValueError.
    """

    ece_max: float | None = 0.045
    cvar_max: float | None = 0.13
    regret_rate_max: float | None = None
    drift_min: float | None = None
    consecutive_for_review: int = 1
    consecutive_for_suspend: int = 3
    recovery_periods: int = 2
    conjunctive: bool = False

    def __post_init__(self):
        check_fields(self, {})  # each setting in its annotation's default range
        if not self.bounds():
            raise ValueError(f"{', '.join(_BOUND_FIELDS.values())} are all None: "
                             "no metric is bounded")
        if self.consecutive_for_suspend < self.consecutive_for_review:
            raise ValueError("consecutive_for_suspend must be >= consecutive_for_review")

    def bounds(self) -> dict[str, float]:
        """Enabled metric name -> bound."""
        return {metric: getattr(self, name) for metric, name in _BOUND_FIELDS.items()
                if getattr(self, name) is not None}


# each bounded metric and the policy field holding its bound
_BOUND_FIELDS = {"ece": "ece_max", "cvar": "cvar_max",
                 "regret_rate": "regret_rate_max", "drift_score": "drift_min"}


@dataclass(frozen=True)
class AlarmRecord:
    """One evaluation: the period's closing time, the resulting state and
    the bounded metrics that breached. Only evaluate() makes one."""

    time: TimeIndex
    state: OperatingState
    breached: tuple[str, ...]


@dataclass(frozen=True)
class AlarmState:
    """Immutable machine state; history is append-only across evaluate(),
    which makes every state but the initial AlarmState()."""

    state: OperatingState = OperatingState.NORMAL
    breach_streak: int = 0
    clean_streak: int = 0
    history: tuple[AlarmRecord, ...] = ()


def breach(snapshot: MetricSnapshot,
           policy: ThresholdPolicy) -> tuple[tuple[str, ...], bool]:
    """The enabled, defined metrics the snapshot has over their bounds, and
    whether the period counts as breaching: any of them (disjunctive), or
    every enabled, defined metric (conjunctive). A snapshot with no enabled
    metric defined raises NoMetrics."""
    defined = snapshot.defined()
    considered = {name: bound for name, bound in policy.bounds().items() if name in defined}
    if not considered:
        # nothing to judge: every enabled metric is undefined here. Failing
        # loudly beats silently scoring the period as clean.
        raise NoMetrics(
            "no enabled metric is defined in this snapshot "
            f"(enabled: {sorted(policy.bounds())}, defined: {sorted(defined)})")
    breached = tuple(name for name, bound in considered.items() if defined[name] > bound)
    if policy.conjunctive:
        return breached, len(breached) == len(considered)
    return breached, bool(breached)


def evaluate(
    state: AlarmState,
    snapshot: MetricSnapshot,
    policy: ThresholdPolicy,
) -> AlarmState:
    """Advance the alarm machine by one period.

    Moves at most one level: NORMAL -> REVIEW after consecutive_for_review
    breaching periods (as breach() judges them), REVIEW -> SUSPENDED after
    consecutive_for_suspend, and one level down after recovery_periods
    consecutive clean periods (the clean counter restarts after each step
    down). NORMAL never jumps straight to SUSPENDED.
    """
    breached, is_breach = breach(snapshot, policy)
    level = _LADDER.index(state.state)
    if is_breach:
        breach_streak, clean_streak = state.breach_streak + 1, 0
        threshold = (policy.consecutive_for_review if level == 0
                     else policy.consecutive_for_suspend)
        if breach_streak >= threshold:
            level = min(level + 1, len(_LADDER) - 1)
    else:
        breach_streak, clean_streak = 0, state.clean_streak + 1
        if level > 0 and clean_streak >= policy.recovery_periods:
            level -= 1
            clean_streak = 0  # each step down needs a fresh clean run
    new_state = _LADDER[level]
    record = AlarmRecord(time=snapshot.time, state=new_state, breached=breached)
    return AlarmState(
        state=new_state,
        breach_streak=breach_streak,
        clean_streak=clean_streak,
        history=state.history + (record,),
    )

