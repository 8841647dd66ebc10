"""Incremental monitoring engine: streams in, per-period snapshots out.

The engine consumes interleaved prediction events and outcome records,
joins them through core.Joiner (events wait there until their outcome
arrives), scores each decision's regret with regret.step_regret as the
pair resolves, accumulates resolved pairs into the currently open period,
and on period rollover computes a MetricSnapshot (calibration, tail risk,
regret, belief) and advances the alarm state machine.

All engine state is plain JSON-serializable data, so a run can be frozen
mid-stream with to_state(), persisted, reloaded with from_state() and
continued to a bit-identical result; the per-period metric computations
see exactly the same accumulated values either way.

Ordering contract: a single writer appends events with increasing sequence
numbers and nondecreasing periods, and outcomes arrive after (and near)
their events. A pair that resolves only after its period has already been
closed is dropped with a warning rather than reopening history.

State is bounded by the open period, not by the stream: the joiner keeps
the pending events and the ids resolved since the last close, and a
repeated event is caught by its sequence number. A second outcome for an
event resolved before the last close is therefore an orphan, not a
duplicate.
"""

from __future__ import annotations

import inspect
import logging
import math
from dataclasses import asdict

import numpy as np

from . import belief as belief_mod
from .alarms import AlarmRecord, AlarmState, OperatingState, ThresholdPolicy, evaluate
from .calibration import auc, brier, ece
from .core import Joiner, MetricSnapshot, OutcomeRecord, PredictionEvent, ResolvedPair, TimeIndex
from .errors import VersionMismatch
from .regret import step_regret
from .tailrisk import cvar_tail, var

logger = logging.getLogger(__name__)

ENGINE_STATE_VERSION = 4


class MonitorEngine:
    """Streaming metric/alarm pipeline over one deployment's event log."""

    def __init__(
        self,
        policy: ThresholdPolicy | None = None,
        n_bins: int = 10,
        alpha: float = 0.95,
    ):
        self.policy = policy or ThresholdPolicy()
        self.n_bins = n_bins
        self.alpha = alpha

        self.snapshots: list[MetricSnapshot] = []
        self.alarm = AlarmState()
        self.events_seen = 0
        self.outcomes_seen = 0
        # lines of the source log behind this state; kept by the log reader
        # (eventlog.unread_lines) and only carried by the engine
        self.lines_consumed = 0

        self._join = Joiner()
        self._open_period: int | None = None
        self._acc_probs: list[float] = []
        self._acc_ys: list[int] = []
        self._acc_losses: list[float] = []
        self._acc_regrets: list[float] = []  # steps with counterfactual losses only
        self._acc_last_sequence: int | None = None
        self._baseline: tuple[float, float] | None = None  # frozen Beta(a, b)
        self._regret_cumulative: float | None = None
        self._stale_pairs = 0

    # -- stream intake -------------------------------------------------------

    def observe_event(self, event: PredictionEvent) -> None:
        self._join.add(event)
        self.events_seen += 1

    def observe_outcome(self, outcome: OutcomeRecord) -> None:
        pair = self._join.match(outcome)
        # scored (and range-checked) before the pair changes any state
        regret = None
        if pair.event.action_id is not None and outcome.alt_losses is not None:
            regret = step_regret(pair.event.action_id, outcome.alt_losses)
        # a close forgets the resolved ids, so resolve this pair after it
        self._on_pair(pair, regret)
        self._join.resolve(pair)
        self.outcomes_seen += 1

    def finalize(self) -> None:
        """Close the open period and flush warnings for unresolved events."""
        if self._open_period is not None and self._acc_probs:
            self._close_period()
        self._open_period = None
        if self._join.pending:
            logger.warning(
                "monitor: %d events left unresolved at stream end",
                len(self._join.pending),
            )
        if self._stale_pairs:
            logger.warning(
                "monitor: dropped %d pairs that resolved after their period closed",
                self._stale_pairs,
            )

    # -- internals -----------------------------------------------------------

    def _on_pair(self, pair: ResolvedPair, regret: float | None) -> None:
        period = pair.event.time.period
        if self._open_period is None:
            self._open_period = period
        elif period > self._open_period:
            self._close_period()
            self._open_period = period
        elif period < self._open_period:
            self._stale_pairs += 1
            return
        self._acc_probs.append(pair.event.predicted_prob)
        self._acc_ys.append(pair.outcome.outcome)
        self._acc_losses.append(pair.outcome.loss)
        if regret is not None:
            self._acc_regrets.append(regret)
        self._acc_last_sequence = pair.event.time.sequence

    def _close_period(self) -> None:
        assert self._open_period is not None and self._acc_probs
        time = TimeIndex(period=self._open_period, sequence=self._acc_last_sequence)
        n = len(self._acc_probs)
        # converted once and shared by every metric below
        probs = np.asarray(self._acc_probs, dtype=float)
        ys = np.asarray(self._acc_ys, dtype=float)
        losses = np.asarray(self._acc_losses, dtype=float)

        regret_rate = None
        if self._acc_regrets:
            period_regret = math.fsum(self._acc_regrets)
            base = 0.0 if self._regret_cumulative is None else self._regret_cumulative
            self._regret_cumulative = base + period_regret
            regret_rate = period_regret / len(self._acc_regrets)

        # rolling belief over this period; baseline frozen at first close
        positives = sum(self._acc_ys)
        rolling = belief_mod.BetaPosterior(1.0 + positives, 1.0 + (n - positives))
        if self._baseline is None:
            self._baseline = (rolling.a, rolling.b)
        baseline = belief_mod.BetaPosterior(*self._baseline)
        drift = belief_mod.drift_score(baseline, rolling)

        snapshot = MetricSnapshot(
            time=time,
            n=n,
            ece=ece(probs, ys, n_bins=self.n_bins),
            brier=brier(probs, ys),
            auc=auc(probs, ys),
            var=var(losses, self.alpha),
            cvar=cvar_tail(losses, self.alpha),
            regret_cumulative=self._regret_cumulative,
            regret_rate=regret_rate,
            posterior_mean=rolling.mean,
            drift_score=drift,
        )
        self.snapshots.append(snapshot)
        self.alarm = evaluate(self.alarm, snapshot, self.policy)

        self._acc_probs = []
        self._acc_ys = []
        self._acc_losses = []
        self._acc_regrets = []
        self._acc_last_sequence = None
        self._join.resolved_ids.clear()  # later outcomes for them are orphans

    # -- state freezing ------------------------------------------------------

    def to_state(self) -> dict:
        """Plain-data image of the full engine state."""
        return {
            "engine_version": ENGINE_STATE_VERSION,
            **{name: getattr(self, name) for name in ENGINE_DEFAULTS},
            "policy": asdict(self.policy),
            "events_seen": self.events_seen,
            "outcomes_seen": self.outcomes_seen,
            "lines_consumed": self.lines_consumed,
            "open_period": self._open_period,
            "acc": {
                "probs": list(self._acc_probs),
                "ys": list(self._acc_ys),
                "losses": list(self._acc_losses),
                "regrets": list(self._acc_regrets),
                "last_sequence": self._acc_last_sequence,
            },
            "baseline": list(self._baseline) if self._baseline else None,
            "regret_cumulative": self._regret_cumulative,
            "stale_pairs": self._stale_pairs,
            "pending": [
                [
                    ev.event_id, ev.time.period, ev.time.sequence,
                    ev.predicted_prob, ev.action_id, ev.model_version, ev.cohort,
                ]
                for ev in self._join.pending.values()
            ],
            "resolved_ids": sorted(self._join.resolved_ids),
            "last_event_seq": self._join.last_seq,
            "alarm": {
                "state": self.alarm.state.value,
                "breach_streak": self.alarm.breach_streak,
                "clean_streak": self.alarm.clean_streak,
                "history": [
                    {
                        "period": rec.time.period,
                        "sequence": rec.time.sequence,
                        "state": rec.state.value,
                        "breached": list(rec.breached),
                    }
                    for rec in self.alarm.history
                ],
            },
            "snapshots": [_snapshot_to_dict(s) for s in self.snapshots],
        }

    @classmethod
    def from_state(cls, state: dict) -> "MonitorEngine":
        """Rebuild an engine from to_state() output."""
        version = state.get("engine_version")
        if version != ENGINE_STATE_VERSION:
            raise VersionMismatch(
                f"engine state version {version!r} != supported {ENGINE_STATE_VERSION}"
            )
        engine = cls(
            policy=ThresholdPolicy(**state["policy"]),
            **{name: state[name] for name in ENGINE_DEFAULTS},
        )
        engine.events_seen = state["events_seen"]
        engine.outcomes_seen = state["outcomes_seen"]
        engine.lines_consumed = state["lines_consumed"]
        engine._open_period = state["open_period"]
        acc = state["acc"]
        engine._acc_probs = [float(x) for x in acc["probs"]]
        engine._acc_ys = [int(x) for x in acc["ys"]]
        engine._acc_losses = [float(x) for x in acc["losses"]]
        engine._acc_regrets = [float(x) for x in acc["regrets"]]
        engine._acc_last_sequence = acc["last_sequence"]
        engine._baseline = tuple(state["baseline"]) if state["baseline"] else None
        engine._regret_cumulative = state["regret_cumulative"]
        engine._stale_pairs = state["stale_pairs"]
        engine._join.pending = {
            row[0]: PredictionEvent(
                event_id=row[0],
                time=TimeIndex(period=row[1], sequence=row[2]),
                predicted_prob=row[3],
                action_id=row[4],
                model_version=row[5],
                cohort=row[6],
            )
            for row in state["pending"]
        }
        engine._join.resolved_ids = set(state["resolved_ids"])
        engine._join.last_seq = state["last_event_seq"]
        alarm = state["alarm"]
        engine.alarm = AlarmState(
            state=OperatingState(alarm["state"]),
            breach_streak=alarm["breach_streak"],
            clean_streak=alarm["clean_streak"],
            history=tuple(
                AlarmRecord(
                    time=TimeIndex(period=rec["period"], sequence=rec["sequence"]),
                    state=OperatingState(rec["state"]),
                    breached=tuple(rec["breached"]),
                )
                for rec in alarm["history"]
            ),
        )
        engine.snapshots = [_snapshot_from_dict(d) for d in state["snapshots"]]
        return engine


# engine settings and their defaults, read off the constructor: the one list
# behind the config's monitor section and the settings in to_state()
ENGINE_DEFAULTS = {
    name: param.default
    for name, param in inspect.signature(MonitorEngine).parameters.items()
    if name != "policy"
}


def _snapshot_to_dict(s: MetricSnapshot) -> dict:
    d = {"period": s.time.period, "sequence": s.time.sequence, "n": s.n}
    for f in MetricSnapshot.METRIC_FIELDS:
        d[f] = getattr(s, f)
    return d


def _snapshot_from_dict(d: dict) -> MetricSnapshot:
    return MetricSnapshot(
        time=TimeIndex(period=d["period"], sequence=d["sequence"]),
        n=d["n"],
        **{f: d[f] for f in MetricSnapshot.METRIC_FIELDS},
    )
