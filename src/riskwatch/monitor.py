"""Incremental monitoring engine: streams in, per-period snapshots out.

The engine consumes interleaved prediction events and outcome records,
joins them through core.Joiner (events wait there until their outcome
arrives), scores each decision's regret with regret.step_regret as the
pair resolves, accumulates resolved pairs into the currently open period,
and on period rollover computes a MetricSnapshot (calibration, tail risk,
regret, belief) and advances the alarm state machine. The state holds only
what the engine cannot recompute. A period's belief (posterior_mean,
drift_score) is a function of its counts, n and positives, and the first
period's, so a load derives it by the close's own step (_belief). The
policy is fixed for the engine's life, so the alarm history is a pure
function of the snapshots, and a load judges them again (_commit). The
events and outcomes seen are sums over the tables. None of these is stored.

All engine state is plain JSON-serializable data, so a run can be frozen
mid-stream with to_state(), persisted, reloaded with from_state() and
continued to a bit-identical result; the per-period metric computations
see exactly the same accumulated values either way. The open period's
values are held unboxed, in typed arrays (float64, uint8 for outcomes),
which a period close hands to the metrics as they are. The state says
each thing once: its tables (pending events; closed periods' counts and
metrics) are stored column-wise, and every float column (None stored as
NaN) and the open period's values as base64 of their little-endian bytes,
which round-trips bit for bit, so no metric is JSON text and no NaN or
Infinity token is needed. A state loads only if the engine it builds
writes it back unchanged. The engine never loads numpy: every metric runs
on the standard library, so a period close gives the same bits whichever
SIMD loops numpy would pick on the host.

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

import base64
import inspect
import json
import logging
import math
import sys
from array import array
from dataclasses import asdict, astuple, fields, replace
from operator import attrgetter

from . import belief as belief_mod
from .alarms import AlarmState, ThresholdPolicy, evaluate
from .calibration import auc, brier, ece
from .core import (Joiner, MetricSnapshot, OutcomeRecord, PredictionEvent,
                   ResolvedPair, TimeIndex, check_event_id, check_integer, finite_number,
                   fsum, is_outcome, is_probability)
from .errors import CorruptSnapshot, NoMetrics, VersionMismatch
from .regret import step_regret
from .tailrisk import check_alpha, cvar_tail, var

logger = logging.getLogger(__name__)

ENGINE_STATE_VERSION = 9


class MonitorEngine:
    """Streaming metric/alarm pipeline over one deployment's event log.

    Its settings are checked before any record is read, else ValueError.
    """

    def __init__(
        self,
        policy: ThresholdPolicy | None = None,
        n_bins: int = 10,
        alpha: float = 0.95,
    ):
        self.n_bins = check_integer("n_bins", n_bins, 1)
        self.alpha = check_alpha(alpha)
        self._policy = ThresholdPolicy() if policy is None else policy
        if not isinstance(self._policy, ThresholdPolicy):
            raise ValueError(f"policy must be a ThresholdPolicy, got {policy!r}")

        self.snapshots: list[MetricSnapshot] = []
        self.alarm = AlarmState()
        # lines of the source log behind this state; counted by the log
        # intake (eventlog.ingest_log, eventlog.log_pairs) and only carried here
        self.lines_consumed = 0
        self.stale_pairs = 0  # pairs that resolved after their period closed

        self._join = Joiner()
        self._new_period()

    @property
    def policy(self) -> ThresholdPolicy:
        """Read-only, so every close is judged by it, and a load judges alike."""
        return self._policy

    @property
    def outcomes_seen(self) -> int:
        """Outcomes accepted: the pairs closed, open and dropped as stale."""
        return sum(s.n for s in self.snapshots) + len(self._acc_probs) + self.stale_pairs

    @property
    def events_seen(self) -> int:
        """Events accepted: those resolved and those still pending."""
        return self.outcomes_seen + len(self._join.pending)

    # -- stream intake -------------------------------------------------------

    def observe_event(self, event: PredictionEvent) -> None:
        self._join.add(event)

    def observe_outcome(self, outcome: OutcomeRecord) -> None:
        pair = self._join.match(outcome)
        # scored (and range-checked) before the pair changes any state
        regret = None
        if pair.event.action_id is not None and outcome.alt_losses is not None:
            regret = step_regret(pair.event.action_id, outcome.alt_losses)
        # a close forgets the resolved ids, so resolve this pair after it
        self._on_pair(pair, regret)
        self._join.resolve(pair)

    def finalize(self) -> None:
        """Close the open period and flush warnings for unresolved events."""
        if self._open_time is not None:
            self._close_period()
        if self._join.pending:
            logger.warning("monitor: %d events left unresolved at stream end",
                           len(self._join.pending))
        if self.stale_pairs:
            logger.warning("monitor: dropped %d pairs that resolved after their "
                           "period closed", self.stale_pairs)

    # -- internals -----------------------------------------------------------

    def _stale(self, period: int) -> bool:
        """The one period rule: would a pair or a closed period here reopen history?"""
        if self._open_time is not None:
            return period < self._open_time.period
        return bool(self.snapshots) and period <= self.snapshots[-1].time.period

    def _on_pair(self, pair: ResolvedPair, regret: float | None) -> None:
        time = pair.event.time
        if self._stale(time.period):
            self.stale_pairs += 1
            return
        if self._open_time is not None and time.period > self._open_time.period:
            self._close_period()
        self._acc_probs.append(pair.event.predicted_prob)
        self._acc_ys.append(pair.outcome.outcome)
        self._acc_losses.append(pair.outcome.loss)
        if regret is not None:
            self._acc_regrets.append(regret)
        self._open_time = time

    def _close_period(self) -> None:
        assert self._open_time is not None and self._acc_probs
        n = len(self._acc_probs)

        # computed into locals and committed only once evaluate has passed,
        # so a failed close (NoMetrics) leaves the engine as it was
        regret_cumulative, regret_rate = None, None
        if self.snapshots:  # the regret summed over the closed periods
            regret_cumulative = self.snapshots[-1].regret_cumulative
        if self._acc_regrets:
            regret_cumulative = (regret_cumulative or 0.0) + fsum(self._acc_regrets)
            regret_rate = fsum(self._acc_regrets, len(self._acc_regrets))

        positives = sum(self._acc_ys)
        # sorted once: var's and cvar_tail's own sorts are then linear passes
        losses = array("d", sorted(self._acc_losses))
        snapshot = MetricSnapshot(
            time=self._open_time,
            n=n,
            positives=positives,
            ece=ece(self._acc_probs, self._acc_ys, n_bins=self.n_bins),
            brier=brier(self._acc_probs, self._acc_ys),
            auc=auc(self._acc_probs, self._acc_ys),
            var=var(losses, self.alpha),
            cvar=cvar_tail(losses, self.alpha),
            regret_cumulative=regret_cumulative,
            regret_rate=regret_rate,
            **self._belief(n, positives),
        )
        before = self.alarm.state
        self._commit(snapshot)
        if self.alarm.state is not before:
            logger.info("alarm transition at %s: %s -> %s (breached: %s)",
                        snapshot.time, before.value, self.alarm.state.value,
                        ",".join(self.alarm.history[-1].breached) or "none")
        self._new_period()
        self._join.resolved_ids.clear()  # later outcomes for them are orphans

    def _belief(self, n: int, positives: int) -> dict[str, float]:
        """The belief fields (_DERIVED) of a period closed now with n pairs,
        positives of them positive: the mean of its rolling posterior,
        Beta(1 + positives, 1 + n - positives), and its drift from the
        baseline, the first closed period's posterior (its own at the first)."""
        def posterior(m: int, k: int) -> belief_mod.BetaPosterior:
            return belief_mod.update_batch(belief_mod.BetaPosterior(), k, m - k)

        rolling = posterior(n, positives)
        first = self.snapshots[0] if self.snapshots else None
        baseline = posterior(first.n, first.positives) if first else rolling
        return {"posterior_mean": rolling.mean,
                "drift_score": belief_mod.drift_score(baseline, rolling)}

    def _commit(self, snapshot: MetricSnapshot) -> None:
        """Judge a closed period and append it, or raise and change nothing."""
        if self._stale(snapshot.time.period):
            raise ValueError(f"closed period {snapshot.time.period} would reopen history")
        self.alarm = evaluate(self.alarm, snapshot, self.policy)
        self.snapshots.append(snapshot)

    def _new_period(self) -> None:
        """An empty open period: no latest time, and empty _ACC arrays."""
        self._open_time: TimeIndex | None = None  # the open period's latest pair
        for name, (typecode, _) in _ACC.items():
            setattr(self, f"_acc_{name}", array(typecode))

    # -- state freezing ------------------------------------------------------

    def to_state(self) -> dict:
        """Plain-data image of the full engine state."""
        return {
            "engine_version": ENGINE_STATE_VERSION,
            **{name: getattr(self, name) for name in (*ENGINE_DEFAULTS, *_COUNTERS)},
            "policy": asdict(self.policy),
            "open_time": list(astuple(self._open_time)) if self._open_time else None,
            "acc": {name: _pack(getattr(self, f"_acc_{name}"), typecode)
                    for name, (typecode, _) in _ACC.items()},
            "pending": _columns(self._join.pending.values(), PredictionEvent),
            "resolved_ids": sorted(self._join.resolved_ids),
            "last_event_seq": self._join.last_seq,
            # one row per closed period; a load derives its belief and judges it again
            "snapshots": _columns(self.snapshots, MetricSnapshot),
        }

    @classmethod
    def from_state(cls, state: dict) -> "MonitorEngine":
        """Rebuild an engine from to_state() output.

        A state of another version raises VersionMismatch. A state loads
        only if intake's own steps (_commit, _stale, Joiner.add) accept it
        and the engine they build writes it back unchanged under canonical
        JSON; any other raises CorruptSnapshot, naming the first key or
        column that differs, or the rule it breaks.
        """
        if not isinstance(state, dict):
            raise CorruptSnapshot(
                f"engine state must be an object, got {type(state).__name__}")
        version = state.get("engine_version")
        if version != ENGINE_STATE_VERSION:
            raise VersionMismatch(
                f"engine state version {version!r} != supported {ENGINE_STATE_VERSION}"
            )
        try:
            engine = cls._thaw(state)
            differs = _first_difference(state, engine.to_state())
            if differs is not None:
                raise ValueError(f"{differs!r} is not as to_state() writes it")
        except (KeyError, IndexError, TypeError, ValueError, NoMetrics) as exc:
            raise CorruptSnapshot(f"engine state is malformed: {exc!r}") from exc
        return engine

    @classmethod
    def _thaw(cls, state: dict) -> "MonitorEngine":
        """The engine the state describes, built by intake's own steps."""
        engine = cls(
            policy=ThresholdPolicy(**_typed(state["policy"], dict, "policy")),
            **{name: state[name] for name in ENGINE_DEFAULTS},
        )
        for name in _COUNTERS:
            setattr(engine, name, check_integer(name, state[name], 0))
        for row in _from_columns(MetricSnapshot, _typed(state["snapshots"], dict, "snapshots")):
            engine._commit(replace(row, **engine._belief(row.n, row.positives)))
        acc = _typed(state["acc"], dict, "acc")
        for name, (typecode, valid) in _ACC.items():
            setattr(engine, f"_acc_{name}",
                    array(typecode, _column(acc, name, typecode, valid)))
        if not len(engine._acc_probs) == len(engine._acc_ys) == len(engine._acc_losses):
            raise ValueError("open period values differ in length")
        if state["open_time"] is not None:
            open_time = TimeIndex(*_typed(state["open_time"], list, "open_time"))
            if engine._stale(open_time.period):
                raise ValueError(f"open period {open_time.period} would reopen history")
            engine._open_time = open_time
        if (engine._open_time is not None) != bool(engine._acc_probs):
            raise ValueError("the open period and its values disagree")
        engine._join.resolved_ids = dict.fromkeys(
            check_event_id(i) for i in _typed(state["resolved_ids"], list, "resolved_ids"))
        for event in _from_columns(PredictionEvent, _typed(state["pending"], dict, "pending")):
            engine._join.add(event)
        if state["last_event_seq"] is not None:  # below a pending seq, it differs
            last_seq = check_integer("last_event_seq", state["last_event_seq"], 0)
            engine._join.last_seq = max(last_seq, engine._join.last_seq or 0)
        return engine


# engine settings and their defaults, read off the constructor: the one list
# behind the config's monitor section and the settings in to_state()
ENGINE_DEFAULTS = {
    name: param.default
    for name, param in inspect.signature(MonitorEngine).parameters.items()
    if name != "policy"
}


# the open period's value arrays: the typecode each is held and packed in
# (float64 "d", or uint8 "B" for outcomes, on every host) and the test a
# loaded value must pass (to_state() writes no other), the record's own rule
_ACC = {
    "probs": ("d", is_probability),
    "ys": ("B", is_outcome),
    "losses": ("d", finite_number),
    # steps with counterfactual losses only; a step's regret can overflow to +inf
    "regrets": ("d", lambda v: v >= 0.0),
}

# the stream counters that no table implies, each an integer >= 0
_COUNTERS = ("lines_consumed", "stale_pairs")

# the MetricSnapshot fields a load derives from the counts (_belief), so
# no table stores them
_DERIVED = ("posterior_mean", "drift_score")


def _pack(values, typecode: str) -> str:
    """Numbers (a list or an array) as base64 of their little-endian bytes
    as the array typecode, "d" or "B"."""
    values = array(typecode, values)
    if sys.byteorder == "big":
        values.byteswap()
    return base64.b64encode(values.tobytes()).decode("ascii")


def _unpack(text: str, typecode: str, valid=None) -> list:
    """The list _pack() encoded. Malformed text, or a value for which the
    predicate valid is false, raises ValueError."""
    values = array(typecode)
    values.frombytes(base64.b64decode(text, validate=True))
    if sys.byteorder == "big":
        values.byteswap()
    if valid is not None:
        for value in values:
            if not valid(value):
                raise ValueError(f"packed value {value!r} is out of range")
    return values.tolist()


def _column(columns: dict, name: str, typecode: str, valid=None) -> list:
    """The values of the packed column columns[name]; a column that is not
    _pack() text, or holds a value valid refuses, raises ValueError naming it."""
    text = _typed(columns[name], str, name)
    try:
        return _unpack(text, typecode, valid)
    except ValueError as exc:  # binascii.Error is one
        raise ValueError(f"{name}: {exc}") from exc


def _typed(value, kind: type, name: str):
    """value, if it has the JSON type kind (list, dict or str) that
    to_state() writes for it; any other raises ValueError naming it."""
    if type(value) is not kind:
        raise ValueError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def _first_difference(loaded, written) -> str | None:
    """The first key, in sorted order, at which two states differ under
    canonical JSON, as a dotted path ("" for the values themselves); None
    if they do not differ."""
    if type(loaded) is not dict or type(written) is not dict:
        return None if json.dumps(loaded) == json.dumps(written) else ""
    for key in sorted(loaded.keys() | written.keys()):
        if key not in loaded or key not in written:
            return key
        inner = _first_difference(loaded[key], written[key])
        if inner is not None:
            return f"{key}.{inner}" if inner else key
    return None


def _layout(cls) -> dict[str, tuple[str, bool]]:
    """The plain-data columns of a record class, read off its fields: each
    column's attribute path, and whether it is stored packed (a field
    annotated float, or float | None, is). A time field is stored as its
    period and sequence, and a _DERIVED field not at all."""
    return {path.rpartition(".")[2]: (path, f.type in ("float", "float | None"))
            for f in fields(cls) if f.name not in _DERIVED for path in (
                ("time.period", "time.sequence") if f.name == "time" else (f.name,))}


def _columns(records, cls) -> dict:
    """Records stored column-wise, one column per _layout() column: _pack()
    text of float64 values if it is packed, with None stored as NaN (which
    no record holds), else a JSON list."""
    columns = {}
    for name, (path, packed) in _layout(cls).items():
        values = list(map(attrgetter(path), records))
        columns[name] = (_pack([math.nan if v is None else v for v in values], "d")
                         if packed else values)
    return columns


def _from_columns(cls, columns: dict) -> list:
    """The records of _columns() output, each rebuilt through the class's
    own constructor, which checks every value. A column that is missing, of
    another JSON type or of another length than the first raises an error
    naming it."""
    values = {name: [None if math.isnan(v) else v for v in _column(columns, name, "d")]
              if packed else _typed(columns[name], list, name)
              for name, (_, packed) in _layout(cls).items()}
    length = len(next(iter(values.values())))
    for name, column in values.items():
        if len(column) != length:
            raise ValueError(f"column {name!r} holds {len(column)} values, not {length}")
    if "period" in values:
        values["time"] = list(map(TimeIndex, values.pop("period"), values.pop("sequence")))
    return [cls(**dict(zip(values, row))) for row in zip(*values.values())]
