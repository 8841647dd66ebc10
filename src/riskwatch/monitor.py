"""Incremental monitoring engine: streams in, per-period snapshots out.

The engine consumes interleaved prediction events and outcome records,
joins them through core.Joiner (events wait there until their outcome
arrives), scores each decision's regret with regret.step_regret as the
pair resolves, accumulates resolved pairs into the currently open period,
and on period rollover computes a MetricSnapshot (calibration, tail risk,
regret, belief) and advances the alarm state machine. The policy is fixed
for the engine's life, so the alarm history is a pure function of the
snapshots: it is replayed from them (alarms.replay), not stored.

All engine state is plain JSON-serializable data, so a run can be frozen
mid-stream with to_state(), persisted, reloaded with from_state() and
continued to a bit-identical result; the per-period metric computations
see exactly the same accumulated values either way. The open period's
values are held unboxed, in typed arrays (float64, uint8 for outcomes),
which a period close hands to the metrics as they are. The state says
each thing once: its tables (pending events; closed periods' metrics) are
stored column-wise, and every float column (None stored as NaN) and the
open period's values as base64 of their little-endian bytes, which
round-trips bit for bit, so no metric is JSON text and no NaN or Infinity
token is needed. A state loads only if the engine it builds writes it back
unchanged. The engine never loads numpy: every metric runs on the standard
library, so a period close gives the same bits whichever SIMD loops numpy
would pick on the host.

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
from dataclasses import asdict, astuple, fields
from operator import attrgetter

from . import belief as belief_mod
from .alarms import ThresholdPolicy, evaluate, replay
from .calibration import auc, brier, ece
from .core import (Joiner, MetricSnapshot, OutcomeRecord, PredictionEvent,
                   ResolvedPair, TimeIndex, check_event_id, check_sequence,
                   finite_number)
from .errors import CorruptSnapshot, NoMetrics, VersionMismatch
from .regret import step_regret
from .tailrisk import cvar_tail, var

logger = logging.getLogger(__name__)

ENGINE_STATE_VERSION = 8


class MonitorEngine:
    """Streaming metric/alarm pipeline over one deployment's event log.

    The settings are checked here, before any record is read: n_bins must
    be an integer >= 1 and alpha lie in (0, 1), else ValueError.
    """

    def __init__(
        self,
        policy: ThresholdPolicy | None = None,
        n_bins: int = 10,
        alpha: float = 0.95,
    ):
        if type(n_bins) is not int or n_bins < 1:
            raise ValueError(f"n_bins must be an integer >= 1, got {n_bins!r}")
        if not (finite_number(alpha) and 0.0 < alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
        self._policy = policy or ThresholdPolicy()
        self.n_bins = n_bins
        self.alpha = alpha

        self.snapshots: list[MetricSnapshot] = []
        self.alarm = replay(self.snapshots, self.policy)
        self.events_seen = 0
        self.outcomes_seen = 0
        # lines of the source log behind this state; counted by the log
        # intake (eventlog.ingest_log, eventlog.log_pairs) and only carried here
        self.lines_consumed = 0
        self.stale_pairs = 0  # pairs that resolved after their period closed

        self._join = Joiner()
        self._new_period()
        self._baseline: belief_mod.BetaPosterior | None = None  # frozen at first close

    @property
    def policy(self) -> ThresholdPolicy:
        """Read-only, so every close is judged by it and the history replays."""
        return self._policy

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
        if self._open_time is not None:
            self._close_period()
        if self._join.pending:
            logger.warning(
                "monitor: %d events left unresolved at stream end",
                len(self._join.pending),
            )
        if self.stale_pairs:
            logger.warning(
                "monitor: dropped %d pairs that resolved after their period closed",
                self.stale_pairs,
            )

    # -- internals -----------------------------------------------------------

    def _on_pair(self, pair: ResolvedPair, regret: float | None) -> None:
        time = pair.event.time
        if self._open_time is not None:
            if time.period > self._open_time.period:
                self._close_period()
            elif time.period < self._open_time.period:
                self.stale_pairs += 1
                return
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
            try:
                period_regret = math.fsum(self._acc_regrets)
            except OverflowError:
                # regrets are >= 0, so once a partial sum passes the float
                # range the whole sum does too, and it rounds to inf
                period_regret = math.inf
            base = 0.0 if regret_cumulative is None else regret_cumulative
            regret_cumulative = base + period_regret
            regret_rate = period_regret / len(self._acc_regrets)

        # rolling belief over this period; baseline frozen at first close
        positives = sum(self._acc_ys)
        rolling = belief_mod.update_batch(
            belief_mod.BetaPosterior(), positives, n - positives)
        baseline = self._baseline or rolling
        drift = belief_mod.drift_score(baseline, rolling)

        snapshot = MetricSnapshot(
            time=self._open_time,
            n=n,
            ece=ece(self._acc_probs, self._acc_ys, n_bins=self.n_bins),
            brier=brier(self._acc_probs, self._acc_ys),
            auc=auc(self._acc_probs, self._acc_ys),
            var=var(self._acc_losses, self.alpha),
            cvar=cvar_tail(self._acc_losses, self.alpha),
            regret_cumulative=regret_cumulative,
            regret_rate=regret_rate,
            posterior_mean=rolling.mean,
            drift_score=drift,
        )
        alarm = evaluate(self.alarm, snapshot, self.policy)
        if alarm.state is not self.alarm.state:
            logger.info("alarm transition at %s: %s -> %s (breached: %s)",
                        snapshot.time, self.alarm.state.value, alarm.state.value,
                        ",".join(alarm.history[-1].breached) or "none")
        self.alarm = alarm
        self.snapshots.append(snapshot)
        self._baseline = baseline
        self._new_period()
        self._join.resolved_ids.clear()  # later outcomes for them are orphans

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
            "baseline": list(astuple(self._baseline)) if self._baseline else None,
            "pending": _columns(self._join.pending.values(), PredictionEvent),
            "resolved_ids": sorted(self._join.resolved_ids),
            "last_event_seq": self._join.last_seq,
            # one row per closed period; the alarm is replayed from them
            "snapshots": _columns(self.snapshots, MetricSnapshot),
        }

    @classmethod
    def from_state(cls, state: dict) -> "MonitorEngine":
        """Rebuild an engine from to_state() output.

        A state of another version raises VersionMismatch. A state loads
        only if its policy can judge every snapshot (the alarm history is
        replayed from them) and the engine it builds writes it back
        unchanged under canonical JSON; any other raises CorruptSnapshot,
        naming the first key or column that differs, or the unjudged metrics.
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
        engine = cls(
            policy=ThresholdPolicy(**_typed(state["policy"], dict, "policy")),
            **{name: state[name] for name in ENGINE_DEFAULTS},
        )
        for name in _COUNTERS:
            count = state[name]
            if type(count) is not int or count < 0:
                raise ValueError(f"{name} {count!r} is negative or not an integer")
            setattr(engine, name, count)
        acc = _typed(state["acc"], dict, "acc")
        for name, (typecode, valid) in _ACC.items():
            setattr(engine, f"_acc_{name}",
                    array(typecode, _column(acc, name, typecode, valid)))
        if not len(engine._acc_probs) == len(engine._acc_ys) == len(engine._acc_losses):
            raise ValueError("open period values differ in length")
        if state["open_time"] is not None:
            engine._open_time = TimeIndex(*_typed(state["open_time"], list, "open_time"))
        if (engine._open_time is not None) != bool(engine._acc_probs):
            raise ValueError("the open period and its values disagree")
        if state["baseline"] is not None:
            engine._baseline = belief_mod.BetaPosterior(
                *_typed(state["baseline"], list, "baseline"))
        pending = _from_columns(PredictionEvent, _typed(state["pending"], dict, "pending"))
        engine._join.pending = {ev.event_id: ev for ev in pending}
        engine._join.resolved_ids = dict.fromkeys(
            check_event_id(i) for i in _typed(state["resolved_ids"], list, "resolved_ids"))
        if state["last_event_seq"] is not None:
            engine._join.last_seq = check_sequence(state["last_event_seq"])
        engine.snapshots = _from_columns(
            MetricSnapshot, _typed(state["snapshots"], dict, "snapshots"))
        engine.alarm = replay(engine.snapshots, engine.policy)
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
# loaded value must pass (to_state() writes no other)
_ACC = {
    "probs": ("d", lambda v: 0.0 <= v <= 1.0),  # also false for NaN
    "ys": ("B", lambda v: v <= 1),
    "losses": ("d", math.isfinite),
    # steps with counterfactual losses only; a step's regret can overflow to +inf
    "regrets": ("d", lambda v: v >= 0.0),
}

# the stream counters, each an integer >= 0
_COUNTERS = ("events_seen", "outcomes_seen", "lines_consumed", "stale_pairs")


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
    period and sequence."""
    return {path.rpartition(".")[2]: (path, f.type in ("float", "float | None"))
            for f in fields(cls) for path in (
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
