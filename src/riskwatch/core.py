"""Shared domain types, stream plumbing and the one summation rule (fsum).

The toolkit processes a totally ordered stream of prediction events that are
later resolved by outcome records. The streaming engine joins them through
the Joiner here and scores each closed period into a MetricSnapshot; join()
applies the same Joiner to whole streams, so both follow one set of join
rules.

Ordering model: a single writer appends events with strictly increasing
sequence numbers and nondecreasing periods. Outcomes may arrive out of order
relative to events; resolved pairs are always emitted in event order.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, fields
from typing import ClassVar, Iterable, Iterator, Sequence

from .errors import DuplicateOutcome, OrphanOutcome

logger = logging.getLogger(__name__)

_FLOAT_MAX = sys.float_info.max


def finite_number(value) -> bool:
    """The one number test: a float or a non-bool int, in the finite float
    range (so not NaN). The record types inline it, for speed."""
    return (isinstance(value, float) or type(value) is int) and (
        -_FLOAT_MAX <= value <= _FLOAT_MAX)


def fsum(values: Sequence[float], divisor: float = 1) -> float:
    """The one sum of losses or regrets, over divisor: math.fsum's where that
    is finite, else the exact quotient rounded once, so a mean of finite
    values is finite. An inf value gives inf, as in math.fsum. values is a
    sequence, read up to three times, and may hold an exact Fraction."""
    try:
        return math.fsum(values) / divisor
    except OverflowError:  # a partial sum left the float range
        if any(map(math.isinf, values)):
            return math.fsum(filter(math.isinf, values))
    from fractions import Fraction  # here, not at import: it loads decimal
    exact = sum(map(Fraction, values)) / Fraction(divisor)
    try:
        return float(exact)
    except OverflowError:  # the quotient itself passes the range
        return math.inf if exact > 0 else -math.inf


def check_event_id(value) -> str:
    """The event_id rule: a non-empty str, returned as it is; else ValueError."""
    if type(value) is not str or not value:
        raise ValueError(f"event_id must be a non-empty string, got {value!r}")
    return value


def check_sequence(value) -> int:
    """The sequence rule: an integer >= 0, returned as it is; else ValueError."""
    if type(value) is not int or value < 0:
        raise ValueError(f"sequence must be an integer >= 0, got {value!r}")
    return value


@dataclass(frozen=True, order=True, slots=True)
class TimeIndex:
    """Position of an event in deployment time.

    period is the coarse reporting bucket (e.g. calendar month of
    deployment, 1-based); sequence is the global arrival counter that
    totally orders the stream.
    """

    period: int
    sequence: int

    def __post_init__(self):
        if type(self.period) is not int or self.period < 1:
            raise ValueError(f"period must be an integer >= 1, got {self.period!r}")
        check_sequence(self.sequence)


@dataclass(frozen=True, slots=True)
class PredictionEvent:
    """One model prediction at serving time.

    action_id is the action the deployed policy took on this prediction
    (None when the log carries no decision trail); whether it lies in the
    decision set is checked when its outcome is scored. model_version tags
    the frozen model that produced the probability. Each field's type is
    checked too, so every record built here reads back from its log line.
    """

    event_id: str
    time: TimeIndex
    predicted_prob: float
    action_id: int | None = None
    model_version: str = "unversioned"
    cohort: str | None = None

    def __post_init__(self):
        check_event_id(self.event_id)
        prob = self.predicted_prob
        if not ((isinstance(prob, float) or type(prob) is int) and 0.0 <= prob <= 1.0):
            raise ValueError(
                f"predicted_prob must be a number, finite, in [0, 1]; got {prob!r}")
        if self.action_id is not None and type(self.action_id) is not int:
            raise ValueError(
                f"action_id must be None or an integer, got {self.action_id!r}")
        if type(self.model_version) is not str:
            raise ValueError(
                f"model_version must be a string, got {self.model_version!r}")
        if self.cohort is not None and type(self.cohort) is not str:
            raise ValueError(f"cohort must be None or a string, got {self.cohort!r}")


@dataclass(frozen=True, slots=True)
class OutcomeRecord:
    """Resolution of one prediction event.

    outcome is the realized binary label; loss is the realized harm in
    whatever units the deployment accounts for. alt_losses, when present,
    gives the counterfactual loss of every action in the decision set
    (indexed by action_id) and alt_losses[chosen action] equals loss.
    Losses are finite, as the engine's snapshot requires.
    """

    event_id: str
    outcome: int
    loss: float
    alt_losses: tuple[float, ...] | None = None

    def __post_init__(self):
        check_event_id(self.event_id)
        if type(self.outcome) is not int or self.outcome not in (0, 1):
            raise ValueError(f"outcome must be the integer 0 or 1, got {self.outcome!r}")
        loss = self.loss
        if not ((isinstance(loss, float) or type(loss) is int)
                and -_FLOAT_MAX <= loss <= _FLOAT_MAX):
            raise ValueError(f"loss must be finite: a float or an int; got {loss!r}")
        alts = self.alt_losses
        if alts is not None:
            if type(alts) is list:
                alts = tuple(alts)
                object.__setattr__(self, "alt_losses", alts)
            if type(alts) is not tuple or not alts:
                raise ValueError(
                    f"alt_losses must be a non-empty list or tuple, got {alts!r}")
            for alt in alts:
                if not ((isinstance(alt, float) or type(alt) is int)
                        and -_FLOAT_MAX <= alt <= _FLOAT_MAX):
                    raise ValueError(f"alt_losses must be finite numbers, got {alts!r}")


@dataclass(frozen=True, slots=True)
class ResolvedPair:
    """A prediction joined with its outcome."""

    event: PredictionEvent
    outcome: OutcomeRecord


@dataclass(frozen=True, slots=True)
class MetricSnapshot:
    """Per-period readout of every monitored metric.

    Any metric may be undefined (None), e.g. auc on a single-class period
    or regret on a log without counterfactual losses. Undefined is a value,
    not an error; downstream consumers (alarms, reports) must handle it.
    n, an integer >= 1, is the number of resolved pairs behind it, and
    positives, an integer in [0, n], the number of them with outcome 1. A
    defined metric is a float or a non-bool int, never NaN (the engine state
    stores None as NaN), and may be inf (a regret overflow).
    """

    time: TimeIndex
    n: int
    positives: int = 0
    ece: float | None = None
    brier: float | None = None
    auc: float | None = None
    var: float | None = None
    cvar: float | None = None
    regret_cumulative: float | None = None
    regret_rate: float | None = None
    posterior_mean: float | None = None
    drift_score: float | None = None

    METRIC_FIELDS: ClassVar[tuple[str, ...]]  # every field after time and the counts

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        if type(self.positives) is not int or not 0 <= self.positives <= self.n:
            raise ValueError(f"positives must be an integer in [0, n], got {self.positives!r}")
        defined = self.defined()
        if not defined:
            raise ValueError("snapshot must carry at least one defined metric")
        for name, value in defined.items():
            if not (isinstance(value, float) or type(value) is int) or value != value:
                raise ValueError(f"{name} must be None or a number, not NaN; got {value!r}")

    def defined(self) -> dict[str, float]:
        """Mapping of metric name -> value for the metrics that are defined."""
        return {
            f: getattr(self, f)
            for f in self.METRIC_FIELDS
            if getattr(self, f) is not None
        }


MetricSnapshot.METRIC_FIELDS = tuple(f.name for f in fields(MetricSnapshot)[3:])


class Joiner:
    """Predictions waiting for their outcome, and the ids resolved lately.

    The one place that decides whether a record joins. Events must arrive
    with increasing sequence numbers, so a repeated (or re-fed) event, whose
    seq is not above the last accepted one, raises ValueError. An outcome
    naming an id in resolved_ids (a dict, its values None) raises
    DuplicateOutcome, and one naming an id not pending raises OrphanOutcome.
    The owner may clear resolved_ids to keep its state bounded on an endless
    stream (the engine does at each period close); a second outcome for a
    cleared id is then an orphan. match() only checks, so a caller can
    validate the pair before resolve() changes any state.
    """

    def __init__(self):
        self.pending: dict[str, PredictionEvent] = {}
        # a dict, not a set: at 20k ids a set's table is 2 MB, a dict's 0.4 MB
        self.resolved_ids: dict[str, None] = {}
        self.last_seq: int | None = None

    def add(self, event: PredictionEvent) -> None:
        seq = event.time.sequence
        if self.last_seq is not None and seq <= self.last_seq:
            raise ValueError(
                f"duplicate event_id {event.event_id!r} or out-of-order event: "
                f"seq {seq} is not above the last accepted seq {self.last_seq}"
            )
        if event.event_id in self.pending or event.event_id in self.resolved_ids:
            raise ValueError(f"duplicate event_id {event.event_id!r} in event stream")
        self.pending[event.event_id] = event
        self.last_seq = seq

    def match(self, outcome: OutcomeRecord) -> ResolvedPair:
        """The pair this outcome completes; the joiner is left unchanged."""
        if outcome.event_id in self.resolved_ids:
            raise DuplicateOutcome(f"second outcome for event_id {outcome.event_id!r}")
        event = self.pending.get(outcome.event_id)
        if event is None:
            raise OrphanOutcome(
                f"outcome references unknown event_id {outcome.event_id!r}"
            )
        return ResolvedPair(event, outcome)

    def resolve(self, pair: ResolvedPair) -> None:
        """Retire a matched pair's event from pending."""
        del self.pending[pair.event.event_id]
        self.resolved_ids[pair.event.event_id] = None


def join(
    events: Iterable[PredictionEvent],
    outcomes: Iterable[OutcomeRecord],
) -> Iterator[ResolvedPair]:
    """Pair prediction events with their outcome records.

    Pairs are yielded in event-stream order regardless of the order
    outcomes arrive in. Events whose outcomes never arrive are held to the
    end and dropped with a logged count. Join errors are the Joiner's: a
    repeated event_id or out-of-order seq, an orphaned outcome and a
    duplicated outcome raise. The Joiner keeps every resolved id here,
    since the events are all held anyway.
    """
    ordered = list(events)
    joiner = Joiner()
    for ev in ordered:
        joiner.add(ev)

    matched: dict[str, ResolvedPair] = {}
    cursor = 0  # next event position awaiting emission
    for out in outcomes:
        pair = joiner.match(out)
        joiner.resolve(pair)
        matched[out.event_id] = pair
        # flush the resolved prefix in event order
        while cursor < len(ordered) and ordered[cursor].event_id in matched:
            yield matched.pop(ordered[cursor].event_id)
            cursor += 1

    if joiner.pending:
        logger.warning("join: %d events left unresolved at stream end",
                       len(joiner.pending))

