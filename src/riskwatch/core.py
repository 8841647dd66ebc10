"""Shared domain types and stream plumbing.

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
from dataclasses import dataclass, fields
from typing import ClassVar, Iterable, Iterator

from .errors import DuplicateOutcome, OrphanOutcome

logger = logging.getLogger(__name__)


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
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if self.sequence < 0:
            raise ValueError(f"sequence must be >= 0, got {self.sequence}")


@dataclass(frozen=True, slots=True)
class PredictionEvent:
    """One model prediction at serving time.

    action_id is the action the deployed policy took on this prediction
    (None when the log carries no decision trail). model_version tags the
    frozen model that produced the probability.
    """

    event_id: str
    time: TimeIndex
    predicted_prob: float
    action_id: int | None = None
    model_version: str = "unversioned"
    cohort: str | None = None

    def __post_init__(self):
        if not self.event_id:
            raise ValueError("event_id must be non-empty")
        if not 0.0 <= self.predicted_prob <= 1.0:
            raise ValueError(
                f"predicted_prob must lie in [0, 1], got {self.predicted_prob}"
            )


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
        if self.outcome not in (0, 1):
            raise ValueError(f"outcome must be 0 or 1, got {self.outcome}")
        if not math.isfinite(self.loss):
            raise ValueError(f"loss must be finite, got {self.loss}")
        if self.alt_losses is not None:
            if len(self.alt_losses) == 0:
                raise ValueError("alt_losses, when given, must be non-empty")
            if not all(map(math.isfinite, self.alt_losses)):
                raise ValueError(f"alt_losses must be finite, got {self.alt_losses}")


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
    n is the number of resolved pairs behind the snapshot.
    """

    time: TimeIndex
    n: int
    ece: float | None = None
    brier: float | None = None
    auc: float | None = None
    var: float | None = None
    cvar: float | None = None
    regret_cumulative: float | None = None
    regret_rate: float | None = None
    posterior_mean: float | None = None
    drift_score: float | None = None

    METRIC_FIELDS: ClassVar[tuple[str, ...]]  # every field after time and n

    def __post_init__(self):
        if all(getattr(self, f) is None for f in self.METRIC_FIELDS):
            raise ValueError("snapshot must carry at least one defined metric")

    def defined(self) -> dict[str, float]:
        """Mapping of metric name -> value for the metrics that are defined."""
        return {
            f: getattr(self, f)
            for f in self.METRIC_FIELDS
            if getattr(self, f) is not None
        }


MetricSnapshot.METRIC_FIELDS = tuple(f.name for f in fields(MetricSnapshot)[2:])


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

