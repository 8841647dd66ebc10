"""Shared domain types and value rules, and the one sum (fsum).

The toolkit processes a totally ordered stream of prediction events that are
later resolved by outcome records. The streaming engine (monitor) joins them
and scores each closed period into a MetricSnapshot.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import ClassVar, Sequence

_FLOAT_MAX = sys.float_info.max
# (0, 1) and (0, max] as the closed ranges of their floats, for finite_number
OPEN_UNIT = (math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0))
POSITIVE = (OPEN_UNIT[0], _FLOAT_MAX)


def finite_number(value, least: float = -_FLOAT_MAX, most: float = _FLOAT_MAX) -> bool:
    """The one number test: a float or a non-bool int in [least, most], so not
    NaN; the default bounds are the finite float range."""
    return (isinstance(value, float) or type(value) is int) and least <= value <= most


def is_probability(value) -> bool:
    """The probability rule: a number in [0, 1]."""
    return finite_number(value, 0.0, 1.0)


def is_outcome(value) -> bool:
    """The outcome rule: the integer 0 or 1, not a bool."""
    return type(value) is int and 0 <= value <= 1


def check_integer(name: str, value, least: int) -> int:
    """The integer rule: an int, not a bool, >= least; else ValueError naming it."""
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def check_losses(record, name: str) -> None:
    """The rule for the losses of all alternatives, the field name of record:
    a non-empty list or tuple of finite numbers, a list stored back as a
    tuple (only then: a frozen record's setattr is slow); else ValueError."""
    if type(losses := getattr(record, name)) is list:
        object.__setattr__(record, name, losses := tuple(losses))
    if type(losses) is not tuple or not losses:
        raise ValueError(f"{name} must be a non-empty list or tuple, got {losses!r}")
    if not all(map(finite_number, losses)):
        raise ValueError(f"{name} must be finite numbers, got {losses!r}")


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
        check_fields(self, {"sequence": 0})


def check_time(name: str, value) -> None:
    """The time rule: a TimeIndex itself, not a tuple or dict; else ValueError naming it."""
    if type(value) is not TimeIndex:
        raise ValueError(f"{name} must be a TimeIndex, got {value!r}")


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
        check_time("time", self.time)
        if not is_probability(self.predicted_prob):
            raise ValueError("predicted_prob must be a number, finite, in [0, 1]; "
                             f"got {self.predicted_prob!r}")
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
        if not is_outcome(self.outcome):
            raise ValueError(f"outcome must be the integer 0 or 1, got {self.outcome!r}")
        if not finite_number(self.loss):
            raise ValueError(f"loss must be finite: a float or an int; got {self.loss!r}")
        if self.alt_losses is not None:
            check_losses(self, "alt_losses")


@dataclass(frozen=True, slots=True)
class MetricSnapshot:
    """Per-period readout of every monitored metric.

    Any metric may be undefined (None), e.g. auc on a single-class period
    or regret on a log without counterfactual losses. Undefined is a value,
    not an error; downstream consumers (alarms, reports) must handle it.
    n, an integer >= 1, is the number of resolved pairs behind it, and
    positives, an integer in [0, n], the number of them with outcome 1. The
    metrics follow check_metrics: a defined one is a number in its range,
    so never NaN (the engine state stores None as NaN).
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
        check_fields(self, _SNAPSHOT_RANGES)
        if self.positives > self.n:
            raise ValueError(f"positives must be at most n = {self.n}, got {self.positives!r}")
        if not self.defined():
            raise ValueError("snapshot must carry at least one defined metric")

    def defined(self) -> dict[str, float]:
        """Mapping of metric name -> value for the metrics that are defined."""
        return {
            f: getattr(self, f)
            for f in self.METRIC_FIELDS
            if getattr(self, f) is not None
        }


MetricSnapshot.METRIC_FIELDS = tuple(f.name for f in fields(MetricSnapshot)[3:])

# each metric's range, which holds every value a close computes; a regret is
# >= 0 and inf past the float range. ece, fsum of fl(count / n) * gap, is <= 1
# while n * n_bins < 2**53 (ROADMAP, aim 2, gives the argument)
_UNIT, _FINITE, _NONNEGATIVE = (0.0, 1.0), (-_FLOAT_MAX, _FLOAT_MAX), (0.0, math.inf)
_METRIC_RANGES = {
    "ece": _UNIT, "brier": _UNIT, "auc": _UNIT, "var": _FINITE, "cvar": _FINITE,
    "regret_cumulative": _NONNEGATIVE, "regret_rate": _NONNEGATIVE,
    "posterior_mean": _UNIT, "drift_score": (0.5, 1.0),
}
_SNAPSHOT_RANGES = {"positives": 0, **_METRIC_RANGES}
# the number annotations check_fields reads, and what each allows besides a number
_NUMBERS = {"float": "", "float | None": "None or "}


def check_metrics(metrics: dict, ranges: dict = _METRIC_RANGES) -> None:
    """The number rule: each of metrics, by name, is None or a number in its
    closed range in ranges; else ValueError naming the first that is not."""
    for name, value in metrics.items():
        least, most = ranges[name]
        if value is not None and not finite_number(value, least, most):
            raise ValueError(f"{name} must be a number in [{least}, {most}], got {value!r}")


def check_fields(record, ranges: dict) -> None:
    """The field rule, each field of the dataclass record by its annotation:
    an int by check_integer, least ranges[name] (else 1); a TimeIndex by
    check_time; a bool a bool; a float, or a float | None but for None, a
    number in ranges[name] by check_metrics (else any finite number); any
    other, a ClassVar's too, is left to the class. Else ValueError naming it."""
    for f in record.__dataclass_fields__.values():  # fields() takes twice as long
        name, value, kind = f.name, getattr(record, f.name), f.type
        if kind == "int":
            check_integer(name, value, ranges.get(name, 1))
        elif kind == "TimeIndex":
            check_time(name, value)
        elif kind == "bool" and type(value) is not bool:
            raise ValueError(f"{name} must be true or false, got {value!r}")
        elif kind in _NUMBERS and name in ranges and value is not None:
            check_metrics({name: value}, ranges)
        elif kind in _NUMBERS and not (finite_number(value) or value is None and kind != "float"):
            raise ValueError(f"{name} must be {_NUMBERS[kind]}a finite number, got {value!r}")
