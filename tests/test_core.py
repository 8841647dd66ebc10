"""Stream primitives: validation, the event/outcome join and the one
summation rule."""

import copy
import dataclasses
import math
import pickle
import sys
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskwatch.alarms import ThresholdPolicy
from riskwatch.belief import BetaPosterior, credible_interval
from riskwatch.core import (
    OPEN_UNIT,
    POSITIVE,
    MetricSnapshot,
    OutcomeRecord,
    PredictionEvent,
    TimeIndex,
    _SNAPSHOT_RANGES,
    fsum,
    join,
)
from riskwatch.errors import BadAlpha, BadConfig, BadLevel, DuplicateOutcome, OrphanOutcome
from riskwatch.simulator import _RANGES, ScenarioConfig
from riskwatch.tailrisk import QuantileSketch, check_alpha


def ev(i, period=1, prob=0.5, action=None):
    return PredictionEvent(
        event_id=f"e{i}", time=TimeIndex(period=period, sequence=i),
        predicted_prob=prob, action_id=action,
    )


def oc(i, y=0, loss=0.0, alts=None):
    return OutcomeRecord(event_id=f"e{i}", outcome=y, loss=loss, alt_losses=alts)


class TestValidation:
    def test_time_index_ordering(self):
        assert TimeIndex(1, 0) < TimeIndex(1, 1) < TimeIndex(2, 0)

    def test_time_index_bounds(self):
        with pytest.raises(ValueError):
            TimeIndex(period=0, sequence=0)
        with pytest.raises(ValueError):
            TimeIndex(period=1, sequence=-1)

    @pytest.mark.parametrize("p", [-0.01, 1.01])
    def test_prob_range(self, p):
        with pytest.raises(ValueError):
            PredictionEvent("x", TimeIndex(1, 0), p)

    def test_prob_endpoints_allowed(self):
        PredictionEvent("x", TimeIndex(1, 0), 0.0)
        PredictionEvent("x", TimeIndex(1, 0), 1.0)

    def test_empty_event_id(self):
        with pytest.raises(ValueError):
            PredictionEvent("", TimeIndex(1, 0), 0.5)

    def test_outcome_binary(self):
        with pytest.raises(ValueError):
            OutcomeRecord("x", outcome=2, loss=0.0)

    def test_alt_losses_nonempty(self):
        with pytest.raises(ValueError):
            OutcomeRecord("x", outcome=0, loss=0.0, alt_losses=())

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_losses_finite(self, bad):
        # an engine that took one could save a snapshot it cannot load
        with pytest.raises(ValueError, match="loss must be finite"):
            OutcomeRecord("x", outcome=0, loss=bad)
        with pytest.raises(ValueError, match="alt_losses must be finite"):
            OutcomeRecord("x", outcome=0, loss=0.0, alt_losses=(0.0, bad))

    # records that built but did not read back from their log line
    PROBES = [
        (lambda: OutcomeRecord("e1", 1.0, 0.2), "outcome"),
        (lambda: OutcomeRecord("e1", True, 0.2), "outcome"),
        (lambda: TimeIndex(1.5, 0), "period"),
        (lambda: PredictionEvent("e1", TimeIndex(1, 0), 0.5, action_id=True), "action_id"),
        (lambda: PredictionEvent("e1", TimeIndex(1, 0), True), "predicted_prob"),
        (lambda: OutcomeRecord("e1", 0, True), "loss"),
        (lambda: PredictionEvent(5, TimeIndex(1, 0), 0.5), "event_id"),
        (lambda: PredictionEvent("e1", TimeIndex(1, 0), 0.5, model_version=None),
         "model_version"),
        # the engine state stores an undefined metric as NaN, so a NaN one
        # would read back as None
        (lambda: MetricSnapshot(TimeIndex(1, 0), n=1, ece=math.nan), "ece"),
    ]

    @pytest.mark.parametrize("build,field", PROBES, ids=[
        "outcome-1.0", "outcome-True", "period-1.5", "action-True", "prob-True",
        "loss-True", "event_id-int", "model_version-None", "snapshot-ece-nan"])
    def test_refuses_what_its_log_line_cannot_carry(self, build, field):
        with pytest.raises(ValueError, match=field):
            build()

    def test_alt_losses_list_stored_as_tuple(self):
        record = OutcomeRecord("x", outcome=0, loss=0.5, alt_losses=[0.5, 1])
        assert record.alt_losses == (0.5, 1)
        hash(record)

    @pytest.mark.parametrize("metric, value", [
        ("ece", 5.0), ("brier", -3.0), ("auc", 1.5), ("posterior_mean", -0.1),
        ("drift_score", 0.3), ("drift_score", 1.5), ("regret_cumulative", -1.0),
        ("regret_rate", -math.inf), ("var", math.inf), ("cvar", -math.inf),
    ], ids=repr)
    def test_snapshot_metric_outside_what_a_close_computes(self, metric, value):
        with pytest.raises(ValueError, match=f"{metric} must be a number in"):
            MetricSnapshot(TimeIndex(1, 0), n=1, **{metric: value})

    def test_snapshot_metrics_at_the_ends_of_their_ranges(self):
        MetricSnapshot(TimeIndex(1, 0), n=1, ece=1.0, brier=0, auc=0.0, var=-sys.float_info.max,
                       cvar=sys.float_info.max, regret_cumulative=math.inf,
                       regret_rate=math.inf, posterior_mean=1.0, drift_score=0.5)

    def test_snapshot_needs_a_metric(self):
        with pytest.raises(ValueError):
            MetricSnapshot(time=TimeIndex(1, 0), n=10)
        snap = MetricSnapshot(time=TimeIndex(1, 0), n=10, ece=0.02)
        assert snap.defined() == {"ece": 0.02}


# The rules each settings and snapshot class held before core.check_fields,
# as they were written, kept as the reference check_fields must match: each
# returns None where the record is accepted, else the refusal (its message
# where the class keeps it).
_MAX = sys.float_info.max


def _number(v, least=-_MAX, most=_MAX):
    return (isinstance(v, float) or type(v) is int) and least <= v <= most


def _integer(name, v, least):
    if type(v) is not int or v < least:
        return f"{name} must be an integer >= {least}, got {v!r}"
    return None


def reference_policy(f):
    for name in ("consecutive_for_review", "consecutive_for_suspend", "recovery_periods"):
        if _integer(name, f[name], 1):
            return _integer(name, f[name], 1)
    if type(f["conjunctive"]) is not bool:
        return f"conjunctive must be true or false, got {f['conjunctive']!r}"
    bounds = ("ece_max", "cvar_max", "regret_rate_max", "drift_min")
    for name in bounds:
        if not (f[name] is None or _number(f[name])):
            return f"{name} must be None or a finite number, got {f[name]!r}"
    if all(f[name] is None for name in bounds):
        return f"{', '.join(bounds)} are all None: no metric is bounded"
    if f["consecutive_for_suspend"] < f["consecutive_for_review"]:
        return "consecutive_for_suspend must be >= consecutive_for_review"
    return None


def reference_scenario(f):
    ints = ("periods", "patients_per_period", "drift_start_period", "seed")
    for name, v in f.items():
        if name in ints and _integer(name, v, 0 if name == "seed" else 1):
            return "int"
        if name not in ints and not _number(v):
            return "not finite"
    if not all(0.0 < f[name] < 1.0
               for name in ("base_prevalence", "final_prevalence", "act_threshold")):
        return "(0, 1)"
    if f["class_separation"] <= 0:
        return "class_separation"
    if any(f[name] < 0 for name in ("miscalibration_gain", "loss_w_fn", "loss_w_fp", "harm_cap",
                                    "baseline_harm_scale", "intervention_cost",
                                    "regret_escalation")):
        return ">= 0"
    if not 0.0 <= f["tail_fraction"] < 1.0:
        return "tail_fraction"
    if f["tail_fraction"] > 0 and f["tail_scale"] <= 0:
        return "tail_scale"
    return None


def reference_snapshot(f):
    ranges = {"ece": (0.0, 1.0), "brier": (0.0, 1.0), "auc": (0.0, 1.0),
              "var": (-_MAX, _MAX), "cvar": (-_MAX, _MAX),
              "regret_cumulative": (0.0, math.inf), "regret_rate": (0.0, math.inf),
              "posterior_mean": (0.0, 1.0), "drift_score": (0.5, 1.0)}
    if _integer("n", f["n"], 1):
        return _integer("n", f["n"], 1)
    if _integer("positives", f["positives"], 0):
        return _integer("positives", f["positives"], 0)
    if f["positives"] > f["n"]:
        return f"positives must be at most n = {f['n']}, got {f['positives']!r}"
    if all(f[name] is None for name in ranges):
        return "snapshot must carry at least one defined metric"
    for name, (least, most) in ranges.items():
        if f[name] is not None and not _number(f[name], least, most):
            return f"{name} must be a number in [{least}, {most}], got {f[name]!r}"
    return None


def reference_time(f):
    return _integer("period", f["period"], 1) or _integer("sequence", f["sequence"], 0)


def reference_beta(f):
    return None if all(_number(v) and v > 0 for v in f.values()) else "not > 0"


# class, a record it accepts, its range table, the reference, the error it
# raises, and whether its messages are the reference's
PARITY = [
    (ThresholdPolicy, ThresholdPolicy(), {}, reference_policy, ValueError, True),
    (ScenarioConfig, ScenarioConfig(tail_fraction=0.1, tail_scale=1.0), _RANGES,
     reference_scenario, BadConfig, False),
    (MetricSnapshot, MetricSnapshot(TimeIndex(1, 0), 10, 3, ece=0.1, brier=0.2, auc=0.6,
                                    var=1.0, cvar=2.0, regret_cumulative=3.0, regret_rate=0.3,
                                    posterior_mean=0.3, drift_score=0.7),
     _SNAPSHOT_RANGES, reference_snapshot, ValueError, True),
    (TimeIndex, TimeIndex(3, 5), {"sequence": 0}, reference_time, ValueError, True),
    (BetaPosterior, BetaPosterior(2.0, 3.0), {"a": POSITIVE, "b": POSITIVE},
     reference_beta, ValueError, False),
]


def probes(least, most):
    """Each end of [least, most] and the floats beside it, and values of
    every other kind."""
    ends = {v for end in (least, most)
            for v in (end, math.nextafter(end, -math.inf), math.nextafter(end, math.inf))}
    return [*ends, 0, 0.0, -0.0, math.nan, math.inf, -math.inf, True, False, 7, 1, 2,
            "0.5", None]


def parity_cases():
    for cls, record, ranges, reference, error, same_messages in PARITY:
        for field in dataclasses.fields(cls):
            if field.type not in ("int", "bool", "float", "float | None"):
                continue  # MetricSnapshot.time, a TimeIndex, checked by its own class
            if field.type == "int":
                least = ranges.get(field.name, 1)
                values = [*probes(float(least), float(least)), least - 1, least, least + 1]
            else:
                values = probes(*ranges.get(field.name, (-_MAX, _MAX)))
            for value in values:
                yield pytest.param(cls, record, field.name, value, reference, error,
                                   same_messages, id=f"{cls.__name__}.{field.name}={value!r}")


class TestFieldRuleParity:
    @pytest.mark.parametrize("cls, record, name, value, reference, error, same_messages",
                             list(parity_cases()))
    def test_accepts_and_refuses_as_the_hand_written_rules_did(
            self, cls, record, name, value, reference, error, same_messages):
        values = {f.name: getattr(record, f.name) for f in dataclasses.fields(cls)}
        values[name] = value
        expected = reference(values)
        if expected is None:
            cls(**values)
            return
        with pytest.raises(error) as refused:
            cls(**values)
        if same_messages:
            assert str(refused.value) == expected

    @pytest.mark.parametrize("rule, error", [
        (check_alpha, BadAlpha), (QuantileSketch, ValueError),
        (lambda level: credible_interval(BetaPosterior(), level), BadLevel),
    ], ids=["alpha", "epsilon", "level"])
    @pytest.mark.parametrize("value", probes(*OPEN_UNIT), ids=repr)
    def test_open_unit_rules_refuse_as_the_comparisons_did(self, rule, error, value):
        # a level that is no number ("0.5", None) raised TypeError; BadLevel now
        try:
            rule(value)
        except error:
            refused = True
        except Exception:  # past the rule: no scipy, or a sketch of epsilon 5e-324
            refused = False
        else:
            refused = False
        assert refused == (not (_number(value) and 0.0 < value < 1.0))


class TestSlottedRecords:
    """The records are frozen dataclasses with __slots__; copying, pickling
    and replace() must work as they do without slots, on every Python the
    package supports (3.10's frozen slotted dataclasses differ here)."""

    RECORDS = [
        TimeIndex(3, 17),
        PredictionEvent("e1", TimeIndex(2, 5), 0.25, action_id=1, cohort="icu"),
        OutcomeRecord("e1", 1, 0.5, alt_losses=(0.5, 0.75)),
        MetricSnapshot(TimeIndex(2, 9), n=40, ece=0.1, auc=None, drift_score=0.5),
    ]
    IDS = ["TimeIndex", "PredictionEvent", "OutcomeRecord", "MetricSnapshot"]

    @pytest.mark.parametrize("record", RECORDS, ids=IDS)
    def test_slotted(self, record):
        assert "__slots__" in type(record).__dict__
        assert not hasattr(record, "__dict__")

    @pytest.mark.parametrize("record", RECORDS, ids=IDS)
    def test_pickle_round_trip(self, record):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(record, protocol=protocol))
            assert back == record and type(back) is type(record)

    @pytest.mark.parametrize("record", RECORDS, ids=IDS)
    def test_deepcopy(self, record):
        back = copy.deepcopy(record)
        assert back == record and back is not record
        assert copy.copy(record) == record

    @pytest.mark.parametrize("record", RECORDS, ids=IDS)
    def test_frozen(self, record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, dataclasses.fields(record)[0].name, None)
        # a name that is not a field has no slot; CPython 3.11 raises
        # TypeError from the frozen __setattr__ there, not AttributeError
        with pytest.raises((AttributeError, TypeError)):
            record.extra = 1

    def test_replace_revalidates(self):
        event, outcome = self.RECORDS[1], self.RECORDS[2]
        assert dataclasses.replace(event, predicted_prob=0.5).predicted_prob == 0.5
        assert dataclasses.replace(outcome, outcome=0).outcome == 0
        assert dataclasses.replace(TimeIndex(3, 17), period=4) == TimeIndex(4, 17)
        snap = dataclasses.replace(self.RECORDS[3], ece=None)
        assert snap.defined() == {"drift_score": 0.5}
        with pytest.raises(ValueError):
            dataclasses.replace(event, predicted_prob=1.5)
        with pytest.raises(ValueError):
            dataclasses.replace(TimeIndex(3, 17), sequence=-1)
        with pytest.raises(ValueError):
            dataclasses.replace(snap, drift_score=None)


class TestJoin:
    def test_pairs_in_event_order_despite_outcome_order(self):
        events = [ev(0), ev(1), ev(2)]
        outcomes = [oc(2), oc(0), oc(1)]
        got = [p.event.event_id for p in join(events, outcomes)]
        assert got == ["e0", "e1", "e2"]

    def test_orphan_outcome(self):
        with pytest.raises(OrphanOutcome):
            list(join([ev(0)], [oc(7)]))

    def test_duplicate_outcome(self):
        with pytest.raises(DuplicateOutcome):
            list(join([ev(0)], [oc(0), oc(0)]))

    def test_duplicate_event_id_rejected(self):
        with pytest.raises(ValueError):
            list(join([ev(0), ev(0)], [oc(0)]))

    def test_out_of_order_seq_rejected(self):
        with pytest.raises(ValueError, match="not above the last accepted seq 2"):
            list(join([ev(2), ev(1)], [oc(1)]))

    def test_duplicate_outcome_caught_across_periods(self):
        # join holds every event, so it keeps every resolved id as well
        with pytest.raises(DuplicateOutcome):
            list(join([ev(0, period=1), ev(1, period=2)], [oc(0), oc(1), oc(0)]))

    def test_unresolved_events_dropped_with_warning(self, caplog):
        events = [ev(0), ev(1)]
        with caplog.at_level("WARNING"):
            got = list(join(events, [oc(0)]))
        assert len(got) == 1
        assert "1 events left unresolved" in caplog.text

    @given(
        n=st.integers(1, 40),
        lookahead=st.integers(0, 5),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_join_is_order_insensitive_within_lookahead(self, n, lookahead, data):
        # outcomes arrive shuffled but never more than `lookahead` behind
        events = [ev(i) for i in range(n)]
        order = list(range(n))
        for i in range(n):
            j = data.draw(st.integers(i, min(n - 1, i + lookahead)))
            order[i], order[j] = order[j], order[i]
        outcomes = [oc(k) for k in order]
        got = list(join(events, outcomes))
        assert [p.event.event_id for p in got] == [f"e{i}" for i in range(n)]
        assert all(p.event.event_id == p.outcome.event_id for p in got)


# finite floats of every size, subnormals and both zeros included, with the
# largest magnitudes drawn often so that sums pass the float range
FINITE = st.floats(-sys.float_info.max, sys.float_info.max)
VECTORS = st.lists(st.one_of(FINITE, st.sampled_from([sys.float_info.max, -1e308, 1e308])),
                   min_size=1, max_size=40)


def rounded_once(exact: Fraction) -> float:
    """The exact value rounded to the nearest float, or inf of its sign."""
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


class TestFsum:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(VECTORS)
    def test_sum_is_the_exact_sum_rounded_once(self, xs):
        assert fsum(xs) == rounded_once(sum(map(Fraction, xs)))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(VECTORS, st.integers(1, 60))
    def test_quotient_is_fsums_else_the_exact_one(self, xs, n):
        exact = rounded_once(sum(map(Fraction, xs)) / n)
        try:
            expected = math.fsum(xs) / n  # math.fsum's bits, where its sum is finite
        except OverflowError:
            expected = exact
        got = fsum(xs, n)
        assert got == expected
        assert got == got and (math.isfinite(got) or not math.isfinite(exact))

    def test_an_inf_value_gives_inf(self):
        # also where the finite values alone pass the float range
        assert fsum([math.inf, 1e308, 1e308]) == math.inf
        assert fsum(array("d", [1e308, 1e308, math.inf]), 3) == math.inf
