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

from riskwatch.core import (
    MetricSnapshot,
    OutcomeRecord,
    PredictionEvent,
    TimeIndex,
    fsum,
    join,
)
from riskwatch.errors import DuplicateOutcome, OrphanOutcome


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

    def test_snapshot_needs_a_metric(self):
        with pytest.raises(ValueError):
            MetricSnapshot(time=TimeIndex(1, 0), n=10)
        snap = MetricSnapshot(time=TimeIndex(1, 0), n=10, ece=0.02)
        assert snap.defined() == {"ece": 0.02}


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
