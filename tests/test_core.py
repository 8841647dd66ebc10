"""Stream primitives: validation, the event/outcome join, windowing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskwatch.core import (
    MetricSnapshot,
    OutcomeRecord,
    PredictionEvent,
    ResolvedPair,
    TimeIndex,
    join,
    split_arrays,
    window_partition,
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

    def test_snapshot_needs_a_metric(self):
        with pytest.raises(ValueError):
            MetricSnapshot(time=TimeIndex(1, 0), n=10)
        snap = MetricSnapshot(time=TimeIndex(1, 0), n=10, ece=0.02)
        assert snap.defined() == {"ece": 0.02}


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


class TestWindowing:
    def pairs(self, periods):
        out = []
        for i, m in enumerate(periods):
            out.append(ResolvedPair(ev(i, period=m), oc(i)))
        return out

    def test_by_period_partition(self):
        pairs = self.pairs([1, 1, 2, 2, 2, 4])
        wins = list(window_partition(pairs))
        assert [len(w.pairs) for w in wins] == [2, 3, 1]
        assert [w.time.period for w in wins] == [1, 2, 4]
        # concatenation reproduces the stream
        flat = [p for w in wins for p in w.pairs]
        assert flat == pairs

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_by_period_covers_stream_exactly(self, raw):
        periods = sorted(raw)  # nondecreasing per the single-writer contract
        pairs = self.pairs(periods)
        wins = list(window_partition(pairs))
        assert [p for w in wins for p in w.pairs] == pairs
        seen = [w.time.period for w in wins]
        assert seen == sorted(set(periods))

    def test_split_arrays(self):
        pairs = [
            ResolvedPair(ev(0, prob=0.2), oc(0, y=1, loss=3.0)),
            ResolvedPair(ev(1, prob=0.9), oc(1, y=0, loss=0.5)),
        ]
        probs, ys, losses = split_arrays(pairs)
        assert probs == [0.2, 0.9]
        assert ys == [1, 0]
        assert losses == [3.0, 0.5]
