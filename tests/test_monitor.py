"""Streaming engine: agreement with offline metrics, state freezing, joins."""

import base64
import gc
import io
import json
import math
import random
import struct
import tracemalloc
from dataclasses import replace
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskwatch.alarms import OperatingState, ThresholdPolicy
from riskwatch.belief import BetaPosterior, drift_score
from riskwatch.calibration import auc, brier, ece
from riskwatch.core import OutcomeRecord, PredictionEvent, TimeIndex
from riskwatch.errors import (BadAlpha, DuplicateOutcome, NoMetrics, OrphanOutcome,
                              SchemaError, VersionMismatch)
from riskwatch.eventlog import (emit_report, feed_engine, ingest_log, load_snapshot, log_line,
                                save_snapshot)
from riskwatch.monitor import MonitorEngine, _pack, _unpack
from riskwatch.simulator import canonical_scenario, generate, scenario_pairs
from riskwatch.tailrisk import cvar_tail, var


def drive(engine, events, outcomes, upto=None):
    pairs = list(zip(events, outcomes))[:upto]
    for event, outcome in pairs:
        engine.observe_event(event)
        engine.observe_outcome(outcome)
    return engine


def ev(i, period=1, prob=0.5):
    return PredictionEvent(f"e{i}", TimeIndex(period, i), prob)


def oc(i, y=0, loss=1.0):
    return OutcomeRecord(f"e{i}", y, loss)


class TestAgreementWithOfflineMetrics:
    def test_snapshots_match_direct_computation(
        self, canonical_output, canonical_arrays
    ):
        engine = MonitorEngine()
        drive(engine, canonical_output.events, canonical_output.outcomes)
        engine.finalize()
        assert len(engine.snapshots) == 12
        for snap in engine.snapshots:
            probs, ys, losses = canonical_arrays[snap.time.period]
            assert snap.n == len(probs)
            assert snap.ece == ece(probs, ys)
            assert snap.brier == brier(probs, ys)
            assert snap.auc == auc(probs, ys)
            assert snap.var == var(losses, 0.95)
            assert snap.cvar == cvar_tail(losses, 0.95)

    @given(st.lists(st.sampled_from([-0.0, 0.0, 1.0, -2.5]) | st.floats(-1e6, 1e6),
                    min_size=1, max_size=40),
           st.floats(0.01, 0.99))
    @example([0.0, -0.0], 0.6)  # the top value of a tie
    @example([-0.0, 0.0, 5.0, -0.0], 0.4)
    @settings(max_examples=200, deadline=None)
    def test_close_tail_bits_are_the_estimators_on_the_unsorted_losses(self, losses, alpha):
        # the close sorts the losses once for var and cvar_tail; ties (-0.0
        # beside 0.0) must keep the bits the estimators give unsorted input
        engine = MonitorEngine(alpha=alpha)
        drive(engine, [ev(i) for i in range(len(losses))],
              [oc(i, loss=loss) for i, loss in enumerate(losses)])
        engine.finalize()
        (snap,) = engine.snapshots
        assert repr((snap.var, snap.cvar)) == repr((var(losses, alpha), cvar_tail(losses, alpha)))

    def test_offline_trajectory_matches_engine(self, canonical_output):
        # the aligned streams, grouped by period here, against the engine's join
        engine = MonitorEngine()
        drive(engine, canonical_output.events, canonical_output.outcomes)
        engine.finalize()
        by_period = {}
        for event, outcome in zip(canonical_output.events, canonical_output.outcomes):
            by_period.setdefault(event.time.period, []).append((event, outcome))
        points = []
        for pairs in by_period.values():
            probs = [e.predicted_prob for e, _ in pairs]
            ys = [o.outcome for _, o in pairs]
            losses = [o.loss for _, o in pairs]
            points.append((
                pairs[-1][0].time, len(pairs), ece(probs, ys), brier(probs, ys),
                auc(probs, ys), var(losses, 0.95), cvar_tail(losses, 0.95),
            ))
        assert points == [
            (s.time, s.n, s.ece, s.brier, s.auc, s.var, s.cvar)
            for s in engine.snapshots
        ]

    def test_alarm_history_one_record_per_period(self, canonical_output):
        engine = MonitorEngine()
        drive(engine, canonical_output.events, canonical_output.outcomes)
        engine.finalize()
        assert len(engine.alarm.history) == 12
        assert engine.alarm.state is OperatingState.SUSPENDED

    def test_regret_accumulates_monotonically(self, canonical_output):
        engine = MonitorEngine()
        drive(engine, canonical_output.events, canonical_output.outcomes)
        engine.finalize()
        cums = [s.regret_cumulative for s in engine.snapshots]
        assert all(b >= a for a, b in zip(cums, cums[1:]))
        assert all(s.regret_rate >= 0 for s in engine.snapshots)

    def test_posterior_tracks_prevalence_ramp(self, canonical_output):
        engine = MonitorEngine()
        drive(engine, canonical_output.events, canonical_output.outcomes)
        engine.finalize()
        means = [s.posterior_mean for s in engine.snapshots]
        assert means[0] == pytest.approx(0.10, abs=0.03)
        assert means[-1] == pytest.approx(0.25, abs=0.03)
        drifts = [s.drift_score for s in engine.snapshots]
        assert drifts[0] < 0.6  # matches its own baseline
        assert drifts[-1] > 0.99


class TestStateFreezing:
    def test_state_is_json_serializable(self, canonical_output):
        engine = MonitorEngine()
        drive(engine, canonical_output.events, canonical_output.outcomes,
              upto=5_000)
        state = engine.to_state()
        json.dumps(state)  # must not raise

    def test_roundtrip_preserves_everything(self, canonical_output):
        engine = MonitorEngine()
        drive(engine, canonical_output.events, canonical_output.outcomes,
              upto=7_000)  # mid period 4
        thawed = MonitorEngine.from_state(engine.to_state())
        assert thawed.to_state() == engine.to_state()

    def test_resume_is_bit_identical(self, canonical_output):
        events, outcomes = canonical_output.events, canonical_output.outcomes
        whole = MonitorEngine()
        drive(whole, events, outcomes)
        whole.finalize()

        first = MonitorEngine()
        drive(first, events, outcomes, upto=9_123)  # mid period 5
        resumed = MonitorEngine.from_state(first.to_state())
        for event, outcome in list(zip(events, outcomes))[9_123:]:
            resumed.observe_event(event)
            resumed.observe_outcome(outcome)
        resumed.finalize()

        assert resumed.snapshots == whole.snapshots
        assert resumed.alarm == whole.alarm
        assert resumed.to_state() == whole.to_state()

    def test_version_guard(self):
        # 2 is the last version with Monte Carlo drift values and settings,
        # 3 the last with every resolved id and no log line count, 4 the
        # last with row-wise history and open-period values as JSON lists,
        # 5 the last with the closed periods' metrics as JSON numbers, 6 the
        # last with the alarm history stored apart from the snapshots, 7 the
        # last that stored the alarm history at all, 8 the last that stored
        # the belief and the stream counts
        for version in (2, 3, 4, 5, 6, 7, 8, 999):
            state = MonitorEngine().to_state()
            state["engine_version"] = version
            with pytest.raises(VersionMismatch):
                MonitorEngine.from_state(state)

    @pytest.mark.parametrize("settings, error", [
        ({"n_bins": 2.0}, ValueError), ({"n_bins": True}, ValueError),
        ({"alpha": "0.5"}, BadAlpha), ({"alpha": 1}, BadAlpha),
        ({"policy": {"ece_max": 0.1}}, ValueError),
    ], ids=["n_bins-float", "n_bins-true", "alpha-str", "alpha-int", "policy-dict"])
    def test_settings_follow_the_metrics_own_rules(self, settings, error):
        with pytest.raises(error, match=f"{next(iter(settings))} must"):
            MonitorEngine(**settings)

    def test_policy_is_read_only(self):
        # the history is replayed under engine.policy, so a policy swapped
        # between closes would rewrite the decisions already made
        engine = MonitorEngine()
        with pytest.raises(AttributeError):
            engine.policy = ThresholdPolicy(ece_max=None)


def one_pair_per_period(probs):
    """A finalized engine with one pair per period, each with outcome 0 and
    loss 0, so only the ece of each period (its prob) can breach."""
    engine = MonitorEngine()
    for i, prob in enumerate(probs):
        engine.observe_event(ev(i, period=i + 1, prob=prob))
        engine.observe_outcome(oc(i, y=0, loss=0.0))
    engine.finalize()
    return engine


class TestReplayedAlarmHistory:
    def test_alarm_path_does_not_change_the_state_size(self):
        quiet = one_pair_per_period([0.01] * 6)
        loud = one_pair_per_period([0.99, 0.99, 0.99, 0.99, 0.01, 0.01])
        assert quiet.alarm.state is OperatingState.NORMAL
        assert loud.alarm.history[3].state is OperatingState.SUSPENDED
        sizes = []
        for engine in (quiet, loud):
            buf = io.StringIO()
            save_snapshot(engine, buf)
            sizes.append(len(buf.getvalue()))
        assert sizes[0] == sizes[1]

    def test_load_replays_the_history_without_logging_it(self, caplog):
        engine = one_pair_per_period([0.99, 0.99, 0.01])
        buf = io.StringIO()
        save_snapshot(engine, buf)
        with caplog.at_level("INFO"):
            loaded = load_snapshot(io.StringIO(buf.getvalue()))
        assert loaded.alarm == engine.alarm
        assert not [r for r in caplog.records if "alarm transition" in r.getMessage()]

    def test_a_close_logs_its_transition_once(self, caplog):
        engine = MonitorEngine()
        for i, prob in enumerate([0.01, 0.99, 0.99]):
            engine.observe_event(ev(i, period=i + 1, prob=prob))
            with caplog.at_level("INFO"):
                caplog.clear()
                engine.observe_outcome(oc(i, y=0, loss=0.0))  # closes period i
            transitions = [r for r in caplog.records
                           if "alarm transition" in r.getMessage()]
            # period 1 stays normal, period 2 moves it to review, and the
            # open period 3 has not closed yet
            if i == 2:
                assert [r.name for r in transitions] == ["riskwatch.monitor"]
                assert transitions[0].getMessage() == (
                    "alarm transition at TimeIndex(period=2, sequence=1): "
                    "normal -> review (breached: ece)")
            else:
                assert transitions == []


# one (n, positives) per period, each 0 <= positives <= n
PERIOD_COUNTS = st.lists(
    st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
    min_size=1, max_size=4)


def counts_stream(counts):
    """The events and outcomes of one period per (n, positives), in order:
    a period's first positives outcomes are 1, and probs and losses vary."""
    events, outcomes = [], []
    for period, (n, positives) in enumerate(counts, start=1):
        for j in range(n):
            i, y = len(events), int(j < positives)
            events.append(ev(i, period=period, prob=(i % 7 + 0.5) / 7))
            outcomes.append(oc(i, y=y, loss=0.25 + 0.5 * y))
    return events, outcomes


class TestDerivedBelief:
    """A closed period's posterior_mean and drift_score are not stored: a
    load derives them from the counts, by the close's own step."""

    # the examples hold k = 0, k = n and k > n/2 (drift_score's mirror branch)
    @given(PERIOD_COUNTS)
    @example([(5, 0), (5, 5), (9, 7), (1, 1)])
    @example([(12, 12), (3, 0), (8, 5)])
    @settings(max_examples=60, deadline=None)
    def test_a_load_gives_the_live_belief_bit_for_bit(self, counts):
        live = drive(MonitorEngine(), *counts_stream(counts))
        live.finalize()
        baseline = None
        for snap, (n, k) in zip(live.snapshots, counts, strict=True):
            rolling = BetaPosterior(1.0 + k, 1.0 + n - k)
            baseline = baseline or rolling
            assert (snap.n, snap.positives) == (n, k)
            assert bits([snap.posterior_mean, snap.drift_score]) == bits(
                [rolling.mean, drift_score(baseline, rolling)])
        loaded = MonitorEngine.from_state(json.loads(json.dumps(live.to_state())))
        assert [bits([s.posterior_mean, s.drift_score]) for s in loaded.snapshots] == [
            bits([s.posterior_mean, s.drift_score]) for s in live.snapshots]
        assert loaded.snapshots == live.snapshots and loaded.alarm == live.alarm

    @given(PERIOD_COUNTS, st.floats(0.0, 1.0))
    @example([(5, 0), (5, 5), (9, 7)], 0.5)  # a load in period 2, after one close
    @settings(max_examples=60, deadline=None)
    def test_a_mid_period_load_then_finalize_gives_the_uninterrupted_report(
            self, counts, where):
        events, outcomes = counts_stream(counts)
        cut = round(where * len(events))
        whole = drive(MonitorEngine(), events, outcomes)
        whole.finalize()
        first, buf = drive(MonitorEngine(), events, outcomes, upto=cut), io.StringIO()
        save_snapshot(first, buf)
        resumed = drive(load_snapshot(io.StringIO(buf.getvalue())), events[cut:], outcomes[cut:])
        resumed.finalize()
        assert emit_report(resumed.snapshots, resumed.alarm.history) == emit_report(
            whole.snapshots, whole.alarm.history)
        assert resumed.to_state() == whole.to_state()


# zeros of both signs, the subnormal extremes, the largest finite values and
# 1 with its neighbours, each with the floats 1 ulp either side of it
_EDGES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1.7976931348623157e308]
EDGE_FLOATS = sorted(
    {f for x in _EDGES for v in (x, -x)
     for f in (v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf))},
    key=repr,
)


def bits(values):
    return [struct.pack("<d", v) for v in values]


class TestPackedValues:
    """The open period's values are stored packed and come back bit for bit,
    so the math.fsum reductions see the same inputs in the same order."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS),
                              st.floats().map(lambda x: math.nextafter(x, 0.0)))))
    def test_float64_round_trip_is_bit_for_bit(self, values):
        back = _unpack(_pack(values, "d"), "d")
        assert all(type(v) is float for v in back)
        assert bits(back) == bits(values)

    def test_edge_floats_round_trip(self):
        assert bits(_unpack(_pack(EDGE_FLOATS, "d"), "d")) == bits(EDGE_FLOATS)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats()), st.lists(st.integers(0, 255)))
    def test_packed_bytes_are_little_endian(self, values, ys):
        # pinned against struct's explicit byte order, so a state.json
        # written on a big-endian host reads the same
        assert _pack(values, "d") == base64.b64encode(
            struct.pack("<%dd" % len(values), *values)).decode("ascii")
        assert _pack(ys, "B") == base64.b64encode(bytes(ys)).decode("ascii")

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 1)))
    def test_outcomes_round_trip_as_ints(self, ys):
        back = _unpack(_pack(ys, "B"), "B")
        assert back == ys and all(type(y) is int for y in back)


class TestJoinDiscipline:
    def test_orphan_outcome(self):
        engine = MonitorEngine()
        with pytest.raises(OrphanOutcome):
            engine.observe_outcome(oc(0))

    def test_duplicate_outcome(self):
        engine = MonitorEngine()
        engine.observe_event(ev(0))
        engine.observe_outcome(oc(0))
        with pytest.raises(DuplicateOutcome):
            engine.observe_outcome(oc(0))

    def test_duplicate_event_id(self):
        engine = MonitorEngine()
        engine.observe_event(ev(0))
        with pytest.raises(ValueError):
            engine.observe_event(ev(0))

    def test_event_at_or_below_last_seq_rejected(self):
        engine = MonitorEngine()
        engine.observe_event(ev(0))
        engine.observe_outcome(oc(0))
        engine.observe_event(ev(5, period=2))
        engine.observe_outcome(oc(5))  # closes period 1
        before = engine.to_state()
        # a re-fed event, long resolved, and a new id out of order
        for event in (ev(0), PredictionEvent("new", TimeIndex(2, 3), 0.5)):
            with pytest.raises(ValueError, match=r"^duplicate event_id .* out-of-order event: "
                                                 r"seq \d+ is not above the last accepted seq 5$"):
                engine.observe_event(event)
        assert engine.to_state() == before

    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    def test_id_resolved_in_the_open_period_is_not_reused(self, strict):
        # its seq is above the last one, so only the resolved ids catch it
        engine = MonitorEngine()
        engine.observe_event(ev(0))
        engine.observe_outcome(oc(0))
        before = engine.to_state()
        reused = [PredictionEvent("e0", TimeIndex(1, 1), 0.5)]
        if strict:
            with pytest.raises(SchemaError, match="duplicate event_id"):
                feed_engine(engine, enumerate(reused, 1), strict=True)
        else:
            feed_engine(engine, enumerate(reused, 1))  # skipped
        assert engine.to_state() == before

    def test_second_outcome_after_its_period_closed_is_orphan(self):
        engine = MonitorEngine()
        engine.observe_event(ev(0, period=1))
        engine.observe_outcome(oc(0))
        engine.observe_event(ev(1, period=2))
        engine.observe_outcome(oc(1))  # closes period 1
        # the pair that closed period 1 is resolved in period 2
        with pytest.raises(DuplicateOutcome):
            engine.observe_outcome(oc(1))
        with pytest.raises(OrphanOutcome):
            engine.observe_outcome(oc(0))

    @pytest.mark.parametrize("action", [5, -1])
    def test_out_of_range_action_rejected_before_state_changes(self, action):
        engine = MonitorEngine()
        engine.observe_event(PredictionEvent("e0", TimeIndex(1, 0), 0.5, action_id=action))
        before = engine.to_state()
        with pytest.raises(ValueError, match="outside action set"):
            engine.observe_outcome(OutcomeRecord("e0", 1, 0.5, alt_losses=(0.1, 0.5)))
        assert engine.to_state() == before

    def test_stale_pair_dropped_with_warning(self, caplog):
        engine = MonitorEngine()
        engine.observe_event(ev(0, period=1))  # stays pending
        engine.observe_event(ev(1, period=1))
        engine.observe_outcome(oc(1))
        engine.observe_event(ev(2, period=2))
        engine.observe_outcome(oc(2))  # closes period 1
        engine.observe_outcome(oc(0))  # period 1 already closed: stale
        with caplog.at_level("WARNING"):
            engine.finalize()
        assert "1 pairs that resolved after their period closed" in caplog.text
        assert [s.time.period for s in engine.snapshots] == [1, 2]
        assert engine.snapshots[0].n == 1

    def test_pair_of_a_closed_period_after_finalize_is_stale(self, caplog):
        # finalize leaves no period open; a late pair of a closed period once
        # opened a second period 2, whose breach rewrote period 2's alarm state
        engine = MonitorEngine()
        for i, period in enumerate([1, 2, 2]):
            engine.observe_event(ev(i, period=period, prob=0.99))
        engine.observe_outcome(oc(0))
        engine.observe_outcome(oc(1))
        engine.finalize()
        history = engine.alarm.history
        engine.observe_outcome(oc(2))
        engine.observe_event(ev(3, period=3, prob=0.99))
        engine.observe_outcome(oc(3))  # a later period still opens
        with caplog.at_level("WARNING"):
            engine.finalize()
        assert "dropped 1 pairs" in caplog.text
        assert engine.stale_pairs == 1
        assert [(s.time.period, s.n) for s in engine.snapshots] == [(1, 1), (2, 1), (3, 1)]
        assert engine.alarm.history[:2] == history

    def test_stream_counts_are_the_records_accepted_and_survive_a_load(self):
        # e1 resolves after period 1 closed (stale), and e3 stays pending
        engine = MonitorEngine()
        for i, period in enumerate([1, 1, 2, 2]):
            engine.observe_event(ev(i, period=period))
        for i in (0, 2, 1):
            engine.observe_outcome(oc(i))
        assert (engine.stale_pairs, len(engine.snapshots)) == (1, 1)
        loaded = MonitorEngine.from_state(engine.to_state())
        for counted in (engine, loaded):
            assert (counted.events_seen, counted.outcomes_seen) == (4, 3)

    def test_unresolved_events_warned(self, caplog):
        engine = MonitorEngine()
        engine.observe_event(ev(0))
        engine.observe_event(ev(1))
        engine.observe_outcome(oc(0))
        with caplog.at_level("WARNING"):
            engine.finalize()
        assert "1 events left unresolved" in caplog.text


def _leaves(value, path=()):
    """The (path of keys and indexes, value) of each scalar in a JSON value,
    keys in sorted order."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], (*path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, (*path, i))
    else:
        yield path, value


class TestBoundedState:
    """Engine state is sized by the open period, not by the stream."""

    @pytest.fixture(scope="class")
    def outputs(self):
        return {n: generate(replace(canonical_scenario(), patients_per_period=n))
                for n in (500, 5000)}

    # the paths of the state values that count events, pairs or lines, whose
    # digits grow with the stream
    COUNTS = [("lines_consumed",), ("last_event_seq",), ("snapshots", "n"),
              ("snapshots", "positives"), ("snapshots", "sequence")]

    def test_finalized_state_does_not_grow_with_the_stream(self, outputs):
        states, sizes = {}, {}
        for n, output in outputs.items():
            engine = drive(MonitorEngine(), output.events, output.outcomes)
            engine.finalize()
            state = states[n] = engine.to_state()
            assert len(state["snapshots"]["period"]) == 12
            assert not any(state["pending"].values())  # no column holds a value
            assert state["resolved_ids"] == []
            assert state["open_time"] is None
            assert state["acc"] == {"probs": "", "ys": "", "losses": "", "regrets": ""}
            buf = io.StringIO()
            save_snapshot(engine, buf)
            sizes[n] = len(buf.getvalue())
        # the same keys and column lengths (strict zips), packed columns of
        # equal length, and a size that differs by exactly the digits the
        # count-valued fields gain
        small, large = (list(_leaves(states[n])) for n in (500, 5000))
        growth = 0
        for (path, a), (other, b) in zip(small, large, strict=True):
            assert path == other and type(a) is type(b), path
            if isinstance(a, str):
                assert len(a) == len(b), path
            elif len(json.dumps(a)) != len(json.dumps(b)):
                assert any(path[:len(count)] == count for count in self.COUNTS), path
                growth += len(json.dumps(b)) - len(json.dumps(a))
        assert sizes[5000] - sizes[500] == growth

    def test_mid_period_checkpoint_holds_open_period_ids_only(self, outputs):
        output = outputs[5000]
        engine = drive(MonitorEngine(), output.events, output.outcomes,
                       upto=12_345)  # mid period 3
        state = engine.to_state()
        period_of = {e.event_id: e.time.period for e in output.events}
        assert state["open_time"][0] == 3
        assert {period_of[i] for i in state["resolved_ids"]} == {3}
        probs = _unpack(state["acc"]["probs"], "d")
        assert len(state["resolved_ids"]) == len(probs) == 2_345


    def test_open_period_costs_few_bytes_per_pair(self):
        # The records are built (and kept) outside the traced region, so the
        # growth is what the engine holds per pair: typed-array values plus
        # a dict slot for the resolved id, 46 B on CPython 3.11. Float lists
        # or a set of ids put it near 78 B; 110 B with both.
        n = 10_000
        alts = [(0.25 + (i % 13) / 13, 0.5 + (i % 7) / 7) for i in range(n)]
        events = [PredictionEvent(f"ev-{i:06d}", TimeIndex(1, i), (i % 997) / 997, i % 2)
                  for i in range(n)]
        outcomes = [OutcomeRecord(f"ev-{i:06d}", i % 2, alts[i][i % 2], alts[i])
                    for i in range(n)]
        engine = MonitorEngine()
        gc.collect()
        tracemalloc.start()
        try:
            for event, outcome in zip(events, outcomes):
                engine.observe_event(event)
                engine.observe_outcome(outcome)
            gc.collect()
            per_pair = tracemalloc.get_traced_memory()[0] / n
        finally:
            tracemalloc.stop()
        assert engine._open_time.period == 1 and len(engine._acc_regrets) == n
        assert per_pair < 64, f"{per_pair:.1f} B per open pair"

    @pytest.mark.parametrize("n", [2_000, 20_000])
    def test_log_intake_of_an_open_period_costs_under_128_bytes_per_pair(self, n):
        # Only ingest_log is traced, over period 1 of a scenario log, so the
        # records die inside the region and the growth is all the engine
        # keeps: CPython 3.11 read 110.6 B per pair at 2k and 105.0 B at 20k,
        # more than half of it each resolved id's string. Keeping every
        # record alive as well puts it past 128 B.
        config = replace(canonical_scenario(), patients_per_period=n)
        lines = [log_line(r) for pair in islice(scenario_pairs(config), n) for r in pair]
        engine = MonitorEngine()
        gc.collect()
        tracemalloc.start()
        try:
            ingest_log(engine, lines)
            gc.collect()
            per_pair = tracemalloc.get_traced_memory()[0] / n
        finally:
            tracemalloc.stop()
        assert engine._open_time.period == 1 and len(engine._acc_regrets) == n
        assert engine.lines_consumed == len(lines)
        assert per_pair < 128, f"{per_pair:.1f} B per open pair"

    @pytest.mark.parametrize("period", ["canonical", "uniform"])
    def test_a_close_boxes_no_copy_of_a_period_column(self, period):
        # A traced close of a 20k-pair period holds under 32 B a pair above
        # its entry, what one boxed, sorted copy of a column costs (a float
        # object and a list slot). CPython 3.11 read 56 B (the canonical
        # scenario's period 1) and 60 B (uniform p, half positive) while the
        # metrics sorted whole columns, and 16 B since they read the typed
        # arrays in place; half positive, drift_score sums 10k terms.
        n = 20_000
        if period == "canonical":
            config = replace(canonical_scenario(), patients_per_period=n)
            pairs = list(islice(scenario_pairs(config), n))
        else:
            rng = random.Random(7)
            pairs = [(PredictionEvent(f"ev-{i:06d}", TimeIndex(1, i), rng.random(), None),
                      OutcomeRecord(f"ev-{i:06d}", i % 2, 3.0 * rng.random()))
                     for i in range(n)]
        engine = MonitorEngine()
        for event, outcome in pairs:
            engine.observe_event(event)
            engine.observe_outcome(outcome)
        assert engine._open_time.period == 1 and len(engine._acc_probs) == n
        gc.collect()
        tracemalloc.start()
        try:
            engine._close_period()
            per_pair = tracemalloc.get_traced_memory()[1] / n
        finally:
            tracemalloc.stop()
        assert len(engine.snapshots) == 1
        assert per_pair < 32, f"{per_pair:.1f} B per pair at the close's peak"


class TestPartialMetrics:
    def test_no_counterfactuals_means_no_regret_metrics(self):
        engine = MonitorEngine()
        for i in range(4):
            engine.observe_event(ev(i, prob=0.3))
            engine.observe_outcome(oc(i, y=i % 2, loss=0.5))
        engine.finalize()
        snap = engine.snapshots[0]
        assert snap.regret_cumulative is None
        assert snap.regret_rate is None
        assert snap.ece is not None

    def test_regret_rate_is_over_the_scored_pairs_only(self):
        # of the period's two pairs only the first carries alt_losses
        engine = MonitorEngine()
        engine.observe_event(PredictionEvent("a", TimeIndex(1, 0), 0.3, action_id=1))
        engine.observe_outcome(OutcomeRecord("a", 0, 1.0, alt_losses=(0.0, 1.0)))
        engine.observe_event(ev(1, prob=0.6))
        engine.observe_outcome(oc(1, y=1))
        engine.finalize()
        snap = engine.snapshots[0]
        assert (snap.n, snap.regret_cumulative, snap.regret_rate) == (2, 1.0, 1.0)

    def test_failed_close_leaves_the_engine_unchanged(self):
        # regret is the only enabled metric, and no pair has counterfactuals
        engine = MonitorEngine(policy=ThresholdPolicy(
            ece_max=None, cvar_max=None, regret_rate_max=0.1))
        for i in range(4):
            engine.observe_event(ev(i, prob=0.3))
            engine.observe_outcome(oc(i, y=i % 2, loss=0.5))
        before = engine.to_state()
        for _ in range(2):
            with pytest.raises(NoMetrics) as failed:
                engine.finalize()
            assert engine.to_state() == before
        # the traceback keeps the close's arrays alive; they are copies, so
        # the open period's buffers are free and it still takes records
        assert failed.traceback
        engine.observe_event(ev(4, prob=0.3))
        engine.observe_outcome(oc(4, loss=0.5))
        assert len(engine._acc_probs) == len(engine._acc_ys) == 5

    @pytest.mark.parametrize("y", [1.0, True, 0.0, False])
    def test_float_and_bool_outcomes_are_refused(self, y):
        # the outcome array holds bytes; only the ints 0 and 1 reach it
        with pytest.raises(ValueError, match="outcome must be the integer 0 or 1"):
            oc(0, y=y)

    def test_single_class_period_has_no_auc(self):
        engine = MonitorEngine()
        for i in range(5):
            engine.observe_event(ev(i, prob=0.2))
            engine.observe_outcome(oc(i, y=0, loss=0.1))
        engine.finalize()
        assert engine.snapshots[0].auc is None

    def test_gap_periods_allowed(self):
        engine = MonitorEngine()
        engine.observe_event(ev(0, period=1))
        engine.observe_outcome(oc(0))
        engine.observe_event(ev(1, period=5))
        engine.observe_outcome(oc(1))
        engine.finalize()
        assert [s.time.period for s in engine.snapshots] == [1, 5]


class TestRunMonitorWrapper:
    def test_custom_policy_changes_outcome(self, canonical_output):
        from riskwatch.simulator import run_monitor

        lax = ThresholdPolicy(ece_max=None, cvar_max=10.0)
        snaps, hist = run_monitor(canonical_output, policy=lax)
        assert hist[-1].state is OperatingState.NORMAL
        assert len(snaps) == 12
