"""Streaming engine: agreement with offline metrics, state freezing, joins."""

import io
import json
from dataclasses import replace

import pytest

from riskwatch.alarms import OperatingState, ThresholdPolicy
from riskwatch.calibration import auc, brier, ece, ece_trajectory
from riskwatch.core import OutcomeRecord, PredictionEvent, TimeIndex, join
from riskwatch.errors import DuplicateOutcome, OrphanOutcome, VersionMismatch
from riskwatch.eventlog import save_snapshot
from riskwatch.monitor import MonitorEngine
from riskwatch.simulator import canonical_scenario, drive_engine, generate
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

    def test_offline_trajectory_matches_engine(self, canonical_output):
        # the offline join + per-period windows against the engine's join
        engine = MonitorEngine()
        drive(engine, canonical_output.events, canonical_output.outcomes)
        engine.finalize()
        points = ece_trajectory(join(canonical_output.events, canonical_output.outcomes))
        assert [(p.time, p.n, p.ece, p.brier, p.auc) for p in points] == [
            (s.time, s.n, s.ece, s.brier, s.auc) for s in engine.snapshots
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
        # 3 the last with every resolved id and no log line count
        for version in (2, 3, 999):
            state = MonitorEngine().to_state()
            state["engine_version"] = version
            with pytest.raises(VersionMismatch):
                MonitorEngine.from_state(state)


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
            with pytest.raises(ValueError, match="duplicate event_id"):
                engine.observe_event(event)
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

    def test_unresolved_events_warned(self, caplog):
        engine = MonitorEngine()
        engine.observe_event(ev(0))
        engine.observe_event(ev(1))
        engine.observe_outcome(oc(0))
        with caplog.at_level("WARNING"):
            engine.finalize()
        assert "1 events left unresolved" in caplog.text


class TestBoundedState:
    """Engine state is sized by the open period, not by the stream."""

    @pytest.fixture(scope="class")
    def outputs(self):
        return {n: generate(replace(canonical_scenario(), patients_per_period=n))
                for n in (500, 5000)}

    def test_finalized_state_does_not_grow_with_the_stream(self, outputs):
        sizes = {}
        for n, output in outputs.items():
            engine = drive_engine(MonitorEngine(), output)
            state = engine.to_state()
            assert len(state["snapshots"]) == 12
            assert state["pending"] == []
            assert state["resolved_ids"] == []
            assert state["acc"] == {"probs": [], "ys": [], "losses": [],
                                    "regrets": [], "last_sequence": None}
            buf = io.StringIO()
            save_snapshot(engine, buf)
            sizes[n] = len(buf.getvalue())
        assert abs(sizes[5000] - sizes[500]) <= 0.01 * sizes[500]

    def test_mid_period_checkpoint_holds_open_period_ids_only(self, outputs):
        output = outputs[5000]
        engine = drive(MonitorEngine(), output.events, output.outcomes,
                       upto=12_345)  # mid period 3
        state = engine.to_state()
        period_of = {e.event_id: e.time.period for e in output.events}
        assert state["open_period"] == 3
        assert {period_of[i] for i in state["resolved_ids"]} == {3}
        assert len(state["resolved_ids"]) == len(state["acc"]["probs"]) == 2_345


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
