"""Alarm state machine: escalation, hysteresis, breach semantics."""

import math

import pytest

from riskwatch.alarms import (
    AlarmState,
    OperatingState,
    ThresholdPolicy,
    evaluate,
)
from riskwatch.core import MetricSnapshot, TimeIndex
from riskwatch.errors import NoMetrics


def snap(period, **metrics):
    return MetricSnapshot(time=TimeIndex(period=period, sequence=period), n=100,
                          **metrics)


def run(policy, snapshots):
    state = AlarmState()
    states = []
    for s in snapshots:
        state = evaluate(state, s, policy)
        states.append(state.state)
    return state, states


POLICY = ThresholdPolicy()  # ece_max 0.045, cvar_max 0.13, review@1, suspend@3


class TestEscalation:
    def test_single_breach_reaches_review(self):
        _, states = run(POLICY, [snap(1, ece=0.01), snap(2, ece=0.10)])
        assert states == [OperatingState.NORMAL, OperatingState.REVIEW]

    def test_three_consecutive_breaches_suspend(self):
        _, states = run(POLICY, [snap(m, ece=0.10) for m in range(1, 5)])
        assert states == [
            OperatingState.REVIEW,     # streak 1
            OperatingState.REVIEW,     # streak 2
            OperatingState.SUSPENDED,  # streak 3
            OperatingState.SUSPENDED,
        ]

    def test_never_skips_a_level(self):
        policy = ThresholdPolicy(consecutive_for_review=1, consecutive_for_suspend=1)
        _, states = run(policy, [snap(1, ece=0.9), snap(2, ece=0.9)])
        # even with suspend streak met immediately, one level per evaluation
        assert states == [OperatingState.REVIEW, OperatingState.SUSPENDED]

    def test_streak_resets_on_clean_period(self):
        seq = [snap(1, ece=0.1), snap(2, ece=0.01), snap(3, ece=0.1),
               snap(4, ece=0.01), snap(5, ece=0.1)]
        final, states = run(POLICY, seq)
        # breaches never accumulate 3 in a row, so never suspended
        assert OperatingState.SUSPENDED not in states
        assert final.breach_streak == 1

    def test_breached_metrics_recorded(self):
        state = evaluate(AlarmState(), snap(1, ece=0.5, cvar=0.5), POLICY)
        assert state.history[-1].breached == ("ece", "cvar")
        assert state.history[-1].time.period == 1
        # a metric equal to its bound does not breach; the next float up does
        policy = ThresholdPolicy(regret_rate_max=0.2, drift_min=0.9)
        at = policy.bounds()
        assert len(at) == 4
        assert evaluate(AlarmState(), snap(1, **at), policy).history[-1].breached == ()
        for metric, bound in at.items():
            over = snap(1, **{**at, metric: math.nextafter(bound, math.inf)})
            assert evaluate(AlarmState(), over, policy).history[-1].breached == (metric,)


class TestRecovery:
    def test_step_down_needs_recovery_periods(self):
        seq = [snap(1, ece=0.1),                      # review
               snap(2, ece=0.01),                     # clean 1: hold
               snap(3, ece=0.01),                     # clean 2: back to normal
               ]
        _, states = run(POLICY, seq)
        assert states == [OperatingState.REVIEW, OperatingState.REVIEW,
                          OperatingState.NORMAL]

    def test_full_recovery_from_suspended_takes_two_stages(self):
        seq = [snap(m, ece=0.1) for m in (1, 2, 3)] + [
            snap(m, ece=0.01) for m in (4, 5, 6, 7)
        ]
        _, states = run(POLICY, seq)
        assert states == [
            OperatingState.REVIEW, OperatingState.REVIEW, OperatingState.SUSPENDED,
            OperatingState.SUSPENDED,  # clean 1
            OperatingState.REVIEW,     # clean 2: one step down
            OperatingState.REVIEW,     # clean 1 (counter restarted)
            OperatingState.NORMAL,     # clean 2: second step
        ]

    def test_breach_during_recovery_restarts_clean_count(self):
        seq = [snap(1, ece=0.1), snap(2, ece=0.01), snap(3, ece=0.1),
               snap(4, ece=0.01), snap(5, ece=0.01)]
        _, states = run(POLICY, seq)
        assert states[-1] == OperatingState.NORMAL
        assert states[2] == OperatingState.REVIEW  # re-breach held it at review


class TestBreachSemantics:
    def test_disjunctive_default(self):
        state = evaluate(AlarmState(), snap(1, ece=0.01, cvar=0.99), POLICY)
        assert state.state is OperatingState.REVIEW

    def test_conjunctive_requires_all(self):
        policy = ThresholdPolicy(conjunctive=True)
        s1 = evaluate(AlarmState(), snap(1, ece=0.01, cvar=0.99), policy)
        assert s1.state is OperatingState.NORMAL
        s2 = evaluate(AlarmState(), snap(1, ece=0.99, cvar=0.99), policy)
        assert s2.state is OperatingState.REVIEW

    def test_disabled_metric_ignored(self):
        policy = ThresholdPolicy(ece_max=None, cvar_max=0.13)
        state = evaluate(AlarmState(), snap(1, ece=0.99, cvar=0.01), policy)
        assert state.state is OperatingState.NORMAL

    def test_undefined_metric_ignored(self):
        # cvar enabled but undefined in the snapshot: judged on ece alone
        state = evaluate(AlarmState(), snap(1, ece=0.01), POLICY)
        assert state.state is OperatingState.NORMAL

    def test_boundary_is_not_a_breach(self):
        state = evaluate(AlarmState(), snap(1, ece=0.045), POLICY)
        assert state.state is OperatingState.NORMAL

    def test_all_metrics_undefined_raises(self):
        policy = ThresholdPolicy(ece_max=0.045, cvar_max=None)
        with pytest.raises(NoMetrics):
            evaluate(AlarmState(), snap(1, brier=0.2), policy)

    def test_drift_and_regret_bounds(self):
        policy = ThresholdPolicy(regret_rate_max=0.02, drift_min=0.9)
        state = evaluate(AlarmState(),
                         snap(1, ece=0.01, regret_rate=0.05, drift_score=0.95),
                         policy)
        assert state.history[-1].breached == ("regret_rate", "drift_score")


class TestPolicyValidation:
    def test_suspend_streak_not_below_review(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(consecutive_for_review=3, consecutive_for_suspend=2)

    def test_positive_streaks(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(consecutive_for_review=0)
        with pytest.raises(ValueError):
            ThresholdPolicy(recovery_periods=0)

    @pytest.mark.parametrize("bound", ["ece_max", "cvar_max", "regret_rate_max", "drift_min"])
    def test_at_least_one_bound(self, bound):
        unbounded = dict(ece_max=None, cvar_max=None)
        with pytest.raises(ValueError, match="no metric is bounded"):
            ThresholdPolicy(**unbounded)
        assert list(ThresholdPolicy(**{**unbounded, bound: 0.5}).bounds().values()) == [0.5]


class TestHistoryAndFirstBreach:
    def test_history_append_only(self):
        state = AlarmState()
        for m in range(1, 6):
            state = evaluate(state, snap(m, ece=0.01), POLICY)
        assert len(state.history) == 5
        assert [r.time.period for r in state.history] == [1, 2, 3, 4, 5]
