"""Regret accounting: ledger discipline, hand values, regret laws, oracles,
and agreement with the engine's period regret."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskwatch.alarms import ThresholdPolicy
from riskwatch.core import OutcomeRecord, PredictionEvent, TimeIndex
from riskwatch.errors import EmptyLedger, OutOfOrderEntry, RaggedActionSets
from riskwatch.monitor import MonitorEngine
from riskwatch.regret import (
    DecisionLedgerEntry,
    RegretReport,
    best_fixed_action_regret,
    cumulative_regret,
    safety_exposure,
)


def entry(seq, chosen, losses, period=1):
    return DecisionLedgerEntry(
        time=TimeIndex(period=period, sequence=seq),
        chosen_action=chosen,
        action_losses=tuple(losses),
    )


# random ledgers with a fixed action-set width per ledger
def ledgers(min_steps=1, max_steps=60, max_actions=8):
    return st.integers(2, max_actions).flatmap(
        lambda width: st.lists(
            st.tuples(
                st.integers(0, width - 1),
                st.lists(
                    st.floats(0, 100, allow_nan=False).map(lambda x: round(x, 4)),
                    min_size=width,
                    max_size=width,
                ),
            ),
            min_size=min_steps,
            max_size=max_steps,
        )
    ).map(
        lambda rows: [entry(i, c, L) for i, (c, L) in enumerate(rows)]
    )


# every function over a whole ledger, as a function of the ledger alone
LEDGER_FUNCTIONS = [cumulative_regret, best_fixed_action_regret,
                    lambda ledger: safety_exposure(ledger, 1.0)]


class TestLedger:
    def test_sequences_must_increase(self):
        for fn in LEDGER_FUNCTIONS:
            for seqs in [(5, 5), (5, 3), (5, 6, 6), (0, 2, 1)]:
                with pytest.raises(OutOfOrderEntry):
                    fn([entry(seq, 0, [1.0, 2.0]) for seq in seqs])
            ledger = [entry(5, 0, [1.0, 2.0]), entry(6, 1, [1.0, 2.0])]
            fn(ledger)  # gaps are allowed
            fn(iter(ledger))  # any iterable of entries reads as a ledger

    def test_chosen_action_in_range(self):
        # an integer that indexes the losses; a bool or a float is none
        for chosen in (2, -1, True, 1.0):
            with pytest.raises(ValueError, match="chosen_action"):
                entry(0, chosen, [1.0, 2.0])

    @pytest.mark.parametrize("losses", [(math.nan, 0.1), (0.1, math.nan), (math.inf, 0.0),
                                        ("0.3", 0.1), (True, 0.0), ()], ids=repr)
    def test_losses_follow_the_alt_losses_rule(self, losses):
        # one rule for the losses of every alternative, so a NaN loss is
        # refused here as in a log, not scored as nan or dropped as 0.0
        with pytest.raises(ValueError) as record:
            OutcomeRecord("x", 0, 0.0, alt_losses=losses)
        with pytest.raises(ValueError) as ledger:
            entry(0, 0, losses)
        assert str(ledger.value) == str(record.value).replace("alt_losses", "action_losses")

    def test_losses_list_stored_as_tuple(self):
        e = DecisionLedgerEntry(TimeIndex(1, 0), chosen_action=1, action_losses=[0.5, 1])
        assert e.action_losses == (0.5, 1)
        hash(e)

    def test_empty_ledger_rejected(self):
        for fn in LEDGER_FUNCTIONS:
            with pytest.raises(EmptyLedger):
                fn([])


class TestHandValues:
    def test_simple_sequence(self):
        ledger = [
            entry(0, 0, [1.0, 3.0]),  # chose minimum: 0 regret
            entry(1, 1, [1.0, 3.0]),  # 2.0 regret
            entry(2, 1, [5.0, 2.0]),  # chose minimum: 0 regret
        ]
        report = cumulative_regret(ledger)
        assert report.cumulative == 2.0
        assert report.rate == pytest.approx(2.0 / 3.0)
        assert report.steps == 3
        # fixed action 0 total = 7, fixed action 1 total = 8, chosen = 6
        # hindsight per-step sequence beats every fixed action
        assert best_fixed_action_regret(ledger) == 6.0 - 7.0 == -1.0

    def test_exposure_count(self):
        ledger = [entry(0, 0, [0.5, 9.0]), entry(1, 1, [0.5, 9.0])]
        assert safety_exposure(ledger, bound=1.0) == 1
        assert safety_exposure(ledger, bound=9.0) == 0

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf, True, "x", None])
    def test_exposure_bound_follows_the_number_rule(self, bound):
        # a NaN bound once counted 0 exposures and True counted as 1
        ledger = [entry(0, 0, [0.5, 9.0]), entry(1, 1, [0.5, 9.0])]
        with pytest.raises(ValueError, match="bound must be a finite number, got"):
            safety_exposure(ledger, bound)

    def test_ragged_action_sets(self):
        ledger = [entry(0, 0, [1.0, 2.0]), entry(1, 2, [1.0, 2.0, 3.0])]
        with pytest.raises(RaggedActionSets):
            best_fixed_action_regret(ledger)
        # only the fixed-action comparator needs one action-set size
        assert cumulative_regret(ledger) == RegretReport(2, 2.0, 1.0)
        assert safety_exposure(ledger, bound=2.0) == 1


class TestRegretLaws:
    @given(ledgers())
    @settings(max_examples=150, deadline=None)
    def test_nonnegative_and_zero_iff_argmin(self, ledger):
        report = cumulative_regret(ledger)
        assert report.cumulative >= 0.0
        always_argmin = all(
            e.chosen_loss == min(e.action_losses) for e in ledger
        )
        assert (report.cumulative == 0.0) == always_argmin

    @given(ledgers(min_steps=2))
    @settings(max_examples=150, deadline=None)
    def test_nondecreasing_in_time(self, ledger):
        partials = [
            cumulative_regret(ledger[: t + 1]).cumulative
            for t in range(len(ledger))
        ]
        for lo, hi in zip(partials, partials[1:]):
            assert hi >= lo

    @given(ledgers())
    @settings(max_examples=150, deadline=None)
    def test_hindsight_comparator_dominates_fixed(self, ledger):
        """sum_t min_a l_t(a) <= min_a sum_t l_t(a), hence
        best_fixed regret <= cumulative per-step regret."""
        per_step_opt = math.fsum(min(e.action_losses) for e in ledger)
        fixed_opt = min(
            math.fsum(e.action_losses[a] for e in ledger)
            for a in range(len(ledger[0].action_losses))
        )
        assert per_step_opt <= fixed_opt + 1e-9
        assert best_fixed_action_regret(ledger) <= cumulative_regret(ledger).cumulative + 1e-9

    @given(ledgers(min_steps=2))
    @settings(max_examples=100, deadline=None)
    def test_additive_over_concatenation(self, ledger):
        cut = len(ledger) // 2
        head, tail = ledger[:cut], ledger[cut:]
        if not head or not tail:
            return
        whole = cumulative_regret(ledger).cumulative
        split_sum = (
            cumulative_regret(head).cumulative + cumulative_regret(tail).cumulative
        )
        assert whole == pytest.approx(split_sum, abs=1e-9)


class TestOracleEquivalence:
    @given(ledgers())
    @settings(max_examples=200, deadline=None)
    def test_cumulative_matches_bruteforce_exactly(self, ledger):
        oracle = math.fsum(
            e.action_losses[e.chosen_action] - min(e.action_losses) for e in ledger
        )
        assert cumulative_regret(ledger).cumulative == oracle

    @given(ledgers())
    @settings(max_examples=200, deadline=None)
    def test_best_fixed_matches_bruteforce_exactly(self, ledger):
        width = len(ledger[0].action_losses)
        totals = {
            a: math.fsum(e.action_losses[a] for e in ledger) for a in range(width)
        }
        oracle = math.fsum(e.chosen_loss for e in ledger) - min(totals.values())
        assert best_fixed_action_regret(ledger) == oracle


class TestSumsPastTheFloatRange:
    """A regret total whose float sum passes the range is inf exactly where
    the exact total does, and a rate of finite regrets is finite."""

    def test_total_is_inf_and_rate_is_the_exact_mean(self):
        ledger = [entry(i, 0, [1e308, 0.0]) for i in range(2)]
        assert cumulative_regret(ledger) == RegretReport(2, math.inf, 1e308)
        assert best_fixed_action_regret(ledger) == math.inf

    def test_best_fixed_of_two_infinite_totals_is_their_exact_gap(self):
        # both totals round to inf, and inf - inf is NaN
        assert best_fixed_action_regret([entry(i, 0, [1e308, 1e308]) for i in range(2)]) == 0.0


class TestEngineAgreement:
    """cumulative_regret over a period's decisions is the engine's regret
    for that period, bit for bit, whatever the action-set sizes."""

    # (period, chosen action, counterfactual losses): two and three actions
    DECISIONS = [
        (1, 0, (0.0, 0.05)),
        (1, 0, (0.9, 0.05)),
        (1, 2, (0.3, 0.1, 0.11)),
        (1, 1, (0.02, 0.0, 0.4)),
        (2, 1, (0.7, 0.2)),
        (2, 0, (0.1, 0.3, 0.05)),
        (2, 2, (1.3, 0.05, 0.05)),
    ]

    def test_snapshots_match_cumulative_regret(self):
        engine = MonitorEngine(ThresholdPolicy(ece_max=None, cvar_max=None,
                                               regret_rate_max=0.5))
        periods = {}
        for seq, (period, chosen, losses) in enumerate(self.DECISIONS):
            time = TimeIndex(period, seq)
            engine.observe_event(PredictionEvent(f"e{seq}", time, 0.5, action_id=chosen))
            engine.observe_outcome(OutcomeRecord(f"e{seq}", seq % 2, losses[chosen], losses))
            periods.setdefault(period, []).append(entry(seq, chosen, losses, period))
        engine.finalize()

        assert [s.time.period for s in engine.snapshots] == sorted(periods)
        running = 0.0
        for snapshot, ledger in zip(engine.snapshots, periods.values()):
            report = cumulative_regret(ledger)
            running += report.cumulative
            assert snapshot.regret_rate == report.rate
            assert snapshot.regret_cumulative == running
        # by hand: 0.85 (step 1) + 0.01 (step 2) in period 1, 0.05 (step 5) in period 2
        assert running == pytest.approx(0.86 + 0.05)
