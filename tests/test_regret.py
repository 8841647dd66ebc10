"""Regret accounting: ledger discipline, hand values, regret laws, oracles."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskwatch.core import TimeIndex
from riskwatch.errors import EmptyLedger, OutOfOrderEntry, RaggedActionSets
from riskwatch.regret import (
    DecisionLedger,
    DecisionLedgerEntry,
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


class TestLedger:
    def test_sequences_must_increase(self):
        ledger = DecisionLedger()
        ledger.record(entry(5, 0, [1.0, 2.0]))
        with pytest.raises(OutOfOrderEntry):
            ledger.record(entry(5, 0, [1.0, 2.0]))
        with pytest.raises(OutOfOrderEntry):
            ledger.record(entry(3, 0, [1.0, 2.0]))
        ledger.record(entry(6, 1, [1.0, 2.0]))
        assert len(ledger) == 2

    def test_chosen_action_in_range(self):
        with pytest.raises(ValueError):
            entry(0, 2, [1.0, 2.0])

    def test_empty_ledger_rejected(self):
        with pytest.raises(EmptyLedger):
            cumulative_regret([])


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
        assert report.best_fixed == 6.0 - 7.0 == -1.0

    def test_exposure_count(self):
        ledger = [entry(0, 0, [0.5, 9.0]), entry(1, 1, [0.5, 9.0])]
        assert safety_exposure(ledger, bound=1.0) == 1
        report = cumulative_regret(ledger, safety_bound=1.0)
        assert report.exposure_count == 1
        assert cumulative_regret(ledger).exposure_count is None

    def test_ragged_action_sets(self):
        with pytest.raises(RaggedActionSets):
            best_fixed_action_regret(
                [entry(0, 0, [1.0, 2.0]), entry(1, 0, [1.0, 2.0, 3.0])]
            )


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
        report = cumulative_regret(ledger)
        assert report.best_fixed <= report.cumulative + 1e-9

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
        report = cumulative_regret(ledger)
        assert (report.cumulative, report.rate, report.best_fixed) == (math.inf, 1e308, math.inf)

    def test_best_fixed_of_two_infinite_totals_is_their_exact_gap(self):
        # both totals round to inf, and inf - inf is NaN
        assert best_fixed_action_regret([entry(i, 0, [1e308, 1e308]) for i in range(2)]) == 0.0
