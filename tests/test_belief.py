"""Beta-Bernoulli belief: conjugacy and the exact drift score."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import betainc, betaincinv, betaln

from riskwatch.belief import (
    BetaPosterior,
    _pairwise_sum,
    drift_score,
    update,
    update_batch,
)

params = st.floats(0.5, 500.0, allow_nan=False)


class TestConjugacy:
    def test_single_updates(self):
        prior = BetaPosterior(1.0, 1.0)
        assert update(prior, 1) == BetaPosterior(2.0, 1.0)
        assert update(prior, 0) == BetaPosterior(1.0, 2.0)

    def test_batch_equals_folds(self):
        prior = BetaPosterior(2.0, 3.0)
        folded = prior
        for y in [1, 1, 0, 1, 0]:
            folded = update(folded, y)
        assert update_batch(prior, positives=3, negatives=2) == folded

    @given(params, params, st.lists(st.integers(0, 1), max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_update_order_is_irrelevant(self, a, b, ys):
        prior = BetaPosterior(a, b)
        forward = prior
        for y in ys:
            forward = update(forward, y)
        backward = prior
        for y in reversed(ys):
            backward = update(backward, y)
        assert forward == backward
        assert forward == update_batch(prior, sum(ys), len(ys) - sum(ys))

    def test_mean(self):
        post = BetaPosterior(3.0, 7.0)
        assert post.mean == pytest.approx(0.3)

    def test_positive_parameters_required(self):
        for a, b in [(0.0, 1.0), (math.nan, 1.0), (math.inf, 2.0), (True, 1.0),
                     ("3", 1.0), (1.0, None)]:
            with pytest.raises(ValueError):
                BetaPosterior(a, b)
        with pytest.raises(ValueError):
            update(BetaPosterior(1.0, 1.0), 2)
        for positives, negatives in [(-1, 0), (0, -1)]:
            with pytest.raises(ValueError, match="must be an integer >= 0"):
                update_batch(BetaPosterior(1.0, 1.0), positives, negatives)

    @pytest.mark.parametrize("outcome", [True, False, 1.0, 0.0, 2, -1, "1", None])
    def test_outcome_follows_the_outcome_rule(self, outcome):
        # True and 1.0 were once taken as 1, giving Beta(2, 1)
        with pytest.raises(ValueError, match="outcome must be the integer 0 or 1"):
            update(BetaPosterior(), outcome)

    @pytest.mark.parametrize("name, count", [
        ("positives", 2.5), ("positives", True), ("positives", -1), ("positives", "3"),
        ("negatives", 1.0), ("negatives", False), ("negatives", -2), ("negatives", None),
    ])
    def test_counts_follow_the_integer_rule(self, name, count):
        # a count of 2.5 was once added as it was, giving Beta(3.5, 1)
        counts = {"positives": 0, "negatives": 0, name: count}
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 0, got"):
            update_batch(BetaPosterior(), **counts)


def mc_drift(baseline, rolling, samples, seed):
    """The Monte Carlo estimator drift_score used before it was exact, kept
    as a reference: folded share of paired posterior draws with
    p_rolling > p_baseline."""
    rng = np.random.default_rng(seed)
    draws_base = rng.beta(baseline.a, baseline.b, size=samples)
    draws_roll = rng.beta(rolling.a, rolling.b, size=samples)
    s = float(np.mean(draws_roll > draws_base))
    return max(s, 1.0 - s)


def quad_drift(baseline, rolling):
    """Folded P(p_rolling > p_baseline) by quadrature over the rolling density."""
    (a0, b0), (a1, b1) = (baseline.a, baseline.b), (rolling.a, rolling.b)
    lo = betaincinv(a1, b1, 1e-15)
    hi = betaincinv(a1, b1, 1.0 - 1e-15)
    log_norm = betaln(a1, b1)

    def integrand(x):
        pdf = math.exp((a1 - 1) * math.log(x) + (b1 - 1) * math.log1p(-x) - log_norm)
        return pdf * betainc(a0, b0, x)

    s, _ = integrate.quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200)
    s = min(max(s, 0.0), 1.0)
    return max(s, 1.0 - s)


def numpy_drift(baseline, rolling):
    """drift_score as it ran on numpy, kept as a reference, with libm logs
    and exps in place of numpy's SIMD ones (which differ by host) but with
    np.cumsum and np.sum: it pins the order the terms are added in."""
    a0, b0, a1, b1 = baseline.a, baseline.b, rolling.a, rolling.b
    if a1 > b1:
        a0, b0, a1, b1 = b0, a0, b1, a1
    log_first = (math.lgamma(b0 + b1) + math.lgamma(a0 + b0)
                 - math.lgamma(a0 + b0 + b1) - math.lgamma(b0))
    i = np.arange(int(a1) - 1, dtype=float)
    log_ratios = np.array(
        [math.log(a0 + k) + math.log(b1 + k) - math.log(a0 + b0 + b1 + k) - math.log1p(k)
         for k in i.tolist()])
    log_terms = log_first + np.concatenate(([0.0], np.cumsum(log_ratios)))
    s = min(float(np.array([math.exp(t) for t in log_terms.tolist()]).sum()), 1.0)
    return max(s, 1.0 - s)


# (a, b) of posteriors built from counts, from a handful of events to the
# 20k of a 10x-scale period
GRID = [(1.0, 1.0), (2.0, 1.0), (3.0, 9.0), (37.0, 63.0), (101.0, 899.0),
        (130.0, 870.0), (250.0, 750.0), (500.0, 500.0), (2401.0, 17601.0),
        (2601.0, 17401.0)]
# only the rolling posterior needs whole numbers; a baseline from a
# non-uniform prior may be fractional
FRACTIONAL_BASELINES = [(0.5, 0.5), (2.5, 7.25), (120.5, 880.5)]


class TestDriftScore:
    def test_hand_value(self):
        # P(p_roll > p_base) for Beta(2, 1) against a uniform: integral of 2x * x
        assert drift_score(BetaPosterior(1, 1), BetaPosterior(2, 1)) == pytest.approx(
            2.0 / 3.0, abs=1e-12)

    def test_identical_posteriors_score_half(self):
        for ab in [(1.0, 1.0), (37.0, 63.0), (30.0, 70.0), (500.0, 500.0), (64.0, 3.0)]:
            post = BetaPosterior(*ab)
            assert drift_score(post, post) == pytest.approx(0.5, abs=1e-12), ab

    def test_separated_posteriors_score_high(self):
        assert drift_score(BetaPosterior(100.0, 900.0), BetaPosterior(250.0, 750.0)) > 0.99

    def test_direction_symmetric(self):
        # the swap sums over the other posterior's parameter, so the two
        # agree to the method's accuracy (about 5e-11 at 20k events), not bitwise
        for base, roll in itertools.combinations(GRID, 2):
            up = drift_score(BetaPosterior(*base), BetaPosterior(*roll))
            down = drift_score(BetaPosterior(*roll), BetaPosterior(*base))
            assert up == pytest.approx(down, abs=1e-10), (base, roll)

    def test_score_bounded(self):
        for base, roll in itertools.product(GRID + FRACTIONAL_BASELINES, GRID):
            assert 0.5 <= drift_score(BetaPosterior(*base), BetaPosterior(*roll)) <= 1.0

    @pytest.mark.parametrize("base,roll", [
        *itertools.product(GRID, GRID[::3]),
        *itertools.product(FRACTIONAL_BASELINES, GRID[:4]),
    ])
    def test_matches_quadrature(self, base, roll):
        base, roll = BetaPosterior(*base), BetaPosterior(*roll)
        assert drift_score(base, roll) == pytest.approx(quad_drift(base, roll), abs=1e-9)

    @pytest.mark.parametrize("base,roll", itertools.product(GRID[2:8], GRID[2:8:2]))
    def test_within_monte_carlo_error(self, base, roll):
        samples = 100_000
        base, roll = BetaPosterior(*base), BetaPosterior(*roll)
        exact = drift_score(base, roll)
        estimate = mc_drift(base, roll, samples, seed=[7, 3])
        se = math.sqrt(exact * (1.0 - exact) / samples)
        assert abs(estimate - exact) <= 6.0 * se + 1.0 / samples

    @given(st.one_of(st.integers(1, 25_000).map(float), st.floats(0.01, 25_000.0)),
           st.one_of(st.integers(1, 25_000).map(float), st.floats(0.01, 25_000.0)),
           st.integers(1, 25_000), st.integers(1, 25_000))
    @settings(max_examples=60, deadline=None)
    def test_same_bits_as_the_numpy_sum(self, a0, b0, a1, b1):
        base, roll = BetaPosterior(a0, b0), BetaPosterior(float(a1), float(b1))
        assert drift_score(base, roll) == numpy_drift(base, roll)

    @pytest.mark.parametrize("base,roll", itertools.product(GRID, GRID))
    def test_same_bits_as_the_numpy_sum_on_the_grid(self, base, roll):
        base, roll = BetaPosterior(*base), BetaPosterior(*roll)
        assert drift_score(base, roll) == numpy_drift(base, roll)

    @given(st.lists(st.floats(-1e6, 1e6), max_size=2000))
    @settings(max_examples=200, deadline=None)
    def test_pairwise_sum_is_numpy_sum(self, values):
        assert _pairwise_sum(values) == float(np.sum(values))

    @pytest.mark.parametrize("roll", [(2.5, 3.0), (3.0, 2.5), (0.5, 0.5)])
    def test_non_whole_rolling_parameter_raises(self, roll):
        with pytest.raises(ValueError, match="whole"):
            drift_score(BetaPosterior(1.0, 1.0), BetaPosterior(*roll))
