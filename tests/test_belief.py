"""Beta-Bernoulli belief: conjugacy, intervals vs a bisection oracle, drift."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from riskwatch.belief import (
    BetaPosterior,
    credible_interval,
    drift_score,
    update,
    update_batch,
)
from riskwatch.errors import BadLevel


def oracle_beta_quantile(a, b, q, tol=1e-12):
    """Invert the regularized incomplete beta by bisection; no scipy.stats."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if betainc(a, b, mid) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return (lo + hi) / 2.0


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

    def test_moments(self):
        post = BetaPosterior(3.0, 7.0)
        assert post.mean == pytest.approx(0.3)
        assert post.variance == pytest.approx(0.3 * 0.7 / 11.0)

    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            BetaPosterior(0.0, 1.0)
        with pytest.raises(ValueError):
            update(BetaPosterior(1.0, 1.0), 2)


class TestCredibleInterval:
    @given(params, params, st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99]))
    @settings(max_examples=60, deadline=None)
    def test_matches_bisection_oracle(self, a, b, level):
        lo, hi = credible_interval(BetaPosterior(a, b), level=level)
        tail = (1.0 - level) / 2.0
        assert lo == pytest.approx(oracle_beta_quantile(a, b, tail), abs=1e-9)
        assert hi == pytest.approx(oracle_beta_quantile(a, b, 1.0 - tail), abs=1e-9)

    def test_equals_scipy_stats_quantiles(self):
        # the interval came from scipy.stats.beta.ppf before; the switch to
        # betaincinv keeps every bit
        from scipy import stats

        mismatches = []
        for a, b, level in itertools.product(
            [0.5, 1.0, 2.5, 13.0, 120.0, 500.0, 4000.0],
            [0.5, 1.0, 7.0, 60.0, 350.0, 4000.0],
            [0.5, 0.8, 0.9, 0.95, 0.99, 0.999],
        ):
            tail = (1.0 - level) / 2.0
            expected = (float(stats.beta.ppf(tail, a, b)), float(stats.beta.ppf(1.0 - tail, a, b)))
            got = credible_interval(BetaPosterior(a, b), level=level)
            if got != expected:
                mismatches.append((a, b, level, got, expected))
        assert mismatches == []

    def test_interval_brackets_mean_for_symmetric(self):
        lo, hi = credible_interval(BetaPosterior(50.0, 50.0), level=0.95)
        assert lo < 0.5 < hi
        assert lo + hi == pytest.approx(1.0, abs=1e-9)

    @given(params, params)
    @settings(max_examples=60, deadline=None)
    def test_nested_levels(self, a, b):
        post = BetaPosterior(a, b)
        lo80, hi80 = credible_interval(post, level=0.8)
        lo95, hi95 = credible_interval(post, level=0.95)
        assert lo95 <= lo80 and hi80 <= hi95

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 2.0])
    def test_bad_level(self, level):
        with pytest.raises(BadLevel):
            credible_interval(BetaPosterior(1.0, 1.0), level=level)


class TestDriftScore:
    def test_identical_posteriors_score_half(self):
        post = BetaPosterior(37.0, 63.0)
        s = drift_score(post, post, samples=100_000, seed=5)
        assert 0.48 <= s <= 0.52

    def test_separated_posteriors_score_high(self):
        s = drift_score(
            BetaPosterior(100.0, 900.0),
            BetaPosterior(250.0, 750.0),
            samples=100_000,
            seed=5,
        )
        assert s > 0.99

    def test_direction_symmetric(self):
        a, b = BetaPosterior(20.0, 80.0), BetaPosterior(40.0, 60.0)
        assert drift_score(a, b, seed=9) == drift_score(a, b, seed=9)
        # folded: both drift directions look alike in magnitude
        up = drift_score(a, b, samples=50_000, seed=9)
        down = drift_score(b, a, samples=50_000, seed=9)
        assert up == pytest.approx(down, abs=0.02)
        assert up >= 0.5 and down >= 0.5

    def test_score_bounded(self):
        s = drift_score(BetaPosterior(1.0, 9.0), BetaPosterior(9.0, 1.0),
                        samples=2_000, seed=0)
        assert 0.5 <= s <= 1.0

    def test_sample_floor_enforced(self):
        post = BetaPosterior(1.0, 1.0)
        with pytest.raises(ValueError):
            drift_score(post, post, samples=999)

    def test_seed_sequence_accepted(self):
        post = BetaPosterior(5.0, 5.0)
        a = drift_score(post, post, samples=2_000, seed=[7, 3])
        b = drift_score(post, post, samples=2_000, seed=[7, 3])
        assert a == b
