"""VaR/CVaR estimators: pinned values, coherence laws, estimator equivalence."""

import math
import random
import tracemalloc
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskwatch import tailrisk
from riskwatch.core import fsum
from riskwatch.errors import BadAlpha, EmptyLosses
from riskwatch.tailrisk import (
    cvar_conditional,
    cvar_tail,
    cvar_variational,
    var,
)

loss_vectors = st.lists(
    st.floats(-50, 50, allow_nan=False).map(lambda x: round(x, 3)),
    min_size=2,
    max_size=300,
)
alphas = st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99])


# -- the numpy formulas the estimators ran on before they moved to typed
# arrays and the standard library, kept as references: the estimators must
# give the same bits on every input


def numpy_var(losses, alpha):
    x = np.asarray(losses, dtype=float)
    target = alpha * x.size
    nearest = round(target)
    r = (nearest if nearest > 0 and abs(target - nearest) <= 1e-9 * x.size
         else math.ceil(target))
    return float(np.sort(x, kind="stable")[r - 1])


def numpy_cvar_conditional(losses, alpha):
    x = np.asarray(losses, dtype=float)
    tail = x[x >= numpy_var(losses, alpha)]
    return math.fsum(tail.tolist()) / tail.size


def numpy_cvar_tail(losses, alpha):
    x = np.asarray(losses, dtype=float)
    n = x.size
    mass = (1.0 - alpha) * n
    nearest = round(mass)
    mass = float(nearest if nearest > 0 and abs(mass - nearest) <= 1e-9 * n else mass)
    k = int(math.floor(mass))
    frac = mass - k
    desc = np.sort(x, kind="stable")[::-1]
    if k == 0:
        return float(desc[0])
    anchor = float(desc[k]) if frac > 0.0 else float(desc[k - 1])
    total = math.fsum((float(v) - anchor) for v in desc[:k])
    return anchor + total / mass


# losses with ties, both zeros, and one value or many
numpy_losses = st.lists(
    st.one_of(st.floats(-1e6, 1e6, allow_nan=False),
              st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5])),
    min_size=1,
    max_size=300,
)
numpy_alphas = st.one_of(alphas, st.floats(0.001, 0.999))
as_inputs = st.sampled_from([list, np.array, lambda v: array("d", v)])


class TestSameBitsAsTheNumpyFormulas:
    @pytest.mark.parametrize("estimator, formula", [
        (var, numpy_var),
        (cvar_tail, numpy_cvar_tail),
        (cvar_conditional, numpy_cvar_conditional),
    ], ids=["var", "cvar_tail", "cvar_conditional"])
    @given(losses=numpy_losses, alpha=numpy_alphas, as_input=as_inputs)
    @example(losses=[0.0, -0.0], alpha=0.6, as_input=list)  # the top value of a tie
    @example(losses=[-0.0, 0.0], alpha=0.6, as_input=list)
    @example(losses=[-0.0, 0.0, 5.0, -0.0], alpha=0.4, as_input=list)
    @settings(max_examples=200, deadline=None)
    def test_estimator(self, estimator, formula, losses, alpha, as_input):
        # repr tells -0.0 from 0.0, which == does not
        assert repr(estimator(as_input(losses), alpha)) == repr(formula(losses, alpha))


# -- the whole-column sorts var and cvar_tail ran on before they sorted only
# the top of the losses, kept as references: the estimators must give their
# bits on every input, the order of -0.0 and 0.0 included


def sorted_var(losses, alpha):
    x = array("d", losses)
    target = alpha * len(x)
    nearest = round(target)
    r = (nearest if nearest > 0 and abs(target - nearest) <= 1e-9 * len(x)
         else math.ceil(target))
    return sorted(x)[r - 1]


def sorted_cvar_tail(losses, alpha):
    x = array("d", losses)
    n = len(x)
    mass = (1.0 - alpha) * n
    nearest = round(mass)
    mass = float(nearest if nearest > 0 and abs(mass - nearest) <= 1e-9 * n else mass)
    k = int(math.floor(mass))
    frac = mass - k
    desc = sorted(x)[::-1]
    if k == 0:
        return desc[0]
    anchor = desc[k] if frac > 0.0 else desc[k - 1]
    total = fsum([v - anchor for v in desc[:k]])
    if total < math.inf:
        return anchor + total / mass
    return fsum([*desc[:k], Fraction(frac) * Fraction(desc[k])], mass)


def long_losses(kind, n, seed):
    """n losses of one kind, past the 2,048 below which the estimators sort all."""
    rng = random.Random(seed)
    if kind == "spread":
        return [rng.uniform(-5.0, 5.0) for _ in range(n)]
    if kind == "ties":  # both zeros among few values
        return [rng.choice([-0.0, 0.0, 0.0, 1.0, -1.0, 0.5]) for _ in range(n)]
    if kind == "past-the-float-range":
        return [rng.choice([1e308, -1e308, 0.0, 1.0]) for _ in range(n)]
    ascending = sorted(rng.random() for _ in range(n))
    return {"ascending": ascending, "descending": ascending[::-1], "equal": [0.25] * n}[kind]


LONG_KINDS = ["spread", "ties", "past-the-float-range", "ascending", "descending", "equal"]
as_list_or_array = st.sampled_from([list, lambda v: array("d", v)])


class TestSameBitsAsTheSortedFormulas:
    @given(kind=st.sampled_from(LONG_KINDS), n=st.integers(2048, 6000),
           seed=st.integers(0, 2**32 - 1), alpha=numpy_alphas, as_input=as_list_or_array)
    @settings(max_examples=150, deadline=None)
    def test_long_losses(self, kind, n, seed, alpha, as_input):
        losses = long_losses(kind, n, seed)
        assert repr(var(as_input(losses), alpha)) == repr(sorted_var(losses, alpha))
        assert repr(cvar_tail(as_input(losses), alpha)) == repr(sorted_cvar_tail(losses, alpha))

    @given(losses=numpy_losses, alpha=numpy_alphas, as_input=as_list_or_array)
    @settings(max_examples=150, deadline=None)
    def test_short_losses(self, losses, alpha, as_input):
        assert repr(var(as_input(losses), alpha)) == repr(sorted_var(losses, alpha))
        assert repr(cvar_tail(as_input(losses), alpha)) == repr(sorted_cvar_tail(losses, alpha))

    @pytest.mark.parametrize("kind", ["ascending", "descending", "equal"])
    @pytest.mark.parametrize("alpha", [0.5, 0.95, 0.999, 1.0 - 1e-12])
    def test_ordered_and_equal_losses(self, kind, alpha):
        losses = long_losses(kind, 4096, 1)
        assert repr(var(losses, alpha)) == repr(sorted_var(losses, alpha))
        assert repr(cvar_tail(losses, alpha)) == repr(sorted_cvar_tail(losses, alpha))

    @pytest.mark.parametrize("alpha", [0.9, 0.925, 0.95, 0.951, 0.97, 0.9749])
    def test_signed_zeros_at_the_tail_boundary(self, alpha):
        # 200 zeros of both signs, scattered, between -1.0 and the top 2.0s:
        # from alpha 0.925 to 0.975 the tail's boundary falls among them
        rng = random.Random(3)
        losses = [-1.0] * 3700 + [2.0] * 100
        for _ in range(200):
            losses.insert(rng.randrange(len(losses) + 1), rng.choice([-0.0, 0.0]))
        assert repr(var(losses, alpha)) == repr(sorted_var(losses, alpha))
        assert repr(cvar_tail(losses, alpha)) == repr(sorted_cvar_tail(losses, alpha))

    def test_a_stride_aligned_with_the_data_falls_back_to_the_full_sort(self, monkeypatch):
        # every 20th loss is the largest, so the stride of 20 sees only those:
        # its bound passes 1,024 values where the tail needs 1,025
        losses = [1e6 if i % 20 == 0 else (i * 7919 % 1000) / 37.0 for i in range(20480)]
        sorted_lengths = []

        def spy(values, **kwargs):
            values = list(values)
            sorted_lengths.append(len(values))
            return sorted(values, **kwargs)

        monkeypatch.setattr(tailrisk, "sorted", spy, raising=False)
        assert repr(var(losses, 0.95)) == repr(sorted_var(losses, 0.95))
        assert sorted_lengths == [1024, 1024, 20480]


class TestPinnedValues:
    def test_integers_1_to_100_at_95(self):
        """The canonical divergence case between the two CVaR readings."""
        losses = list(range(1, 101))
        assert var(losses, 0.95) == 95.0
        assert cvar_conditional(losses, 0.95) == 97.5  # mean of 95..100
        assert cvar_tail(losses, 0.95) == 98.0  # mean of the top 5 values

    def test_two_point_distribution(self):
        losses = [0.0, 10.0]
        assert var(losses, 0.5) == 0.0
        assert cvar_conditional(losses, 0.5) == 5.0
        assert cvar_tail(losses, 0.5) == 10.0

    def test_fractional_tail_mass(self):
        # n=4, alpha=0.9: tail mass 0.4 items -> top value at fractional weight
        losses = [1.0, 2.0, 3.0, 10.0]
        assert cvar_tail(losses, 0.9) == 10.0

    def test_singleton(self):
        assert var([3.0], 0.95) == 3.0
        assert cvar_conditional([3.0], 0.95) == 3.0
        assert cvar_tail([3.0], 0.95) == 3.0


class TestSumsPastTheFloatRange:
    """A mean of finite losses is finite though their float sum may not be:
    there each estimator gives the exact mean, rounded once."""

    BIG = Fraction(1e308)
    # losses, alpha, then the exact cvar_tail (the top (1 - alpha) * n of
    # the mass) and cvar_conditional (every loss >= var, here all of them)
    CASES = [
        ([1e308] * 2 + [0.0] * 58, 0.95, 2 * BIG / 3, 2 * BIG / 60),
        ([1e308] * 2 + [-1e308] * 58, 0.95, BIG / 3, -56 * BIG / 60),
        # tail mass 2.5: the two 1e308 in full and half of a 0.0
        ([1e308] * 2 + [0.0] * 8, 0.75, 2 * BIG / Fraction(5, 2), 2 * BIG / 10),
    ]

    @pytest.mark.parametrize("losses, alpha, tail, conditional", CASES,
                             ids=["zeros", "negatives", "fractional-mass"])
    def test_exactly_rounded_mean(self, losses, alpha, tail, conditional):
        assert cvar_tail(losses, alpha) == float(tail)
        assert cvar_conditional(losses, alpha) == float(conditional)

    @pytest.mark.parametrize("losses, alpha, tail, conditional", CASES,
                             ids=["zeros", "negatives", "fractional-mass"])
    def test_variational_agrees_with_the_tail_mean(self, losses, alpha, tail, conditional):
        # its own (1 - alpha) * n is not snapped as cvar_tail's mass is: at
        # 0.95 it is 3.0000000000000027, hence rel_tol and not equality
        assert math.isclose(cvar_variational(losses, alpha), float(tail), rel_tol=1e-14)


class TestInputChecks:
    def test_empty(self):
        with pytest.raises(EmptyLosses):
            var([], 0.95)

    @pytest.mark.parametrize("a", [0.0, 1.0, -0.1, 1.7])
    def test_alpha_range(self, a):
        with pytest.raises(BadAlpha):
            cvar_tail([1.0, 2.0], a)

    # a str once failed in the comparison with a TypeError
    @pytest.mark.parametrize("a", ["0.5", None, True])
    @pytest.mark.parametrize("estimator", [var, cvar_conditional, cvar_tail,
                                           cvar_variational])
    def test_alpha_that_is_not_a_number_refused(self, estimator, a):
        with pytest.raises(BadAlpha, match="alpha must lie in"):
            estimator([1.0, 2.0], a)

    def test_bad_alpha_is_a_value_error(self):
        # so the engine's settings raise one error type for both rules
        assert issubclass(BadAlpha, ValueError)

    @pytest.mark.parametrize("estimator", [var, cvar_conditional, cvar_tail, cvar_variational])
    @pytest.mark.parametrize("losses", [
        [1.0, math.nan, 0.0, 2.0],  # var gave nan, or 0.0 or 1.0 once reordered
        [math.inf, math.inf, 1.0],  # cvar_tail gave nan
        [-math.inf, 0.0, 1.0],
    ], ids=["nan", "inf", "-inf"])
    def test_non_finite_losses_refused(self, estimator, losses):
        # the loss rule of OutcomeRecord: a finite number
        with pytest.raises(ValueError, match="finite"):
            estimator(losses, 0.5)


class TestCoherence:
    @given(loss_vectors, alphas)
    @settings(max_examples=200, deadline=None)
    def test_cvar_dominates_var(self, losses, alpha):
        assert cvar_tail(losses, alpha) >= var(losses, alpha) - 1e-12

    @given(loss_vectors, alphas)
    @settings(max_examples=200, deadline=None)
    def test_tail_dominates_conditional(self, losses, alpha):
        assert cvar_tail(losses, alpha) >= cvar_conditional(losses, alpha) - 1e-12

    @given(loss_vectors)
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_alpha(self, losses):
        grid = [0.5, 0.8, 0.9, 0.95, 0.99]
        values = [cvar_tail(losses, a) for a in grid]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-12

    @given(loss_vectors, alphas, st.floats(-20, 20, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_translation_invariance(self, losses, alpha, c):
        shifted = [x + c for x in losses]
        assert cvar_tail(shifted, alpha) == pytest.approx(
            cvar_tail(losses, alpha) + c, abs=1e-9
        )

    @given(loss_vectors, alphas, st.floats(0.0, 7.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_positive_homogeneity(self, losses, alpha, lam):
        scaled = [lam * x for x in losses]
        assert cvar_tail(scaled, alpha) == pytest.approx(
            lam * cvar_tail(losses, alpha), abs=1e-9
        )

    @given(
        st.integers(2, 200),
        alphas,
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_subadditivity_on_paired_vectors(self, n, alpha, rnd):
        xs = [rnd.uniform(-10, 10) for _ in range(n)]
        ys = [rnd.uniform(-10, 10) for _ in range(n)]
        joint = [a + b for a, b in zip(xs, ys)]
        assert cvar_tail(joint, alpha) <= (
            cvar_tail(xs, alpha) + cvar_tail(ys, alpha) + 1e-9
        )


class TestEstimatorEquivalence:
    def test_variational_memory_is_linear_in_the_losses(self):
        # an n x (distinct values) matrix would take 256 MB at 4,000 losses
        losses = np.random.default_rng(3).lognormal(size=4000).tolist()
        tracemalloc.start()
        try:
            got = cvar_variational(losses, 0.95)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == pytest.approx(cvar_tail(losses, 0.95), abs=1e-9)
        assert peak < 8 * 2**20

    @given(loss_vectors, alphas)
    @settings(max_examples=300, deadline=None)
    def test_variational_equals_tail(self, losses, alpha):
        assert cvar_variational(losses, alpha) == pytest.approx(
            cvar_tail(losses, alpha), abs=1e-9
        )

    @given(st.integers(1, 50), alphas)
    @settings(max_examples=100, deadline=None)
    def test_flat_tail_makes_estimators_agree(self, n_flat, alpha):
        # body strictly below a constant tail that spans the quantile:
        # both estimators then average the same constant
        losses = [-5.0] * 3 + [4.0] * (n_flat + 60)
        assert cvar_tail(losses, alpha) == cvar_conditional(losses, alpha) == 4.0

    @given(
        st.lists(
            st.floats(-50, 50, allow_nan=False),
            min_size=2,
            max_size=300,
            unique=True,
        ),
        alphas,
    )
    @settings(max_examples=200, deadline=None)
    def test_finite_sample_gap_law_on_distinct_values(self, losses, alpha):
        """On all-distinct vectors the two estimators differ by exactly
        u(1-frac)(A-V) / ((u+frac)(u+1)), where V is VaR, u counts losses
        strictly above V, A is their mean, and frac is the fractional part
        of the tail mass (1-alpha)n."""
        t = cvar_tail(losses, alpha)
        c = cvar_conditional(losses, alpha)
        v = var(losses, alpha)
        n = len(losses)
        mass = (1.0 - alpha) * n
        nearest = round(mass)
        if nearest > 0 and abs(mass - nearest) <= 1e-9 * n:
            mass = float(nearest)
        frac = mass - math.floor(mass)
        above = [x for x in losses if x > v]
        u = len(above)
        a = math.fsum(above) / u if u else 0.0
        expected = u * (1.0 - frac) * (a - v) / ((u + frac) * (u + 1))
        assert t - c == pytest.approx(expected, abs=1e-9)

    def test_rockafellar_uryasev_form(self):
        """tail CVaR equals VaR + mean excess over VaR / (1 - alpha)."""
        rng = np.random.default_rng(11)
        for _ in range(50):
            losses = rng.lognormal(0.0, 1.0, size=rng.integers(5, 400)).tolist()
            alpha = float(rng.choice([0.8, 0.9, 0.95]))
            v = var(losses, alpha)
            ru = v + math.fsum(max(x - v, 0.0) for x in losses) / (
                len(losses) * (1 - alpha)
            )
            assert cvar_tail(losses, alpha) == pytest.approx(ru, abs=1e-9)
