"""Calibration metrics against hand values and brute-force oracles.

The oracles recompute each metric from its definition with math.fsum at
every reduction, the same correctly-rounded summation the implementation
uses, so agreement is asserted exactly (==), not within a tolerance. The
numpy formulas the metrics ran on before are kept too, and the metrics
must give their bits on every input.
"""

import math
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskwatch.calibration import ReliabilityBin, auc, brier, ece, reliability_bins
from riskwatch.errors import EmptyWindow

# -- independent oracles -------------------------------------------------------


def oracle_ece(probs, ys, n_bins=10):
    groups = {}
    for p, y in zip(probs, ys):
        b = min(int(p * n_bins), n_bins - 1)
        groups.setdefault(b, []).append((p, y))
    n = len(probs)
    terms = []
    for members in groups.values():
        k = len(members)
        mean_p = math.fsum(m[0] for m in members) / k
        rate = math.fsum(m[1] for m in members) / k
        terms.append((k / n) * abs(mean_p - rate))
    return math.fsum(terms)


def oracle_brier(probs, ys):
    # (p - y) ** 2 is libm pow, which is not correctly rounded; the product is
    return math.fsum((p - y) * (p - y) for p, y in zip(probs, ys)) / len(probs)


def oracle_auc(probs, ys):
    """O(n^2) pairwise count: ties worth one half."""
    pos = [p for p, y in zip(probs, ys) if y == 1]
    neg = [p for p, y in zip(probs, ys) if y == 0]
    if not pos or not neg:
        return None
    total = math.fsum(
        1.0 if pp > pn else (0.5 if pp == pn else 0.0)
        for pp in pos
        for pn in neg
    )
    return total / (len(pos) * len(neg))


def loop_auc(probs, ys):
    """The midrank loop auc used before it was vectorised, kept as a reference."""
    p = np.asarray(probs, dtype=float)
    y = np.asarray(ys, dtype=float)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(p, kind="stable")
    sorted_p = p[order]
    ranks = np.empty(p.size, dtype=float)
    i = 0
    while i < p.size:
        j = i
        while j + 1 < p.size and sorted_p[j + 1] == sorted_p[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j + 2) / 2.0  # midrank, 1-based
        i = j + 1
    rank_sum = math.fsum(ranks[y == 1.0].tolist())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# -- the numpy formulas the metrics ran on before they moved to typed arrays
# and the standard library, kept as references: the metrics must give the
# same bits on every input


def numpy_reliability_bins(probs, ys, n_bins=10):
    p, y = np.asarray(probs, dtype=float), np.asarray(ys, dtype=float)
    idx = np.minimum((p * n_bins).astype(int), n_bins - 1)
    edges = np.linspace(0.0, 1.0, n_bins + 1).tolist()
    bins = []
    for b in range(n_bins):
        mask = idx == b
        count = int(mask.sum())
        if count == 0:
            bins.append(ReliabilityBin(edges[b], edges[b + 1], 0, None, None))
            continue
        bins.append(ReliabilityBin(edges[b], edges[b + 1], count,
                                   math.fsum(p[mask].tolist()) / count,
                                   math.fsum(y[mask].tolist()) / count))
    return bins


def numpy_ece(probs, ys, n_bins=10):
    n = len(probs)
    return math.fsum((b.count / n) * abs(b.mean_pred - b.event_rate)
                     for b in numpy_reliability_bins(probs, ys, n_bins) if b.count > 0)


def numpy_brier(probs, ys):
    p, y = np.asarray(probs, dtype=float), np.asarray(ys, dtype=float)
    return math.fsum(((p - y) ** 2).tolist()) / p.size


def numpy_auc(probs, ys):
    p, y = np.asarray(probs, dtype=float), np.asarray(ys, dtype=float)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(p, kind="stable")
    sorted_p = p[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_p[1:] != sorted_p[:-1])))
    ends = np.append(starts[1:], p.size)
    ranks = np.empty(p.size, dtype=float)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    rank_sum = math.fsum(ranks[y == 1.0].tolist())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# probabilities with ties, -0.0, 0.0, 1.0 and subnormals; one row or many,
# one outcome class or both
numpy_rows = st.lists(
    st.tuples(
        st.one_of(st.floats(0.0, 1.0, allow_nan=False),
                  st.sampled_from([-0.0, 0.0, 5e-324, 0.1, 0.3, 0.5, 0.7, 1.0])),
        st.integers(0, 1),
    ),
    min_size=1,
    max_size=300,
)
# the containers a metric is handed: lists, numpy arrays, and the engine's
# typed arrays (float64 probabilities, uint8 outcomes)
as_inputs = st.sampled_from([
    lambda probs, ys: (probs, ys),
    lambda probs, ys: (np.array(probs), np.array(ys)),
    lambda probs, ys: (np.array(probs), np.array(ys, dtype=float)),
    lambda probs, ys: (array("d", probs), array("B", ys)),
])


class TestSameBitsAsTheNumpyFormulas:
    @given(numpy_rows, st.integers(1, 30), as_inputs)
    @settings(max_examples=200, deadline=None)
    def test_reliability_bins(self, rows, n_bins, as_input):
        probs, ys = [r[0] for r in rows], [r[1] for r in rows]
        got = reliability_bins(*as_input(probs, ys), n_bins=n_bins)
        assert repr(got) == repr(numpy_reliability_bins(probs, ys, n_bins))

    @given(numpy_rows, st.integers(1, 30), as_inputs)
    @settings(max_examples=200, deadline=None)
    def test_ece(self, rows, n_bins, as_input):
        probs, ys = [r[0] for r in rows], [r[1] for r in rows]
        got = ece(*as_input(probs, ys), n_bins=n_bins)
        assert repr(got) == repr(numpy_ece(probs, ys, n_bins))

    @given(numpy_rows, as_inputs)
    @example([(0.5430632356643997, 0)], lambda probs, ys: (probs, ys))  # see TestBrier
    @settings(max_examples=200, deadline=None)
    def test_brier(self, rows, as_input):
        probs, ys = [r[0] for r in rows], [r[1] for r in rows]
        assert repr(brier(*as_input(probs, ys))) == repr(numpy_brier(probs, ys))

    @given(numpy_rows, as_inputs)
    @settings(max_examples=200, deadline=None)
    def test_auc(self, rows, as_input):
        probs, ys = [r[0] for r in rows], [r[1] for r in rows]
        assert repr(auc(*as_input(probs, ys))) == repr(numpy_auc(probs, ys))


probs_and_ys = st.lists(
    st.tuples(
        # no subnormals: halving 5e-324 gives 0.0, a tie the monotone
        # transform test assumes away
        st.floats(0.0, 1.0, allow_nan=False, allow_subnormal=False),
        st.integers(0, 1),
    ),
    min_size=1,
    max_size=200,
)

# draws with heavy ties to stress midrank handling
tied_probs_and_ys = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5, 0.75, 1.0]),
        st.integers(0, 1),
    ),
    min_size=2,
    max_size=120,
)


class TestEce:
    def test_hand_value(self):
        # two occupied bins: [0.11, 0.19] in bin 1 (mean .15, rate .5),
        # 0.85 in bin 8 (mean .85, rate 0)
        probs = [0.11, 0.19, 0.85]
        ys = [0, 1, 0]
        expected = (2 / 3) * abs(0.15 - 0.5) + (1 / 3) * abs(0.85 - 0.0)
        assert ece(probs, ys) == pytest.approx(expected, abs=1e-12)

    def test_perfectly_calibrated_bins(self):
        probs = [0.25] * 4 + [0.75] * 4
        ys = [1, 0, 0, 0, 1, 1, 1, 0]
        assert ece(probs, ys) == pytest.approx(0.0, abs=1e-15)

    def test_boundary_prob_one_in_last_bin(self):
        bins = reliability_bins([1.0], [1], n_bins=10)
        assert bins[-1].count == 1
        assert ece([1.0], [1]) == 0.0

    def test_empty_window(self):
        with pytest.raises(EmptyWindow):
            ece([], [])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ece([0.5], [0, 1])

    # True once binned as one bin, and 2.0 failed in range() with a TypeError
    @pytest.mark.parametrize("n_bins", [True, 2.0, 0], ids=["true", "float", "zero"])
    @pytest.mark.parametrize("metric", [ece, reliability_bins])
    def test_n_bins_is_an_integer_of_at_least_one(self, metric, n_bins):
        with pytest.raises(ValueError, match="n_bins must be an integer >= 1"):
            metric([0.2, 0.7], [0, 1], n_bins=n_bins)

    @given(probs_and_ys)
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_exactly(self, rows):
        probs = [r[0] for r in rows]
        ys = [r[1] for r in rows]
        assert ece(probs, ys) == oracle_ece(probs, ys)

    @given(probs_and_ys, st.integers(1, 20))
    @settings(max_examples=80, deadline=None)
    def test_bounded_by_one(self, rows, n_bins):
        probs = [r[0] for r in rows]
        ys = [r[1] for r in rows]
        assert 0.0 <= ece(probs, ys, n_bins=n_bins) <= 1.0


@pytest.mark.parametrize("metric, probs, ys, match", [
    *(pytest.param(metric, [float("nan"), 0.5, 0.2], [0, 1, 0], r"\[0, 1\]",
                   id=metric.__name__) for metric in (ece, brier, auc)),
    # an outcome is 0 or 1, as OutcomeRecord and a loaded state hold it
    *(pytest.param(metric, [0.1, 0.5, 0.2], [0, y, 0], "0 or 1",
                   id=f"{metric.__name__}-outcome-{y}")
      for metric in (ece, brier, auc, reliability_bins) for y in (2, 0.5, float("nan"))),
])
def test_nan_probability_rejected(metric, probs, ys, match):
    with pytest.raises(ValueError, match=match):
        metric(probs, ys)


class TestBrier:
    def test_hand_value(self):
        assert brier([1.0, 0.0], [1, 0]) == 0.0
        assert brier([0.0, 1.0], [1, 0]) == 1.0
        assert brier([0.5], [1]) == 0.25

    @given(probs_and_ys)
    @example([(0.5430632356643997, 0)])  # x ** 2 is one ulp above the true square
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_exactly(self, rows):
        probs = [r[0] for r in rows]
        ys = [r[1] for r in rows]
        assert brier(probs, ys) == oracle_brier(probs, ys)


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_reversed_scores(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_all_tied_is_half(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_single_class_undefined(self):
        assert auc([0.2, 0.8], [1, 1]) is None
        assert auc([0.2, 0.8], [0, 0]) is None

    @given(tied_probs_and_ys)
    @settings(max_examples=150, deadline=None)
    def test_matches_pairwise_oracle_exactly(self, rows):
        probs = [r[0] for r in rows]
        ys = [r[1] for r in rows]
        assert auc(probs, ys) == oracle_auc(probs, ys)

    @given(st.integers(2, 3000), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_midrank_loop_exactly(self, n, decimals, seed):
        # rounding to 1-3 decimals leaves at most 1001 distinct values: long runs of ties
        rng = np.random.default_rng(seed)
        probs = rng.random(n).round(decimals)
        ys = (rng.random(n) < rng.random()).astype(int)
        assert auc(probs, ys) == loop_auc(probs, ys)

    @given(probs_and_ys)
    @settings(max_examples=100, deadline=None)
    def test_monotone_transform_invariance(self, rows):
        probs = [r[0] for r in rows]
        ys = [r[1] for r in rows]
        # halving is exact in binary floating point: strictly monotone and
        # injective, so the rank structure is untouched
        squeezed = [p / 2 for p in probs]
        assert auc(probs, ys) == auc(squeezed, ys)

    def test_label_flip_complements(self):
        rng = np.random.default_rng(7)
        probs = rng.random(200)
        ys = (rng.random(200) < 0.4).astype(int)
        a = auc(probs, ys)
        b = auc(probs, 1 - ys)
        assert a is not None and b is not None
        assert a + b == pytest.approx(1.0, abs=1e-12)
