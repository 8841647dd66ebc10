"""Streaming quantile sketch: rank-error guarantee and memory bound."""

import math

import numpy as np
import pytest

from riskwatch.errors import EmptySketch
from riskwatch.tailrisk import QuantileSketch


def max_rank_error(stream, epsilon, quantiles):
    """Worst-case distance between a query's target rank and the nearest
    valid rank of the returned value, over the given quantile grid."""
    sketch = QuantileSketch(epsilon=epsilon)
    for x in stream:
        sketch.insert(x)
    data = np.sort(np.asarray(stream, dtype=float))
    n = data.size
    worst = 0.0
    for q in quantiles:
        value = sketch.quantile(q)
        target = max(1, int(np.ceil(q * n)))
        lo = int(np.searchsorted(data, value, side="left")) + 1
        hi = int(np.searchsorted(data, value, side="right"))
        if hi < lo:  # value not in stream: cannot happen for GK summaries
            return np.inf
        err = 0 if lo <= target <= hi else min(abs(lo - target), abs(hi - target))
        worst = max(worst, err)
    return worst


GRID = [0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0]


class TestAccuracy:
    @pytest.mark.parametrize("order", ["sorted", "reverse", "random"])
    def test_rank_error_within_epsilon(self, order, rng):
        n, eps = 20_000, 0.01
        stream = rng.standard_normal(n)
        if order == "sorted":
            stream = np.sort(stream)
        elif order == "reverse":
            stream = np.sort(stream)[::-1]
        assert max_rank_error(stream.tolist(), eps, GRID) <= eps * n

    def test_duplicate_heavy_stream(self, rng):
        n, eps = 10_000, 0.02
        stream = rng.choice([1.0, 2.0, 2.0, 3.0, 7.0], size=n).tolist()
        assert max_rank_error(stream, eps, GRID) <= eps * n

    def test_extremes_are_exact(self, rng):
        stream = rng.uniform(-5, 5, size=5_000)
        sketch = QuantileSketch(epsilon=0.01)
        for x in stream:
            sketch.insert(x)
        assert sketch.quantile(0.0) == stream.min()
        assert sketch.quantile(1.0) == stream.max()

    # 5e-324: 1 / (2 * epsilon) passes the float range, so the compression
    # period is capped, not inf
    @pytest.mark.parametrize("epsilon", [0.1, 5e-324])
    def test_small_stream_is_exact(self, epsilon):
        sketch = QuantileSketch(epsilon=epsilon)
        for x in [5.0, 1.0, 3.0]:
            sketch.insert(x)
        assert sketch.quantile(0.5) == 3.0
        assert len(sketch) == 3


class TestMemory:
    def test_summary_sublinear(self, rng):
        n = 100_000
        sketch = QuantileSketch(epsilon=0.01)
        for x in rng.standard_normal(n):
            sketch.insert(float(x))
        assert sketch.summary_size < n / 10
        assert len(sketch) == n

    def test_summary_grows_slowly_with_n(self, rng):
        sizes = []
        for n in (2_000, 20_000):
            sketch = QuantileSketch(epsilon=0.01)
            for x in rng.standard_normal(n):
                sketch.insert(float(x))
            sizes.append(sketch.summary_size)
        # 10x the data must not cost anywhere near 10x the summary
        assert sizes[1] < 4 * sizes[0]


class TestErrors:
    def test_empty_query(self):
        with pytest.raises(EmptySketch):
            QuantileSketch().quantile(0.5)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            QuantileSketch(epsilon=0.0)
        with pytest.raises(ValueError):
            QuantileSketch(epsilon=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_refused(self, bad):
        # a NaN once sorted wrongly into the summary: the median came back 3.0
        sketch = QuantileSketch()
        for x in (0.5, 1.0, 2.0, 3.0):
            sketch.insert(x)
        with pytest.raises(ValueError, match="finite"):
            sketch.insert(bad)
        assert len(sketch) == 4
        assert sketch.quantile(0.5) == 1.0

    def test_bad_quantile(self):
        sketch = QuantileSketch()
        sketch.insert(1.0)
        with pytest.raises(ValueError):
            sketch.quantile(1.5)

    @pytest.mark.parametrize("bad", ["1.5", True, False, None, [1.0]])
    def test_value_follows_the_number_rule(self, bad):
        # the string "1.5" and True were once stored as 1.5 and 1.0
        sketch = QuantileSketch()
        sketch.insert(2.0)
        with pytest.raises(ValueError, match="sketch values must be finite numbers, got"):
            sketch.insert(bad)
        assert len(sketch) == 1

    @pytest.mark.parametrize("q", [True, False, "0.5", None, math.nan, -0.5])
    def test_q_follows_the_number_rule(self, q):
        # quantile(True) once answered as quantile(1.0)
        sketch = QuantileSketch()
        sketch.insert(1.0)
        with pytest.raises(ValueError, match=r"q must lie in \[0, 1\], got"):
            sketch.quantile(q)

    @pytest.mark.parametrize("epsilon", [True, "0.1", None, math.nan, math.inf])
    def test_epsilon_follows_the_number_rule(self, epsilon):
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\), got"):
            QuantileSketch(epsilon=epsilon)

    def test_ends_of_the_ranges_are_numbers(self):
        sketch = QuantileSketch(epsilon=0.5)
        for value in (3, 1.0, -2):  # an int is a number too
            sketch.insert(value)
        assert (sketch.quantile(0), sketch.quantile(1)) == (-2, 3)
