"""Tail-risk measures over a period's realized losses.

The tail's quantile and three estimators of its mean:

* var: the empirical lower quantile of the loss distribution, the order
  statistic L_(ceil(alpha*n)).
* cvar_conditional: mean of the losses at or above var. The inclusive
  conditional mean reads naturally but over-weights a boundary atom whose
  probability mass exceeds the 1-alpha tail.
* cvar_tail: mean of the top (1-alpha) probability mass, giving the
  boundary atom only the fractional weight the tail actually needs. This
  is the coherent estimator (monotone, translation-equivariant, positively
  homogeneous, subadditive) and the one alarms and reports consume.
* cvar_variational: an independent route to cvar_tail, minimizing
  c + mean((L-c)+)/(1-alpha) over candidate c at the distinct loss values.
  Agrees with cvar_tail to float precision; kept separate as a
  cross-check, not an alias.

On {1..100} at alpha 0.95 the estimators split: var 95, conditional 97.5,
tail and variational 98.0; the inclusive mean dilutes the tail with the
boundary atom's full weight.

A Greenwald-Khanna sketch rounds out the module for streams too large to
hold: epsilon-approximate quantiles in sublinear memory. Exact computation
is preferred whenever the losses fit in memory.

Every estimator runs on the standard library over a typed array
(array.array); none loads numpy. Losses must be finite, as an
OutcomeRecord's loss is (a NaN has no sorted place, an inf no tail mean),
and their tail mean is finite too: each sum goes through core.fsum, and
cvar_variational turns exact where an excess could pass the float range.
"""

from __future__ import annotations

import bisect
import math
from array import array
from itertools import accumulate, compress
from typing import Sequence

from .core import OPEN_UNIT, POSITIVE, finite_number, fsum
from .errors import BadAlpha, EmptyLosses, EmptySketch


def check_alpha(alpha) -> float:
    """The alpha rule: a number in (0, 1) by finite_number, returned as it is; else BadAlpha."""
    if not finite_number(alpha, *OPEN_UNIT):
        raise BadAlpha(f"alpha must lie in (0, 1), got {alpha!r}")
    return alpha


def _check(losses: Sequence[float], alpha: float) -> array:
    check_alpha(alpha)
    # the engine's float64 losses are read as they are, anything else copied
    x = losses if isinstance(losses, array) and losses.typecode == "d" else array("d", losses)
    if not x:
        raise EmptyLosses("loss vector is empty")
    if not all(map(math.isfinite, x)):
        raise ValueError("losses must be finite")
    return x


def _near_integer(value: float, n: int) -> int | None:
    """The positive integer within float noise (1e-9 * n) of value, if any:
    (1 - 0.95) * 100 is 5.000000000000004 and must count as exactly 5."""
    nearest = round(value)
    return nearest if nearest > 0 and abs(value - nearest) <= 1e-9 * n else None


def _top(x: array, m: int) -> list[float]:
    """sorted(x)[-m:] for 1 <= m <= len(x), boxing about 2m values: if m
    values pass a bound at twice the tail's share of a sorted stride of
    about 1,000 (Floyd and Rivest, CACM 18(3), 1975), their stable sort ends
    the same, -0.0 and 0.0 in order. Else, or below 2,048 values, sort all."""
    n = len(x)
    if n >= 2048:
        sample = sorted(x[::n // 1024])
        bound = sample[max(0, len(sample) - 2 * m * len(sample) // n - 8)]
        tail = sorted(compress(x, map(bound.__le__, x)))
        if len(tail) >= m:
            return tail[-m:]
    return sorted(x)[-m:]


def var(losses: Sequence[float], alpha: float = 0.95) -> float:
    """Empirical value-at-risk: the order statistic L_(ceil(alpha * n))."""
    x = _check(losses, alpha)
    target = alpha * len(x)
    r = _near_integer(target, len(x)) or math.ceil(target)
    return _top(x, len(x) - r + 1)[0]


def cvar_conditional(losses: Sequence[float], alpha: float = 0.95) -> float:
    """Inclusive conditional tail mean: average of losses >= var."""
    x = _check(losses, alpha)
    v = var(x, alpha)
    tail = [value for value in x if value >= v]
    return fsum(tail, len(tail))


def cvar_tail(losses: Sequence[float], alpha: float = 0.95) -> float:
    """Coherent tail expectation: mean of the top (1 - alpha) mass.

    Takes the floor((1-alpha)*n) largest losses in full and the next one
    with the fractional weight remaining, so exactly (1-alpha)*n
    observations-worth of mass is averaged.
    """
    x = _check(losses, alpha)
    n = len(x)
    mass = (1.0 - alpha) * n
    mass = float(_near_integer(mass, n) or mass)
    k = int(math.floor(mass))
    frac = mass - k
    # the ascending stable sort reversed, not sorted(reverse=True): equal
    # values (-0.0 and 0.0) then come in the order the anchor below expects.
    # Only its first k + 1 values are read
    desc = _top(x, min(k + 1, n))[::-1]
    if k == 0:
        # the whole tail mass sits inside the largest observation, whose
        # mean is that observation exactly; skip the frac * x / frac round trip
        return desc[0]
    # anchor at the smallest value carrying tail weight and average the
    # nonnegative excesses above it: rounding then cannot pull the result
    # below the anchor, so cvar_tail >= var holds in floats, not just in
    # exact arithmetic (the fractional term is excess 0 by construction)
    anchor = desc[k] if frac > 0.0 else desc[k - 1]
    total = fsum([v - anchor for v in desc[:k]])
    if total < math.inf:
        return anchor + total / mass
    # an excess or their sum leaves the float range; the tail mean cannot
    from fractions import Fraction  # here, not at import: it loads decimal
    return fsum([*desc[:k], Fraction(frac) * Fraction(desc[k])], mass)


def cvar_variational(losses: Sequence[float], alpha: float = 0.95) -> float:
    """Variational tail expectation: min over c of c + mean((L-c)+)/(1-alpha).

    The objective is piecewise linear and convex in c with breakpoints at
    the data, so evaluating it at every sorted loss finds the exact
    minimum (R. T. Rockafellar and S. Uryasev, "Optimization of conditional
    value-at-risk", J. Risk 2(3), 2000). Numerically equal to cvar_tail;
    implemented independently. Linear in memory.
    """
    x, tail = sorted(_check(losses, alpha)), 1.0 - alpha
    n = len(x)
    if not math.isfinite(n * (x[-1] - x[0])):  # an excess may pass the float range
        from fractions import Fraction  # here, not at import: it loads decimal
        x, tail = list(map(Fraction, x)), Fraction(tail)  # the same recurrence, exact
    # sum over i of (x_i - x_j)+, from the top down: a running sum of the
    # nonnegative gaps each weighted by the count above them, so no large
    # suffix total is differenced against n * x_j; equal losses add 0
    excess = accumulate(((n - 1 - j) * (x[j + 1] - x[j]) for j in range(n - 2, -1, -1)),
                        initial=0)
    return float(min(c + e / n / tail for c, e in zip(reversed(x), excess)))


class QuantileSketch:
    """Greenwald-Khanna epsilon-approximate streaming quantile summary.

    Maintains tuples (value, g, delta) where g is the gap in minimum rank
    to the previous tuple and delta bounds the rank uncertainty. The
    invariant g + delta <= floor(2 * epsilon * n) guarantees any quantile
    query is answered by a value whose true rank is within epsilon * n of
    the requested rank, while the summary stays sublinear in n.
    """

    def __init__(self, epsilon: float = 0.01):
        if not finite_number(epsilon, *OPEN_UNIT):
            raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
        self.epsilon = epsilon
        self.n = 0
        self._values: list[float] = []      # sorted tuple values
        self._g: list[int] = []
        self._delta: list[int] = []
        self._since_compress = 0
        self._compress_every = max(1, math.floor(min(1.0 / (2.0 * epsilon), POSITIVE[1])))

    def __len__(self) -> int:
        return self.n

    @property
    def summary_size(self) -> int:
        """Number of stored tuples (the memory footprint of the sketch)."""
        return len(self._values)

    def insert(self, value: float) -> None:
        if not finite_number(value):
            raise ValueError(f"sketch values must be finite numbers, got {value!r}")
        i = bisect.bisect_left(self._values, value)
        if i == 0 or i == len(self._values):
            delta = 0  # new extreme: rank known exactly at insertion
        else:
            delta = max(0, int(math.floor(2.0 * self.epsilon * self.n)) - 1)
        self._values.insert(i, value)
        self._g.insert(i, 1)
        self._delta.insert(i, delta)
        self.n += 1
        self._since_compress += 1
        if self._since_compress >= self._compress_every:
            self._compress()
            self._since_compress = 0

    def _compress(self) -> None:
        cap = int(math.floor(2.0 * self.epsilon * self.n))
        i = len(self._values) - 2
        # never merge into or remove the extremes at positions 0 and -1
        while i >= 1:
            if self._g[i] + self._g[i + 1] + self._delta[i + 1] <= cap:
                self._g[i + 1] += self._g[i]
                del self._values[i], self._g[i], self._delta[i]
            i -= 1

    def quantile(self, q: float) -> float:
        """Value whose rank is within epsilon * n of ceil(q * n)."""
        if not finite_number(q, 0.0, 1.0):
            raise ValueError(f"q must lie in [0, 1], got {q!r}")
        if self.n == 0:
            raise EmptySketch("quantile queried on an empty sketch")
        rank = max(1, math.ceil(q * self.n))
        margin = self.epsilon * self.n
        r_min = 0
        for i in range(len(self._values)):
            r_min += self._g[i]
            r_max = r_min + self._delta[i]
            if r_min >= rank - margin and r_max <= rank + margin:
                return self._values[i]
        return self._values[-1]
