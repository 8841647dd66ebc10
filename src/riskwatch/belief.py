"""Conjugate belief tracking for the deployed population's event prevalence.

A Beta(a, b) posterior over the Bernoulli event rate updates in closed form
as outcomes arrive: positives increment a, negatives increment b. Two
posteriors, a frozen baseline from early deployment and a rolling one over
the current window, are compared with an exact drift score: the probability
that the rolling prevalence exceeds the baseline prevalence (the finite sum
of E. Miller, "Formulas for Bayesian A/B Testing", 2015), folded so that
drift in either direction scores near 1 and agreement scores near 0.5.

drift_score runs on the standard library's libm calls, so its value does
not depend on which SIMD loops numpy picks on the host; it never loads
numpy. scipy is imported only inside credible_interval, when called; without
it installed, credible_interval raises MissingExtra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import add

from .core import OPEN_UNIT, POSITIVE, check_fields, check_integer, finite_number, is_outcome
from .errors import BadLevel, MissingExtra


@dataclass(frozen=True)
class BetaPosterior:
    """Beta(a, b) belief over an event rate, with a and b finite numbers > 0
    (else ValueError). Uniform prior is Beta(1, 1)."""

    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        check_fields(self, {"a": POSITIVE, "b": POSITIVE})

    @property
    def mean(self) -> float:
        return self.a / (self.a + self.b)

    @property
    def variance(self) -> float:
        s = self.a + self.b
        return (self.a * self.b) / (s * s * (s + 1.0))


def update(posterior: BetaPosterior, outcome: int) -> BetaPosterior:
    """Condition the belief on one outcome, 0 or 1 by is_outcome (closed form)."""
    if not is_outcome(outcome):
        raise ValueError(f"outcome must be the integer 0 or 1, got {outcome!r}")
    return update_batch(posterior, outcome, 1 - outcome)


def update_batch(posterior: BetaPosterior, positives: int, negatives: int) -> BetaPosterior:
    """Condition on a batch of outcomes at once; each count an integer >= 0."""
    check_integer("positives", positives, 0)
    check_integer("negatives", negatives, 0)
    return BetaPosterior(posterior.a + positives, posterior.b + negatives)


def credible_interval(
    posterior: BetaPosterior,
    level: float = 0.95,
) -> tuple[float, float]:
    """Equal-tailed credible interval at the given level.

    Quantiles of the Beta posterior at (1-level)/2 and 1-(1-level)/2,
    accurate to well below 1e-8.
    """
    if not finite_number(level, *OPEN_UNIT):
        raise BadLevel(f"level must lie in (0, 1), got {level}")
    # imported when called: no monitor path needs quantiles, and scipy is
    # an extra (riskwatch[interval]), not a requirement
    try:
        from scipy.special import betaincinv
    except ModuleNotFoundError as exc:
        raise MissingExtra("interval", "scipy") from exc

    tail = (1.0 - level) / 2.0
    lo = float(betaincinv(posterior.a, posterior.b, tail))
    hi = float(betaincinv(posterior.a, posterior.b, 1.0 - tail))
    return lo, hi


def drift_score(baseline: BetaPosterior, rolling: BetaPosterior) -> float:
    """Folded probability that the two beliefs disagree, computed exactly.

    s = P(p_rolling > p_baseline) is a finite sum over the rolling
    posterior's smaller parameter, which must be a whole number (as every
    posterior built from counts is); returns max(s, 1 - s): identical
    beliefs score 0.5, separated beliefs score near 1.0 regardless of
    drift direction.
    """
    a0, b0, a1, b1 = baseline.a, baseline.b, rolling.a, rolling.b
    if a1 > b1:
        # mirror both rates (p -> 1 - p): s becomes 1 - s, the fold is unchanged
        a0, b0, a1, b1 = b0, a0, b1, a1
    if a1 != int(a1):
        raise ValueError(f"drift_score needs a whole-number rolling parameter, got {a1}")
    # s = sum over i < a1 of B(a0 + i, b0 + b1) / ((b1 + i) B(1 + i, b1) B(a0, b0)):
    # term_0 = B(a0, b0 + b1) / B(a0, b0), then the term ratios below; kept
    # in logs, since at thousands of events term_0 underflows
    log_first = (math.lgamma(b0 + b1) + math.lgamma(a0 + b0)
                 - math.lgamma(a0 + b0 + b1) - math.lgamma(b0))
    log, log1p, c = math.log, math.log1p, a0 + b0 + b1
    log_ratios = [log(a0 + i) + log(b1 + i) - log(c + i) - log1p(i)
                  for i in map(float, range(int(a1) - 1))]
    terms = [math.exp(log_first + t) for t in accumulate(log_ratios, initial=0.0)]
    # a pairwise sum, not math.fsum: the logs carry ~1e-11 error anyway, and
    # fsum slows to milliseconds when the terms span hundreds of decades
    s = min(_pairwise_sum(terms), 1.0)
    return max(s, 1.0 - s)


def _pairwise_sum(x: list[float]) -> float:
    """Sum of x in the order numpy's np.sum adds float64 values: eight
    running sums over blocks of at most 128, halves split at a multiple of
    8. So drift_score keeps the values it had on numpy."""
    n = len(x)
    if n < 8:
        return reduce(add, x, 0.0)
    if n <= 128:
        end = n - n % 8
        r = [reduce(add, x[j + 8:end:8], x[j]) for j in range(8)]
        head = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, x[end:], head)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(x[:half]) + _pairwise_sum(x[half:])
