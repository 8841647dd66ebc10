"""Conjugate belief tracking for the deployed population's event prevalence.

A Beta(a, b) posterior over the Bernoulli event rate updates in closed form
as outcomes arrive: positives increment a, negatives increment b. Two
posteriors, a frozen baseline from early deployment and a rolling one over
the current window, are compared with a Monte-Carlo drift score: the
probability that the rolling prevalence exceeds the baseline prevalence,
folded so that drift in either direction scores near 1 and agreement scores
near 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadLevel


@dataclass(frozen=True)
class BetaPosterior:
    """Beta(a, b) belief over an event rate. Uniform prior is Beta(1, 1)."""

    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError(f"Beta parameters must be positive, got ({self.a}, {self.b})")

    @property
    def mean(self) -> float:
        return self.a / (self.a + self.b)

    @property
    def variance(self) -> float:
        s = self.a + self.b
        return (self.a * self.b) / (s * s * (s + 1.0))


def update(posterior: BetaPosterior, outcome: int) -> BetaPosterior:
    """Condition the belief on one Bernoulli outcome (closed form)."""
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    if outcome:
        return BetaPosterior(posterior.a + 1.0, posterior.b)
    return BetaPosterior(posterior.a, posterior.b + 1.0)


def update_batch(posterior: BetaPosterior, positives: int, negatives: int) -> BetaPosterior:
    """Condition on a batch of outcomes at once."""
    if positives < 0 or negatives < 0:
        raise ValueError("counts must be nonnegative")
    return BetaPosterior(posterior.a + positives, posterior.b + negatives)


def credible_interval(
    posterior: BetaPosterior,
    level: float = 0.95,
) -> tuple[float, float]:
    """Equal-tailed credible interval at the given level.

    Quantiles of the Beta posterior at (1-level)/2 and 1-(1-level)/2,
    accurate to well below 1e-8.
    """
    if not 0.0 < level < 1.0:
        raise BadLevel(f"level must lie in (0, 1), got {level}")
    # imported when called: no monitor path needs quantiles, and a
    # module-level scipy import is paid again by every CLI start
    from scipy.special import betaincinv

    tail = (1.0 - level) / 2.0
    lo = float(betaincinv(posterior.a, posterior.b, tail))
    hi = float(betaincinv(posterior.a, posterior.b, 1.0 - tail))
    return lo, hi


def drift_score(
    baseline: BetaPosterior,
    rolling: BetaPosterior,
    samples: int = 100_000,
    seed: int | Sequence[int] = 0,
) -> float:
    """Folded Monte-Carlo probability that the two beliefs disagree.

    Estimates s = P(p_rolling > p_baseline) from paired posterior draws and
    returns max(s, 1 - s): identical beliefs score near 0.5, separated
    beliefs score near 1.0 regardless of drift direction. Deterministic
    given the seed.
    """
    if samples < 1000:
        raise ValueError(f"samples must be >= 1000 for a stable estimate, got {samples}")
    rng = np.random.default_rng(seed)
    draws_base = rng.beta(baseline.a, baseline.b, size=samples)
    draws_roll = rng.beta(rolling.a, rolling.b, size=samples)
    s = float(np.mean(draws_roll > draws_base))
    return max(s, 1.0 - s)
