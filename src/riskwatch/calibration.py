"""Calibration-quality metrics over one period of resolved predictions.

The headline quantity is the binned expected calibration error: group
predictions into probability bins, compare each bin's mean predicted
probability with its realized event rate, and average the absolute gaps
weighted by bin occupancy. Discrimination (auc) and overall probability
accuracy (brier) ride along so a period can be judged on all three axes
at once: a model can stay discriminative while its probabilities drift.

Bin sums are reduced with math.fsum (correctly rounded), so any faithful
recomputation from the raw pairs reproduces these numbers bit-for-bit.

Every metric runs on the standard library over typed arrays (array.array)
and never loads numpy; lists, array.array and numpy arrays are all taken
as input.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress, repeat
from operator import mul, sub
from typing import Sequence

from .errors import EmptyWindow


@dataclass(frozen=True)
class ReliabilityBin:
    """One probability bin of a reliability diagram.

    lo/hi delimit the bin's probability interval; count is the number of
    predictions inside it. mean_pred and event_rate are None for empty bins.
    """

    lo: float
    hi: float
    count: int
    mean_pred: float | None
    event_rate: float | None


def _as_prob_outcome(probs: Sequence[float], outcomes: Sequence[int]):
    # a typed array is read as it is (the engine's accumulators are); any
    # other sequence is copied into a float64 one
    p = probs if isinstance(probs, array) else array("d", probs)
    y = outcomes if isinstance(outcomes, array) else array("d", outcomes)
    if not p:
        raise EmptyWindow("calibration window is empty")
    if len(p) != len(y):
        raise ValueError(f"length mismatch: {len(p)} probs vs {len(y)} outcomes")
    total = sum(p)  # NaN when any value is, which min and max can miss
    if not (total == total and min(p) >= 0.0 and max(p) <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    if y.count(0) + y.count(1) != len(y):  # NaN equals neither
        raise ValueError("outcomes must be 0 or 1")
    return p, y


def check_n_bins(n_bins) -> int:
    """The n_bins rule: an integer >= 1, returned as it is; else ValueError."""
    if type(n_bins) is not int or n_bins < 1:
        raise ValueError(f"n_bins must be an integer >= 1, got {n_bins!r}")
    return n_bins


def reliability_bins(
    probs: Sequence[float],
    outcomes: Sequence[int],
    n_bins: int = 10,
) -> list[ReliabilityBin]:
    """Build the reliability diagram for one period.

    Returns exactly n_bins equal-width bins in probability order. Empty
    bins are kept (count 0, mean_pred and event_rate None) so downstream
    plots keep a fixed geometry.
    """
    check_n_bins(n_bins)
    p, y = _as_prob_outcome(probs, outcomes)
    # equal-width bins over [0, 1]: bin int(p * n_bins), with a p whose
    # product rounds to n_bins (1.0, and some just below) in the last one.
    # The bin is monotone in p, so each bin is a slice of the sorted
    # values, and fsum makes the order within a bin irrelevant
    times_n = float(n_bins).__mul__
    ordered, positives = sorted(p), sorted(compress(p, y))

    def cuts(values):  # the start of each bin in sorted values, then the end
        return [0, *(bisect_left(values, b, key=times_n) for b in range(1, n_bins)),
                len(values)]

    at, pos_at = cuts(ordered), cuts(positives)
    # numpy's linspace(0, 1, n_bins + 1): multiples of one step, last edge 1
    step = 1.0 / n_bins
    edges = [b * step for b in range(n_bins)] + [1.0]

    bins: list[ReliabilityBin] = []
    for b in range(n_bins):
        count = at[b + 1] - at[b]
        if count == 0:
            bins.append(ReliabilityBin(edges[b], edges[b + 1], 0, None, None))
            continue
        mean_pred = math.fsum(ordered[at[b]:at[b + 1]]) / count
        event_rate = (pos_at[b + 1] - pos_at[b]) / count
        bins.append(ReliabilityBin(edges[b], edges[b + 1], count, mean_pred, event_rate))
    return bins


def ece(
    probs: Sequence[float],
    outcomes: Sequence[int],
    n_bins: int = 10,
) -> float:
    """Binned expected calibration error of one period.

    Sum over occupied bins of (count/n) * |mean predicted - event rate|.
    Perfectly calibrated predictions score near zero (exactly zero only up
    to sampling noise inside each bin).
    """
    bins = reliability_bins(probs, outcomes, n_bins=n_bins)
    n = sum(b.count for b in bins)
    # fsum keeps the reduction correctly rounded, hence independent of bin
    # iteration order
    return math.fsum(
        (b.count / n) * abs(b.mean_pred - b.event_rate) for b in bins if b.count > 0
    )


def brier(probs: Sequence[float], outcomes: Sequence[int]) -> float:
    """Mean squared error of the predicted probabilities."""
    p, y = _as_prob_outcome(probs, outcomes)
    # d * d, not d ** 2: ** is libm pow, which need not be correctly rounded
    d = list(map(sub, p, y))
    return math.fsum(map(mul, d, d)) / len(p)


def auc(probs: Sequence[float], outcomes: Sequence[int]) -> float | None:
    """Probability a random positive outranks a random negative.

    Computed from midranks in O(n log n); tied pairs are credited 0.5,
    which reproduces the brute-force pairwise count exactly. Returns None
    (undefined, not 0.5) when the period holds a single outcome class.
    """
    p, y = _as_prob_outcome(probs, outcomes)
    positives = list(compress(p, y))
    n_pos = len(positives)
    n_neg = len(p) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    # a run of tied values at sorted positions i..j (0-based) shares the
    # 1-based midrank (i + j + 2) / 2, and for a member v of the run
    # bisect_left gives i and bisect_right j + 1; so twice the positives'
    # rank sum is a whole number, summed exactly
    ordered = sorted(p)
    twice_rank_sum = (sum(map(bisect_left, repeat(ordered, n_pos), positives))
                      + sum(map(bisect_right, repeat(ordered, n_pos), positives))
                      + n_pos)
    rank_sum = twice_rank_sum / 2
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
