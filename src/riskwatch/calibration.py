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
from itertools import compress, pairwise, repeat
from operator import mul, sub
from typing import Sequence

from .core import check_integer
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


def _buckets(p: array, y: array, k: int) -> tuple[list, list]:
    """The values of p in k equal-width buckets over [0, 1], and the
    positives among them: v goes to bucket int(v * k), and a v whose
    product rounds to k (1.0, and some just below) to the last. The bucket
    is monotone in v, so each bucket holds a slice of the sorted values.
    Below 2,048 values the sorted values are cut at the bucket edges: that
    is faster than the loop, and the boxed copy is small."""
    if len(p) < 2048:
        times_k = float(k).__mul__

        def cut(s):
            at = [0, *(bisect_left(s, b, key=times_k) for b in range(1, k)), len(s)]
            return [s[i:j] for i, j in pairwise(at)]

        return cut(sorted(p)), cut(sorted(compress(p, y)))
    values = [array("d") for _ in range(k + 1)]
    positives = [array("d") for _ in range(k + 1)]
    for v, o in zip(p, y):
        b = int(v * k)
        values[b].append(v)
        if o:
            positives[b].append(v)
    values[k - 1] += values.pop()
    positives[k - 1] += positives.pop()
    return values, positives


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
    check_integer("n_bins", n_bins, 1)
    p, y = _as_prob_outcome(probs, outcomes)
    # numpy's linspace(0, 1, n_bins + 1): multiples of one step, last edge 1
    step = 1.0 / n_bins
    edges = [b * step for b in range(n_bins)] + [1.0]

    bins: list[ReliabilityBin] = []
    for b, (members, positives) in enumerate(zip(*_buckets(p, y, n_bins))):
        count = len(members)
        if count == 0:
            bins.append(ReliabilityBin(edges[b], edges[b + 1], 0, None, None))
            continue
        # fsum makes the order within a bin irrelevant
        mean_pred = math.fsum(members) / count
        bins.append(ReliabilityBin(edges[b], edges[b + 1], count, mean_pred,
                                   len(positives) / count))
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
    return math.fsum(map(mul, map(sub, p, y), map(sub, p, y))) / len(p)


def auc(probs: Sequence[float], outcomes: Sequence[int]) -> float | None:
    """Probability a random positive outranks a random negative.

    Computed from midranks in O(n log n); tied pairs are credited 0.5,
    which reproduces the brute-force pairwise count exactly. Returns None
    (undefined, not 0.5) when the period holds a single outcome class.
    """
    p, y = _as_prob_outcome(probs, outcomes)
    n_pos = y.count(1)
    n_neg = len(p) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    # a run of tied values at sorted positions i..j (0-based) shares the
    # 1-based midrank (i + j + 2) / 2, and for a member v of the run
    # bisect_left gives i and bisect_right j + 1; so twice the positives'
    # rank sum is a whole number, summed exactly. Ties share a bucket, so a
    # value's sorted position is the count in the buckets below plus its
    # position in its own; one bucket of about 64 values (at most 256
    # buckets) is sorted at a time
    twice_rank_sum, below = n_pos, 0
    for members, positives in zip(*_buckets(p, y, min(len(p) // 64 + 1, 256))):
        if positives:
            ordered, m = sorted(members), len(positives)
            twice_rank_sum += (2 * below * m
                               + sum(map(bisect_left, repeat(ordered, m), positives))
                               + sum(map(bisect_right, repeat(ordered, m), positives)))
        below += len(members)
    rank_sum = twice_rank_sum / 2
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
