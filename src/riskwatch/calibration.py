"""Calibration-quality metrics over one period of resolved predictions.

The headline quantity is the binned expected calibration error: group
predictions into probability bins, compare each bin's mean predicted
probability with its realized event rate, and average the absolute gaps
weighted by bin occupancy. Discrimination (auc) and overall probability
accuracy (brier) ride along so a period can be judged on all three axes
at once: a model can stay discriminative while its probabilities drift.

Bin sums are reduced with math.fsum (correctly rounded), so any faithful
recomputation from the raw pairs reproduces these numbers bit-for-bit.

numpy is imported inside the functions that compute on arrays, so
importing this module does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    import numpy as np

    p = np.asarray(probs, dtype=float)
    y = np.asarray(outcomes, dtype=float)
    if p.size == 0:
        raise EmptyWindow("calibration window is empty")
    if p.size != y.size:
        raise ValueError(f"length mismatch: {p.size} probs vs {y.size} outcomes")
    if not np.all((p >= 0.0) & (p <= 1.0)):  # also false for NaN
        raise ValueError("probabilities must lie in [0, 1]")
    return p, y


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
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    import numpy as np

    p, y = _as_prob_outcome(probs, outcomes)
    # equal-width bins over [0, 1]; p == 1.0 belongs to the last bin
    idx = np.minimum((p * n_bins).astype(int), n_bins - 1)
    edges = np.linspace(0.0, 1.0, n_bins + 1).tolist()

    bins: list[ReliabilityBin] = []
    for b in range(n_bins):
        mask = idx == b
        count = int(mask.sum())
        if count == 0:
            bins.append(ReliabilityBin(edges[b], edges[b + 1], 0, None, None))
            continue
        mean_pred = math.fsum(p[mask].tolist()) / count
        event_rate = math.fsum(y[mask].tolist()) / count
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
    p, y = _as_prob_outcome(probs, outcomes)
    n = p.size
    # fsum keeps the reduction correctly rounded, hence independent of bin
    # iteration order; the bins get the arrays, so nothing is converted twice
    return math.fsum(
        (b.count / n) * abs(b.mean_pred - b.event_rate)
        for b in reliability_bins(p, y, n_bins=n_bins)
        if b.count > 0
    )


def brier(probs: Sequence[float], outcomes: Sequence[int]) -> float:
    """Mean squared error of the predicted probabilities."""
    p, y = _as_prob_outcome(probs, outcomes)
    sq = (p - y) ** 2
    return math.fsum(sq.tolist()) / p.size


def auc(probs: Sequence[float], outcomes: Sequence[int]) -> float | None:
    """Probability a random positive outranks a random negative.

    Computed from midranks in O(n log n); tied pairs are credited 0.5,
    which reproduces the brute-force pairwise count exactly. Returns None
    (undefined, not 0.5) when the period holds a single outcome class.
    """
    p, y = _as_prob_outcome(probs, outcomes)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    import numpy as np

    # a run of tied values at sorted positions i..j (0-based) shares the
    # 1-based midrank (i + j + 2) / 2; runs split where != holds
    order = np.argsort(p, kind="stable")
    sorted_p = p[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_p[1:] != sorted_p[:-1])))
    ends = np.append(starts[1:], p.size)
    ranks = np.empty(p.size, dtype=float)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)

    rank_sum = math.fsum(ranks[y == 1.0].tolist())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

