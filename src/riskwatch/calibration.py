"""Calibration-quality metrics over windows of resolved predictions.

The headline quantity is the binned expected calibration error: group
predictions into probability bins, compare each bin's mean predicted
probability with its realized event rate, and average the absolute gaps
weighted by bin occupancy. Discrimination (auc) and overall probability
accuracy (brier) ride along so a window can be judged on all three axes
at once: a model can stay discriminative while its probabilities drift.

Bin sums are reduced with math.fsum (correctly rounded), so any faithful
recomputation from the raw pairs reproduces these numbers bit-for-bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import TimeIndex, Window, ResolvedPair, split_arrays, window_partition
from .errors import EmptyWindow

logger = logging.getLogger(__name__)


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


@dataclass(frozen=True)
class CalibrationPoint:
    """Calibration metrics of one window, stamped with its closing time."""

    time: TimeIndex
    n: int
    ece: float
    brier: float
    auc: float | None


def _as_prob_outcome(probs: Sequence[float], outcomes: Sequence[int]):
    p = np.asarray(probs, dtype=float)
    y = np.asarray(outcomes, dtype=float)
    if p.size == 0:
        raise EmptyWindow("calibration window is empty")
    if p.size != y.size:
        raise ValueError(f"length mismatch: {p.size} probs vs {y.size} outcomes")
    if not np.all((p >= 0.0) & (p <= 1.0)):  # also false for NaN
        raise ValueError("probabilities must lie in [0, 1]")
    return p, y


def _bin_index(p: np.ndarray, n_bins: int, equal_mass: bool) -> np.ndarray:
    if not equal_mass:
        # equal-width bins over [0, 1]; p == 1.0 belongs to the last bin
        return np.minimum((p * n_bins).astype(int), n_bins - 1)
    # equal-mass bins: rank order split into n_bins contiguous chunks whose
    # sizes differ by at most one
    order = np.argsort(p, kind="stable")
    idx = np.empty(p.size, dtype=int)
    chunks = np.array_split(np.arange(p.size), n_bins)
    for b, chunk in enumerate(chunks):
        idx[order[chunk]] = b
    return idx


def reliability_bins(
    probs: Sequence[float],
    outcomes: Sequence[int],
    n_bins: int = 10,
    equal_mass: bool = False,
) -> list[ReliabilityBin]:
    """Build the reliability diagram for one window.

    Returns exactly n_bins bins in probability order. Empty bins are kept
    (count 0, mean_pred and event_rate None) so downstream plots keep a
    fixed geometry.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    p, y = _as_prob_outcome(probs, outcomes)
    idx = _bin_index(p, n_bins, equal_mass)

    edges = np.linspace(0.0, 1.0, n_bins + 1)
    if equal_mass:
        # report the realized probability range of each occupied chunk
        edges = None

    bins: list[ReliabilityBin] = []
    for b in range(n_bins):
        mask = idx == b
        count = int(mask.sum())
        if count == 0:
            lo, hi = (
                (b / n_bins, (b + 1) / n_bins) if edges is None else (edges[b], edges[b + 1])
            )
            bins.append(ReliabilityBin(float(lo), float(hi), 0, None, None))
            continue
        members_p = p[mask]
        mean_pred = math.fsum(members_p.tolist()) / count
        event_rate = math.fsum(y[mask].tolist()) / count
        if edges is None:
            lo, hi = float(members_p.min()), float(members_p.max())
        else:
            lo, hi = float(edges[b]), float(edges[b + 1])
        bins.append(ReliabilityBin(lo, hi, count, mean_pred, event_rate))
    return bins


def ece(
    probs: Sequence[float],
    outcomes: Sequence[int],
    n_bins: int = 10,
    equal_mass: bool = False,
) -> float:
    """Binned expected calibration error of one window.

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
        for b in reliability_bins(p, y, n_bins=n_bins, equal_mass=equal_mass)
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
    (undefined, not 0.5) when the window holds a single outcome class.
    """
    p, y = _as_prob_outcome(probs, outcomes)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None

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


def calibration_point(
    window: Window,
    n_bins: int = 10,
    equal_mass: bool = False,
) -> CalibrationPoint:
    """All calibration metrics for one resolved window."""
    probs, ys, _ = split_arrays(window)
    return CalibrationPoint(
        time=window.time,
        n=len(probs),
        ece=ece(probs, ys, n_bins=n_bins, equal_mass=equal_mass),
        brier=brier(probs, ys),
        auc=auc(probs, ys),
    )


def ece_trajectory(
    pairs: Iterable[ResolvedPair],
    n_bins: int = 10,
    equal_mass: bool = False,
) -> Iterator[CalibrationPoint]:
    """Calibration metrics per period along a resolved stream.

    Empty windows cannot arise from window_partition, but a defensive skip
    with a logged warning is kept for pre-sliced window sequences.
    """
    for window in window_partition(pairs):
        if not window.pairs:
            logger.warning("ece_trajectory: skipping empty window at %s", window.time)
            continue
        yield calibration_point(window, n_bins=n_bins, equal_mass=equal_mass)
