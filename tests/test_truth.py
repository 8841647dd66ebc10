"""The report against the truth: each column checked against the quantity
it estimates, which the simulator knows and a deployment never sees.

Every other check compares an estimator with another build of itself.
These compare the canonical run's auc, posterior_mean and ece with the
closed forms and per-patient truth behind the draw. Each tolerance is
written beside its source, a derivation or a measurement, and is at least
3 times the measured spread and at most a tenth of the effect it guards
(each test checks the tenth). The measurements are of the canonical
scenario at 31 seeds (42 and 1-30), 12 periods each.
"""

import math

import pytest

from riskwatch.simulator import prevalence_at, run_monitor


@pytest.fixture(scope="module")
def snapshots(canonical_output):
    return run_monitor(canonical_output)[0]


def binormal_auc(d):
    """The AUC of N(0, 1) against N(d, 1) scores: Phi(d / sqrt 2)
    (Hanley & McNeil, Radiology 1982)."""
    return 0.5 * (1.0 + math.erf(d / 2.0))


def test_auc_is_the_binormal_auc(canonical_output, snapshots):
    d = canonical_output.config.class_separation
    assert round(binormal_auc(d), 5) == 0.83011
    # measured: |auc - Phi(d / sqrt 2)| at most 0.00065 (sd 0.00017), as
    # the scores are stratified quantiles; this is 3 times that maximum
    tolerance = 0.002
    # the effect guarded: a class separation 10% smaller
    assert 10 * tolerance <= binormal_auc(d) - binormal_auc(0.9 * d)
    for snap in snapshots:
        assert abs(snap.auc - binormal_auc(d)) <= tolerance, snap.time


def test_posterior_mean_is_the_prevalence(canonical_output, snapshots):
    config = canonical_output.config
    for snap in snapshots:
        true = prevalence_at(config, snap.time.period)
        # derived: a period draws k positives, n * true rounded down or up,
        # and the Beta(1, 1) posterior mean (k + 1) / (n + 2) is then within
        # (1 + |1 - 2 * true|) / (n + 2) of true, 0.0009 at n = 2000.
        # Measured: at most 0.00063 off (sd 0.00015)
        tolerance = (1.0 + abs(1.0 - 2.0 * true)) / (snap.n + 2)
        # the effect guarded: the drift ramp's step from period to period
        assert 10 * tolerance <= prevalence_at(config, 5) - prevalence_at(config, 4)
        assert abs(snap.posterior_mean - true) <= tolerance, snap.time


def test_ece_is_the_mean_calibration_gap(canonical_output, snapshots):
    gaps = {}
    for event, true in zip(canonical_output.events, canonical_output.truth):
        gaps.setdefault(event.time.period, []).append(abs(event.predicted_prob - true))
    gap = {period: math.fsum(values) / len(values) for period, values in gaps.items()}
    # measured, ece minus the unbinned mean |pred - true|: once the drift
    # starts, mean 0.0001 and sd 0.0002 (at most 0.0010). Before, the model
    # is calibrated (each pred is its true probability, the gap exactly 0)
    # and a binned ece keeps its sampling-noise floor (Kumar, Liang & Ma,
    # "Verified Uncertainty Calibration", NeurIPS 2019): mean 0.0014, sd
    # 0.0004 (at most 0.0026)
    noise_floor = 0.0014
    tolerance = 0.0016  # 4 times the larger sd
    # the effect guarded: the gap's step of 0.017 from period 4 to 5
    assert 10 * tolerance <= gap[5] - gap[4]
    for snap in snapshots:
        period_gap = gap[snap.time.period]
        expected = period_gap + (noise_floor if period_gap == 0.0 else 0.0)
        assert abs(snap.ece - expected) <= tolerance, snap.time
