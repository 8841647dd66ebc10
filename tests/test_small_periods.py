"""The alarm on small periods: with outcomes drawn i.i.d. from the
simulator's true probabilities, as a deployment sees them, how often a
calibrated model's period breaches `ece_max`, the smallest period size at
which the default policy stays normal, and how soon the canonical drift is
seen.

The simulator's draw is stratified (fixed outcome counts), so its `ece`
carries almost no sampling noise; here each outcome is replaced by a
Bernoulli draw from the period's `true_prob`, made with numpy from fixed
seeds. Losses stay as drawn: under `stationary_control` no loss depends on
the outcome, and on the canonical drift, redrawing the losses by the
simulator's loss rule gave the same alarm path at seeds 1-10 and 42.
"""

import math

import numpy as np
import pytest

from riskwatch.alarms import OperatingState, ThresholdPolicy
from riskwatch.calibration import ece
from riskwatch.monitor import MonitorEngine
from riskwatch.simulator import (ScenarioConfig, _records, generate_arrays,
                                 stationary_control)

ECE_MAX = ThresholdPolicy().ece_max

# the share of calibrated periods with ece > ece_max, by pairs per period,
# over 2,400 periods (seeds 1000-1199 x 12), as README tabulates it
FALSE_BREACH_RATE = {60: 0.892, 100: 0.721, 200: 0.278, 500: 0.005, 1000: 0.0, 2000: 0.0}


def iid_periods(config: ScenarioConfig, seed: int):
    """Each period's slice of generate_arrays(config), each outcome redrawn
    i.i.d. from true_prob."""
    rng = np.random.default_rng([seed, config.patients_per_period])
    arrays, n = generate_arrays(config), config.patients_per_period
    for start in range(0, arrays["y"].size, n):
        chunk = {k: column[start:start + n] for k, column in arrays.items()}
        chunk["y"] = (rng.random(chunk["y"].size) < chunk["true_prob"]).astype(np.int64)
        yield chunk


def wilson_interval(k: int, n: int, z: float = 3.29) -> tuple[float, float]:
    """The Wilson score interval of k successes in n trials; z = 3.29 is
    two-sided 99.9% (Wilson, JASA 1927; Brown, Cai & DasGupta, Statist.
    Sci. 2001, for its coverage near 0 and 1)."""
    p, q = k / n, z * z / n
    centre = (p + q / 2) / (1 + q)
    half = z * math.sqrt(p * (1 - p) / n + q / (4 * n)) / (1 + q)
    return centre - half, centre + half


def alarm_states(config: ScenarioConfig, seed: int, stop_at_breach: bool = False):
    """The alarm state after each period of an engine under the default
    policy fed the i.i.d. run; with stop_at_breach, up to the first one
    out of normal."""
    engine, start, states = MonitorEngine(), 0, []
    for chunk in iid_periods(config, seed):
        rows = zip(*(column.tolist() for column in chunk.values()))
        for i, row in enumerate(rows, start):
            event, outcome = _records(i, row)
            engine.observe_event(event)
            engine.observe_outcome(outcome)
        start += chunk["y"].size
        states = [record.state for record in engine.alarm.history]
        if stop_at_breach and states and states[-1] is not OperatingState.NORMAL:
            return states
    engine.finalize()
    return [record.state for record in engine.alarm.history]


@pytest.mark.parametrize("n, seeds", [(60, 40), (200, 40), (500, 40), (2000, 10)])
def test_false_breach_rate_of_ece_by_period_size(n, seeds):
    # 40 seeds x 12 periods (10 x 12 at 2,000 pairs, where ece is slowest
    # to compute and the rate is 0); the tabulated rate must lie in the
    # 99.9% interval of the count seen here
    breaches = periods = 0
    for seed in range(1, seeds + 1):
        config = stationary_control(ScenarioConfig(patients_per_period=n, seed=seed))
        for chunk in iid_periods(config, seed):
            breaches += ece(chunk["pred_prob"].tolist(), chunk["y"].tolist()) > ECE_MAX
            periods += 1
    low, high = wilson_interval(breaches, periods)
    assert low <= FALSE_BREACH_RATE[n] <= high


def test_smallest_period_size_that_stays_normal_is_1000():
    # over 120 calibrated periods: at 1,000 pairs the default policy stays
    # normal (seeds 1-5 all do); at 500 a breach, about once in 200
    # periods by the table, puts it in review. A run leaves normal with
    # chance about 0.45 (seeds 1-10: 4 do), so all of seeds 1-10 staying
    # normal would happen about once in 400 draws
    periods = 120
    assert set(alarm_states(stationary_control(ScenarioConfig(
        patients_per_period=1000, periods=periods, seed=1)), 1)) == {OperatingState.NORMAL}
    assert any(alarm_states(stationary_control(ScenarioConfig(
        patients_per_period=500, periods=periods, seed=seed)), seed,
        stop_at_breach=True)[-1] is not OperatingState.NORMAL for seed in range(1, 11))


def test_canonical_drift_is_seen_in_period_6_with_iid_outcomes():
    # at 2,000 pairs the i.i.d. noise does not move the onset: the first
    # period out of normal is 6, as under the stratified draw
    states = alarm_states(ScenarioConfig(), 42)
    assert states.index(OperatingState.REVIEW) == 5
    assert set(states[:5]) == {OperatingState.NORMAL}
