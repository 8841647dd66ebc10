"""Synthetic deployment scenarios for exercising the monitoring stack.

The generator models a frozen binary risk model deployed into a population
whose event prevalence starts drifting after a configurable period. Each
patient carries a latent severity score drawn from one of two unit-variance
Gaussians separated by class_separation, which fixes the model's
discrimination (AUC stays flat by construction). The true event probability
is the generative posterior at the current prevalence; the deployed model's
predicted probability is the posterior at the frozen pre-deployment
prevalence, pushed further off by a logit shift that grows after drift
onset. Both transforms are strictly monotone in the latent score within a
period, so within-period ranking (and therefore AUC) is untouched while
calibration decays.

Losses are truth-referenced harms: not intervening on a true positive costs
in proportion to how much the model understated that patient's risk (capped,
so harm saturates), intervening costs a flat amount plus any overstated risk
on negatives, and every event carries a small idiosyncratic background
harm. Pre-drift the model is calibrated, understatement is zero, and the
loss tail sits at the background level; as drift accumulates, missed
positives push the tail up. Counterfactual losses for the binary
monitor/act decision are recorded per event, and the realized loss always
equals the chosen action's entry.

Sampling is variance-reduced so the published monthly trajectories are
properties of the design rather than of one lucky seed: outcome counts use
fixed-margin sampling (expected count, randomized rounding, randomized
positions) and latent scores use per-class jittered-quantile stratification
(exact Normal marginals, shuffled). Every period draws from its own
stream, random.Random(f"{seed}:{period}"), so runs are reproducible and
periods are independent. Every draw is a Random.random() call, the one
method whose output Python keeps stable across versions; normals are
statistics.NormalDist's inv_cdf of a uniform, and shuffles are Fisher-Yates
over random(). A period's draw keeps only its outcomes and latent scores,
a bytearray and an array('d'); each row's probabilities, harm, losses and
action are computed as the row is pulled, so scenario_pairs holds no
output column. generate_arrays writes each row into one anonymous
mapping per column and hands those out as numpy views, so a column goes
back to the OS when its last view is dropped; only it needs numpy
(riskwatch[simulate]), and without it raises MissingExtra.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from functools import cache
from random import Random
from typing import TYPE_CHECKING, Iterator

from .alarms import AlarmRecord, ThresholdPolicy
from .core import (OPEN_UNIT, POSITIVE, MetricSnapshot, OutcomeRecord, PredictionEvent,
                   TimeIndex, check_fields)
from .errors import BadConfig, MissingExtra, UnknownPreset
from .monitor import MonitorEngine

if TYPE_CHECKING:
    import numpy as np

MONITOR, ACT = 0, 1  # action ids of the binary decision set
# a row of the draw, and a column of generate_arrays each; the ints are
# _INT_COLUMNS, the rest floats
_COLUMNS = ("period", "y", "true_prob", "pred_prob", "loss", "loss_monitor", "loss_act",
            "action")
_INT_COLUMNS = ("period", "y", "action")
# the floats next to the ends of the unit interval: a quantile the draw takes
# is moved into [_LOWEST, _HIGHEST], so no normal draw is infinite
_LOWEST, _HIGHEST = math.ulp(0.0), 1.0 - 2.0 ** -53


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one synthetic deployment.

    The defaults are the canonical scenario: a 12-period run whose
    prevalence ramps from 0.10 to 0.25 after period 4 while the model stays
    frozen, tuned so the monitored trajectories show flat AUC near 0.83,
    calibration error rising from the noise floor to ~0.13, and the 95%
    loss tail rising from ~0.085 to ~0.29 with the default alarm policy
    leaving NORMAL at period 6.
    """

    periods: int = 12
    patients_per_period: int = 2000
    base_prevalence: float = 0.10
    final_prevalence: float = 0.25
    drift_start_period: int = 4
    class_separation: float = 1.350
    miscalibration_gain: float = 0.02
    loss_w_fn: float = 1.3
    loss_w_fp: float = 1.0
    seed: int = 42
    # loss-shape knobs (canonical values; presets override)
    harm_cap: float = 0.19
    baseline_harm_scale: float = 0.034
    intervention_cost: float = 0.05
    act_threshold: float = 0.5
    tail_fraction: float = 0.0
    tail_scale: float = 0.0
    regret_escalation: float = 0.0

    def __post_init__(self):
        try:
            check_fields(self, _RANGES)
        except ValueError as exc:
            raise BadConfig(*exc.args) from None
        if self.tail_fraction > 0 and self.tail_scale <= 0:
            raise BadConfig("tail_scale must be positive when tail_fraction > 0")


# each setting's closed range, an open end as the float beside it (the ints
# are >= 1 but the seed, tail_scale any finite number), by core.check_fields
_RANGES = {
    **dict.fromkeys(("base_prevalence", "final_prevalence", "act_threshold"), OPEN_UNIT),
    "class_separation": POSITIVE, "tail_fraction": (0.0, OPEN_UNIT[1]), "seed": 0,
    **dict.fromkeys(("miscalibration_gain", "loss_w_fn", "loss_w_fp", "harm_cap",
                     "baseline_harm_scale", "intervention_cost", "regret_escalation"),
                    (0.0, POSITIVE[1])),
}


@dataclass(frozen=True)
class ScenarioOutput:
    """Generated streams plus the retained ground truth.

    events[i], outcomes[i] and truth[i] are aligned; truth holds the true
    conditional event probability the generator used for each patient,
    which real deployments never observe.
    """

    config: ScenarioConfig
    events: tuple[PredictionEvent, ...]
    outcomes: tuple[OutcomeRecord, ...]
    truth: tuple[float, ...]


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _exp(x: float) -> float:
    """libm's exp, with inf past the float range, where math.exp raises."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@cache
def _standard_normal():
    """The C function NormalDist.inv_cdf wraps, which loads neither statistics
    nor its decimal, for the standard normal; where there is none, inv_cdf."""
    try:
        from _statistics import _normal_dist_inv_cdf
    except ImportError:
        from statistics import NormalDist  # here, not at import: it loads decimal
        return NormalDist().inv_cdf
    return lambda p: _normal_dist_inv_cdf(p, 0.0, 1.0)


def _ndtri(p: float) -> float:
    """Inverse of the standard normal CDF at p in (0, 1): statistics.NormalDist's
    inv_cdf (Wichura's AS241), NaN through. It raises at 0 and 1, so every
    caller first moves p into [_LOWEST, _HIGHEST]."""
    return _standard_normal()(p)


def prevalence_at(config: ScenarioConfig, period: int) -> float:
    """True event prevalence of one period: flat, then a linear ramp."""
    m0 = config.drift_start_period
    if period < m0 or config.periods == m0:
        return config.base_prevalence
    frac = (period - m0) / (config.periods - m0)
    frac = min(max(frac, 0.0), 1.0)
    return config.base_prevalence + (config.final_prevalence - config.base_prevalence) * frac


def _period_draw(config: ScenarioConfig, m: int, draw) -> tuple[bytearray, array]:
    """Period m's outcomes and latent scores, by draw, its stream's
    Random.random: the permutation and the quantiles die with this frame."""
    n = config.patients_per_period
    d = config.class_separation

    # fixed-margin outcomes: expected count, randomized rounding, and the
    # positions of the k events by the first k steps of a Fisher-Yates shuffle
    expected = prevalence_at(config, m) * n
    k = int(expected) + (1 if draw() < expected - int(expected) else 0)
    order = array("l", range(n))
    for i in range(k):
        j = i + int(draw() * (n - i))
        order[i], order[j] = order[j], order[i]
    y = bytearray(n)
    for i in order[:k]:
        y[i] = 1

    # stratified latent scores per class: jittered equiprobable normal
    # quantiles, shuffled within class (exact N(d*y, 1) marginals)
    s = array("d", [0.0]) * n
    for cls in (0, 1):
        size = y.count(cls)
        z = array("d", (_ndtri(min(max((j + draw()) / size, _LOWEST), _HIGHEST))
                        for j in range(size)))
        for i in range(size - 1, 0, -1):
            j = int(draw() * (i + 1))
            z[i], z[j] = z[j], z[i]
        for i, v in zip((i for i in range(n) if y[i] == cls), z):
            s[i] = v + d * cls
    return y, s


def _period_rows(config: ScenarioConfig, m: int) -> Iterator[tuple]:
    """The rows of period m, in _COLUMNS order, each computed as it is
    pulled: its probabilities, its background harm (drawn from the
    period's stream after the scores, heavy-tailed on a tail_fraction
    share of rows), its losses and its action."""
    draw = Random(f"{config.seed}:{m}").random
    y, s = _period_draw(config, m, draw)
    d = config.class_separation
    base_logit = _logit(config.base_prevalence)
    lift = _logit(prevalence_at(config, m)) - base_logit
    since_onset = max(0, m - config.drift_start_period)
    shift = config.miscalibration_gain * since_onset
    escalation = 1.0 + config.regret_escalation * since_onset
    for yi, si in zip(y, s):
        # the generative posterior log-odds at the frozen prevalence
        u = base_logit + d * si - d * d / 2.0
        tp = 1.0 / (1.0 + _exp(-(u + lift)))
        pp = 1.0 / (1.0 + _exp(-(u - shift)))
        if config.tail_fraction > 0.0 and draw() < config.tail_fraction:
            eps = config.tail_scale * _exp(_ndtri(max(draw(), _LOWEST)))
        else:
            eps = abs(_ndtri(max(draw(), _LOWEST))) * config.baseline_harm_scale
        under = min(max(tp - pp, 0.0), config.harm_cap) * escalation
        over = min(max(pp - tp, 0.0), config.harm_cap)
        lm = config.loss_w_fn * yi * under + eps
        la = config.intervention_cost + config.loss_w_fp * (1 - yi) * over + eps
        act = ACT if pp >= config.act_threshold else MONITOR
        yield m, yi, tp, pp, la if act == ACT else lm, lm, la, act


def _rows(config: ScenarioConfig) -> Iterator[tuple]:
    """The rows of every period, in period order."""
    for m in range(1, config.periods + 1):
        yield from _period_rows(config, m)


def _records(i: int, row: tuple) -> tuple[PredictionEvent, OutcomeRecord]:
    """The (event, outcome) pair of row i of the scenario."""
    period, y, _, prob, loss, loss_monitor, loss_act, action = row
    event_id = f"ev-{i:06d}"
    return (PredictionEvent(event_id, TimeIndex(period, i), prob, action, "frozen-v1"),
            OutcomeRecord(event_id, y, loss, (loss_monitor, loss_act)))


def generate_arrays(config: ScenarioConfig) -> dict[str, np.ndarray]:
    """The whole scenario draw as numpy arrays, int64 period, y and action
    and float64 for the rest. Each row is written into one anonymous mapping
    per column, sized to the draw up front, and each mapping is handed out
    as a writable numpy view, not a copy; it is unmapped when its last view
    is dropped. Deterministic given the config's seed; needs numpy
    (riskwatch[simulate])."""
    try:
        import numpy as np
    except ModuleNotFoundError as exc:
        raise MissingExtra("simulate", "numpy") from exc

    import mmap

    n = config.periods * config.patients_per_period
    # each column is its own anonymous mapping, unmapped when its last view
    # dies; a freed malloc'd column below malloc's mmap threshold (which
    # numpy's import raises) would stay in the heap
    columns = [memoryview(mmap.mmap(-1, 8 * n)).cast("q" if k in _INT_COLUMNS else "d")
               for k in _COLUMNS]
    # one unpacking per row, about twice as fast as a loop over the columns
    period, y, true_prob, pred_prob, loss, loss_monitor, loss_act, action = columns
    for i, row in enumerate(_rows(config)):
        (period[i], y[i], true_prob[i], pred_prob[i], loss[i], loss_monitor[i], loss_act[i],
         action[i]) = row
    return {k: np.frombuffer(column, dtype=column.format)
            for k, column in zip(_COLUMNS, columns)}


def scenario_pairs(config: ScenarioConfig) -> Iterator[tuple[PredictionEvent, OutcomeRecord]]:
    """The scenario's (event, outcome) pairs, each built from its row as the
    row is drawn: beside the pair, only the drawing period's outcomes and
    latent scores are held, a bytearray and an array('d')."""
    for i, row in enumerate(_rows(config)):
        yield _records(i, row)


def generate(config: ScenarioConfig) -> ScenarioOutput:
    """Materialize one scenario as event/outcome streams plus ground truth.

    Holds the whole scenario in memory; scenario_pairs streams it.
    """
    pairs, truth = [], []
    for i, row in enumerate(_rows(config)):
        pairs.append(_records(i, row))
        truth.append(row[2])
    events, outcomes = zip(*pairs)
    return ScenarioOutput(config=config, events=events, outcomes=outcomes, truth=tuple(truth))


def canonical_scenario() -> ScenarioConfig:
    """The frozen default scenario (seed 42) behind the published trajectories."""
    return ScenarioConfig()


def stationary_control(config: ScenarioConfig | None = None) -> ScenarioConfig:
    """No-drift twin of a scenario: prevalence stays at base, model stays true."""
    config = config or canonical_scenario()
    return replace(
        config,
        final_prevalence=config.base_prevalence,
        miscalibration_gain=0.0,
    )


_PRESETS = {
    # prevalence + calibration drift, the canonical shape
    "sepsis_drift": lambda: ScenarioConfig(),
    # stationary prevalence with a rare heavy-tailed loss subpopulation
    "icu_tail": lambda: ScenarioConfig(
        base_prevalence=0.12,
        final_prevalence=0.12,
        miscalibration_gain=0.0,
        tail_fraction=0.02,
        tail_scale=0.8,
    ),
    # drift expressed through counterfactual losses: regret grows superlinearly
    "oncology_regret": lambda: ScenarioConfig(
        regret_escalation=0.35,
    ),
}


def preset(name: str) -> ScenarioConfig:
    """Named qualitative scenario shapes, "canonical" naming sepsis_drift;
    raises UnknownPreset otherwise."""
    aliases = {"canonical": "sepsis_drift"}
    try:
        factory = _PRESETS[aliases.get(name, name)]
    except KeyError:
        raise UnknownPreset(
            f"{name!r} is not a scenario name "
            f"({', '.join([*aliases, *preset_names()])}) or a config file path"
        ) from None
    return factory()


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def run_monitor(
    output: ScenarioOutput,
    policy: ThresholdPolicy | None = None,
    **settings,
) -> tuple[list[MetricSnapshot], list[AlarmRecord]]:
    """Feed a generated scenario through the full monitoring pipeline.

    Drives a MonitorEngine (join, period close with calibration, tail
    risk, regret and belief, then the alarm machine) and returns the
    per-period metric snapshots and the alarm history. settings are MonitorEngine
    keywords (n_bins, alpha, ...) and default to the engine's own.
    """
    engine = MonitorEngine(policy=policy, **settings)
    for event, outcome in zip(output.events, output.outcomes):
        engine.observe_event(event)
        engine.observe_outcome(outcome)
    engine.finalize()
    return list(engine.snapshots), list(engine.alarm.history)
