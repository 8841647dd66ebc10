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
over random(). The columns are plain lists; only generate_arrays, which
hands them out as numpy arrays, needs numpy (riskwatch[simulate]), and
without it raises MissingExtra.
"""

from __future__ import annotations

import math
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
_INT_COLUMNS = ("period", "y", "action")  # the rest of a draw's columns are floats
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
    from statistics import NormalDist  # here, not at import: it loads decimal

    return NormalDist()


def _ndtri(p: float) -> float:
    """Inverse of the standard normal CDF at p in (0, 1): statistics.NormalDist's
    inv_cdf (Wichura's AS241), NaN through. It raises at 0 and 1, so every
    caller first moves p into [_LOWEST, _HIGHEST]."""
    return _standard_normal().inv_cdf(p)


def prevalence_at(config: ScenarioConfig, period: int) -> float:
    """True event prevalence of one period: flat, then a linear ramp."""
    m0 = config.drift_start_period
    if period < m0 or config.periods == m0:
        return config.base_prevalence
    frac = (period - m0) / (config.periods - m0)
    frac = min(max(frac, 0.0), 1.0)
    return config.base_prevalence + (config.final_prevalence - config.base_prevalence) * frac


def period_arrays(config: ScenarioConfig) -> Iterator[dict[str, list]]:
    """The scenario draw, one period at a time in period order.

    Yields one dict of equal-length lists per period: period, y,
    true_prob, pred_prob, loss, loss_monitor, loss_act, action. Each period
    draws from its own stream, so a chunk does not depend on the periods
    drawn before it. This frame holds none of a chunk's lists; _period_draw
    makes them.
    """
    for m in range(1, config.periods + 1):
        yield _period_draw(config, m)


def _period_draw(config: ScenarioConfig, m: int) -> dict[str, list]:
    """The columns of period m, drawn from its own stream, one
    Random.random() call at a time."""
    n = config.patients_per_period
    d = config.class_separation
    draw = Random(f"{config.seed}:{m}").random
    base_logit = _logit(config.base_prevalence)
    pim = prevalence_at(config, m)
    since_onset = max(0, m - config.drift_start_period)
    shift = config.miscalibration_gain * since_onset

    # fixed-margin outcomes: expected count, randomized rounding, and the
    # positions of the k events by the first k steps of a Fisher-Yates shuffle
    expected = pim * n
    k = int(expected) + (1 if draw() < expected - int(expected) else 0)
    order = list(range(n))
    for i in range(k):
        j = i + int(draw() * (n - i))
        order[i], order[j] = order[j], order[i]
    y = [0] * n
    for i in order[:k]:
        y[i] = 1

    # stratified latent scores per class: jittered equiprobable normal
    # quantiles, shuffled within class (exact N(d*y, 1) marginals)
    s = [0.0] * n
    for cls in (0, 1):
        idx = [i for i in range(n) if y[i] == cls]
        size = len(idx)
        z = [_ndtri(min(max((j + draw()) / size, _LOWEST), _HIGHEST)) for j in range(size)]
        for i in range(size - 1, 0, -1):
            j = int(draw() * (i + 1))
            z[i], z[j] = z[j], z[i]
        for i, v in zip(idx, z):
            s[i] = v + d * cls

    # generative posterior log-odds at the frozen prevalence, then each
    # row's background harm, heavy-tailed on a tail_fraction share of rows
    lift = _logit(pim) - base_logit
    escalation = 1.0 + config.regret_escalation * since_onset
    true_prob, pred_prob, loss, loss_monitor, loss_act, action = [], [], [], [], [], []
    for yi, si in zip(y, s):
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
        true_prob.append(tp)
        pred_prob.append(pp)
        loss_monitor.append(lm)
        loss_act.append(la)
        action.append(act)
        loss.append(la if act == ACT else lm)

    return {
        "period": [m] * n,
        "y": y,
        "true_prob": true_prob,
        "pred_prob": pred_prob,
        "loss": loss,
        "loss_monitor": loss_monitor,
        "loss_act": loss_act,
        "action": action,
    }


def generate_arrays(config: ScenarioConfig) -> dict[str, np.ndarray]:
    """The whole scenario draw as numpy arrays: the period_arrays chunks,
    int64 period, y and action and float64 for the rest, concatenated.
    Deterministic given the config's seed; needs numpy (riskwatch[simulate])."""
    try:
        import numpy as np
    except ModuleNotFoundError as exc:
        raise MissingExtra("simulate", "numpy") from exc

    chunks = [{k: np.array(column, dtype=np.int64 if k in _INT_COLUMNS else np.float64)
               for k, column in chunk.items()} for chunk in period_arrays(config)]
    return {k: np.concatenate([c[k] for c in chunks]) for k in chunks[0]}


def scenario_records(
    columns: dict[str, list], start: int = 0
) -> Iterator[tuple[PredictionEvent, OutcomeRecord]]:
    """The (event, outcome) pair of each row of scenario columns.

    Rows are numbered from start, the row's position in the whole
    scenario: it sets the event_id and the sequence number.
    """
    rows = zip(*(columns[k] for k in (
        "period", "pred_prob", "action", "y", "loss", "loss_monitor", "loss_act")))
    for i, (period, prob, action, y, loss, loss_monitor, loss_act) in enumerate(
        rows, start=start
    ):
        event_id = f"ev-{i:06d}"
        yield (
            PredictionEvent(event_id, TimeIndex(period, i), prob, action, "frozen-v1"),
            OutcomeRecord(event_id, y, loss, (loss_monitor, loss_act)),
        )


def scenario_pairs(
    config: ScenarioConfig,
) -> Iterator[tuple[PredictionEvent, OutcomeRecord]]:
    """The scenario's (event, outcome) pairs, drawn one period at a time,
    so only one period's columns are held at once."""
    start = 0
    for chunk in period_arrays(config):
        records = scenario_records(chunk, start)
        start += len(chunk["period"])
        del chunk  # records holds the columns only until they are used up
        yield from records


def generate(config: ScenarioConfig) -> ScenarioOutput:
    """Materialize one scenario as event/outcome streams plus ground truth.

    Holds the whole scenario in memory; scenario_pairs streams it.
    """
    chunks = list(period_arrays(config))
    columns = {k: [v for chunk in chunks for v in chunk[k]] for k in chunks[0]}
    events, outcomes = zip(*scenario_records(columns))
    return ScenarioOutput(
        config=config,
        events=events,
        outcomes=outcomes,
        truth=tuple(columns["true_prob"]),
    )


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
