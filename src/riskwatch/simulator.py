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
(exact Normal marginals, shuffled). Every period draws from its own child
stream, default_rng([seed, period]), so runs are reproducible and periods
are independent.

numpy is imported inside the functions that draw and transform arrays,
so importing this module, or building a ScenarioConfig, does not load it.
numpy is an extra (riskwatch[simulate]): without it, a draw raises
MissingExtra.
Every exp and log goes through libm (_exp, _log), never numpy's SIMD loops,
so a seed gives the same bytes whatever the host's vector units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator

from .alarms import AlarmRecord, ThresholdPolicy
from .core import (OPEN_UNIT, POSITIVE, MetricSnapshot, OutcomeRecord, PredictionEvent,
                   TimeIndex, check_fields)
from .errors import BadConfig, MissingExtra, UnknownPreset
from .monitor import MonitorEngine

if TYPE_CHECKING:
    import numpy as np

MONITOR, ACT = 0, 1  # action ids of the binary decision set
_ROW_BLOCK = 1024  # rows scenario_records turns into Python numbers at once


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


# The Cephes ndtri (S. L. Moshier), the routine scipy.special.ndtri ships:
# the same tables, Horner order and branch points, so the results agree bit
# for bit. Loading scipy.special for it alone would add ~20 MB of RSS.
_S2PI = 2.50662827463100050242e0
_EXPM2 = 0.13533528323661269189  # exp(-2)
# |p - 0.5| <= 3/8
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# sqrt(-2 log p) in [2, 8)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# sqrt(-2 log p) >= 8
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Horner's rule, highest power first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """_polevl with an implicit leading coefficient of 1."""
    return _polevl(x, (1.0, *coef))


# libm's log and exp, elementwise: np.log and np.exp pick SIMD loops by host
# CPU, and on AVX-512 those can differ from libm by an ulp, which would make
# the scenario depend on the machine that draws it
def _log(x: np.ndarray) -> np.ndarray:
    import numpy as np

    return np.array([math.log(v) for v in x.tolist()])


def _exp(x: np.ndarray) -> np.ndarray:
    import numpy as np

    out = []
    for v in x.tolist():
        try:
            out.append(math.exp(v))
        except OverflowError:  # past the float range, where np.exp gives inf
            out.append(math.inf)
    return np.array(out)


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Inverse of the standard normal CDF, elementwise over a float array:
    -inf at 0, +inf at 1, nan outside [0, 1]."""
    import numpy as np

    out = np.full(p.shape, np.nan)
    out[p == 0.0] = -np.inf
    out[p == 1.0] = np.inf
    upper = p > 1.0 - _EXPM2
    y = np.where(upper, 1.0 - p, p)
    mid = y > _EXPM2
    ym = y[mid] - 0.5
    y2 = ym * ym
    out[mid] = (ym + ym * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI
    # nan takes this branch too, as in Cephes, which returns it negated
    tail = ~(mid | (p <= 0.0) | (p >= 1.0))
    x = np.sqrt(-2.0 * _log(y[tail]))
    x0 = x - _log(x) / x
    z = 1.0 / x
    x1 = np.where(x < 8.0, z * _polevl(z, _P1) / _p1evl(z, _Q1),
                  z * _polevl(z, _P2) / _p1evl(z, _Q2))
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out


def prevalence_at(config: ScenarioConfig, period: int) -> float:
    """True event prevalence of one period: flat, then a linear ramp."""
    m0 = config.drift_start_period
    if period < m0 or config.periods == m0:
        return config.base_prevalence
    frac = (period - m0) / (config.periods - m0)
    frac = min(max(frac, 0.0), 1.0)
    return config.base_prevalence + (config.final_prevalence - config.base_prevalence) * frac


def period_arrays(config: ScenarioConfig) -> Iterator[dict[str, np.ndarray]]:
    """Vectorized scenario draw, one period at a time in period order.

    Yields one dict of arrays per period: period, y, true_prob, pred_prob,
    loss, loss_monitor, loss_act, action. Each period draws from its own
    stream, so a chunk does not depend on the periods drawn before it.
    This frame holds none of a chunk's arrays; _period_draw makes them.
    """
    for m in range(1, config.periods + 1):
        yield _period_draw(config, m)


def _period_draw(config: ScenarioConfig, m: int) -> dict[str, np.ndarray]:
    """The arrays of period m, drawn from its own stream. Every draw of the
    package comes through here, so this is where a missing numpy is named."""
    try:
        import numpy as np
    except ModuleNotFoundError as exc:
        raise MissingExtra("simulate", "numpy") from exc

    n = config.patients_per_period
    d = config.class_separation
    base_logit = _logit(config.base_prevalence)
    rng = np.random.default_rng([config.seed, m])
    pim = prevalence_at(config, m)
    since_onset = max(0, m - config.drift_start_period)
    shift = config.miscalibration_gain * since_onset

    # fixed-margin outcomes: expected count, randomized rounding/positions
    expected = pim * n
    k = int(expected) + (1 if rng.random() < expected - int(expected) else 0)
    y = np.zeros(n, dtype=np.int64)
    y[rng.permutation(n)[:k]] = 1

    # stratified latent scores per class: jittered equiprobable normal
    # quantiles, shuffled within class (exact N(d*y, 1) marginals)
    s = np.empty(n, dtype=float)
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        if idx.size == 0:
            continue
        z = _ndtri((np.arange(idx.size) + rng.random(idx.size)) / idx.size)
        rng.shuffle(z)
        s[idx] = z + d * cls

    # generative posterior log-odds at the frozen prevalence
    u = base_logit + d * s - d * d / 2.0
    true_prob = 1.0 / (1.0 + _exp(-(u + (_logit(pim) - base_logit))))
    pred_prob = 1.0 / (1.0 + _exp(-(u - shift)))

    eps = np.abs(rng.standard_normal(n)) * config.baseline_harm_scale
    if config.tail_fraction > 0.0:
        heavy = rng.random(n) < config.tail_fraction
        eps = np.where(
            heavy, config.tail_scale * _exp(rng.standard_normal(n)), eps
        )

    under = np.minimum(np.maximum(true_prob - pred_prob, 0.0), config.harm_cap)
    over = np.minimum(np.maximum(pred_prob - true_prob, 0.0), config.harm_cap)
    if config.regret_escalation > 0.0:
        under = under * (1.0 + config.regret_escalation * since_onset)
    loss_monitor = config.loss_w_fn * y * under + eps
    loss_act = config.intervention_cost + config.loss_w_fp * (1 - y) * over + eps
    action = np.where(pred_prob >= config.act_threshold, ACT, MONITOR)
    loss = np.where(action == ACT, loss_act, loss_monitor)

    return {
        "period": np.full(n, m, dtype=np.int64),
        "y": y,
        "true_prob": true_prob,
        "pred_prob": pred_prob,
        "loss": loss,
        "loss_monitor": loss_monitor,
        "loss_act": loss_act,
        "action": action,
    }


def generate_arrays(config: ScenarioConfig) -> dict[str, np.ndarray]:
    """The whole scenario draw; the array core behind generate().

    Returns flat arrays over all periods, the period_arrays chunks
    concatenated. Deterministic given the config's seed.
    """
    chunks = list(period_arrays(config))  # first, so a missing numpy is named
    import numpy as np

    return {k: np.concatenate([c[k] for c in chunks]) for k in chunks[0]}


def scenario_records(
    arrays: dict[str, np.ndarray], start: int = 0
) -> Iterator[tuple[PredictionEvent, OutcomeRecord]]:
    """The (event, outcome) pair of each row of scenario arrays.

    Rows are numbered from start, the row's position in the whole
    scenario: it sets the event_id and the sequence number.
    """
    columns = [arrays[k] for k in (
        "period", "pred_prob", "action", "y", "loss", "loss_monitor", "loss_act")]
    for lo in range(0, columns[0].size, _ROW_BLOCK):
        rows = zip(*(c[lo:lo + _ROW_BLOCK].tolist() for c in columns))
        for i, (period, prob, action, y, loss, loss_monitor, loss_act) in enumerate(
            rows, start=start + lo
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
    so only one period's arrays are held at once."""
    start = 0
    for chunk in period_arrays(config):
        records = scenario_records(chunk, start)
        start += chunk["period"].size
        del chunk  # records holds the arrays only until they are used up
        yield from records


def generate(config: ScenarioConfig) -> ScenarioOutput:
    """Materialize one scenario as event/outcome streams plus ground truth.

    Holds the whole scenario in memory; scenario_pairs streams it.
    """
    arrays = generate_arrays(config)
    events, outcomes = zip(*scenario_records(arrays))
    return ScenarioOutput(
        config=config,
        events=events,
        outcomes=outcomes,
        truth=tuple(arrays["true_prob"].tolist()),
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
