"""Acceptance suite: the toolkit's published behavioral guarantees.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per numbered guarantee. The first four pin the canonical synthetic
deployment (seed 42, all defaults): discrimination stays flat while
calibration and tail risk degrade on schedule and the alarm fires at the
documented month. The rest are statistical-law suites over large random
families: risk-measure coherence, estimator equivalences, sketch rank
accuracy, exact oracle agreement, regret laws, belief behavior, and
bit-identical persistence round trips.
"""

import io
import math

import numpy as np
import pytest

from riskwatch.alarms import OperatingState
from riskwatch.belief import BetaPosterior, drift_score, update, update_batch
from riskwatch.calibration import auc, brier, ece
from riskwatch.core import TimeIndex
from riskwatch.eventlog import emit_report, load_snapshot, read_report, save_snapshot
from riskwatch.monitor import MonitorEngine
from riskwatch.regret import (
    DecisionLedgerEntry,
    best_fixed_action_regret,
    cumulative_regret,
)
from riskwatch.simulator import generate, run_monitor, stationary_control
from riskwatch.tailrisk import (
    QuantileSketch,
    cvar_conditional,
    cvar_tail,
    cvar_variational,
    var,
)

ALPHA_GRID = (0.5, 0.8, 0.9, 0.95, 0.99)


@pytest.fixture(scope="module")
def canonical_run(canonical_output):
    return run_monitor(canonical_output)


@pytest.fixture(scope="module")
def loss_vectors():
    """1000 random loss vectors, sizes 2-500, alternating continuous and
    tied, arranged as 500 equal-size pairs for the subadditivity checks."""
    rng = np.random.default_rng(20260818)
    pairs = []
    for i in range(500):
        n = int(rng.integers(2, 501))
        x = rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 3), size=n)
        if i % 2:
            support = rng.normal(0, 2, size=int(rng.integers(2, 6)))
            y = rng.choice(support, size=n)
        else:
            y = rng.lognormal(0.0, rng.uniform(0.2, 1.0), size=n)
        pairs.append((x, y))
    return pairs


def test_01_discrimination_stays_flat(canonical_run):
    snapshots, _ = canonical_run
    assert len(snapshots) == 12
    for snap in snapshots:
        assert 0.80 <= snap.auc <= 0.86, f"month {snap.time.period}: {snap.auc}"


def test_02_calibration_degrades_on_schedule(canonical_run):
    snapshots, _ = canonical_run
    by_month = {s.time.period: s.ece for s in snapshots}
    assert by_month[4] <= 0.03
    assert 0.10 <= by_month[12] <= 0.14
    path = [by_month[m] for m in range(4, 13)]
    for earlier, later in zip(path, path[1:]):
        assert later >= earlier - 0.005  # sampling noise allowance per step


def test_03_tail_risk_degrades_on_schedule(canonical_run):
    snapshots, _ = canonical_run
    by_month = {s.time.period: s.cvar for s in snapshots}
    assert by_month[4] <= 0.10
    assert 0.24 <= by_month[12] <= 0.32


def test_04_alarm_fires_at_month_six_and_control_stays_quiet(canonical_run):
    _, history = canonical_run
    first_non_normal = next(
        rec.time.period for rec in history
        if rec.state is not OperatingState.NORMAL
    )
    assert first_non_normal == 6

    control = run_monitor(generate(stationary_control()))
    assert all(rec.state is OperatingState.NORMAL for rec in control[1])


def test_05_tail_risk_measure_is_coherent(loss_vectors):
    rng = np.random.default_rng(7)
    for i, (x, y) in enumerate(loss_vectors):
        for vec in (x, y):
            curve = [cvar_tail(vec, a) for a in ALPHA_GRID]
            for a, c in zip(ALPHA_GRID, curve):
                assert c >= var(vec, a)
            for lo, hi in zip(curve, curve[1:]):
                assert hi >= lo
            a = ALPHA_GRID[i % len(ALPHA_GRID)]
            shift = float(rng.uniform(-10, 10))
            scale = float(rng.uniform(0.1, 3.0))
            base = cvar_tail(vec, a)
            assert cvar_tail(vec + shift, a) == pytest.approx(base + shift, abs=1e-9)
            assert cvar_tail(vec * scale, a) == pytest.approx(base * scale, abs=1e-9)
        a = ALPHA_GRID[i % len(ALPHA_GRID)]
        assert cvar_tail(x + y, a) <= cvar_tail(x, a) + cvar_tail(y, a) + 1e-9


def test_06_tail_estimators_agree_where_they_must(loss_vectors):
    # variational form equals the interpolated tail mean everywhere
    for i, (x, y) in enumerate(loss_vectors):
        a = ALPHA_GRID[i % len(ALPHA_GRID)]
        assert cvar_variational(x, a) == pytest.approx(cvar_tail(x, a), abs=1e-9)
        assert cvar_variational(y, a) == pytest.approx(cvar_tail(y, a), abs=1e-9)

    # On all-distinct samples the inclusive conditional mean matches the
    # interpolated tail mean exactly when the whole tail mass sits inside
    # the largest observation; once the boundary splits lower atoms the two
    # differ by a closed-form gap. {1..100} at alpha=0.95 is the canonical
    # split-atom instance.
    rng = np.random.default_rng(20260819)
    for _ in range(200):
        n = int(rng.integers(2, 501))
        vec = np.cumsum(rng.uniform(0.01, 1.0, size=n))
        alpha = 1.0 - float(rng.uniform(0.1, 0.99)) / n
        assert cvar_conditional(vec, alpha) == cvar_tail(vec, alpha)

    for _ in range(200):
        n = int(rng.integers(2, 501))
        vec = np.cumsum(rng.uniform(0.01, 1.0, size=n))
        alpha = float(rng.choice(ALPHA_GRID))
        v = var(vec, alpha)
        mass = (1.0 - alpha) * n
        nearest = round(mass)
        if nearest > 0 and abs(mass - nearest) <= 1e-9 * n:
            mass = float(nearest)
        frac = mass - math.floor(mass)
        above = vec[vec > v]
        u = above.size
        gap = 0.0
        if u:
            a_mean = math.fsum(above.tolist()) / u
            gap = u * (1.0 - frac) * (a_mean - v) / ((u + frac) * (u + 1.0))
        assert cvar_tail(vec, alpha) - cvar_conditional(vec, alpha) == (
            pytest.approx(gap, abs=1e-9)
        )

    reference = np.arange(1.0, 101.0)
    assert cvar_conditional(reference, 0.95) == 97.5
    assert cvar_tail(reference, 0.95) == 98.0


def test_07_sketch_rank_accuracy_and_memory():
    n = 100_000
    epsilon = 0.01
    rng = np.random.default_rng(11)
    streams = {
        "sorted": np.arange(n, dtype=float),
        "reverse": np.arange(n, dtype=float)[::-1],
        "random": rng.normal(size=n),
    }
    for name, stream in streams.items():
        sketch = QuantileSketch(epsilon=epsilon)
        for value in stream.tolist():
            sketch.insert(value)
        data = np.sort(stream)
        for q in np.linspace(0.0, 1.0, 101).tolist():
            answer = sketch.quantile(q)
            lo = int(np.searchsorted(data, answer, side="left")) + 1
            hi = int(np.searchsorted(data, answer, side="right"))
            target = min(max(math.ceil(q * n), 1), n)
            error = 0 if lo <= target <= hi else min(
                abs(lo - target), abs(hi - target)
            )
            assert error <= epsilon * n, (name, q, error)
        assert sketch.summary_size < n / 10, name


def test_08_metrics_match_brute_force_oracles_exactly():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(2, 1001))
        probs = rng.uniform(0.0, 1.0, size=n)
        if rng.integers(2):
            probs = np.round(probs, 1)  # force ties
        ys = (rng.uniform(size=n) < rng.uniform(0.2, 0.8)).astype(int)
        ys[0], ys[1] = 0, 1  # both classes present

        bins = {}
        for p, y in zip(probs.tolist(), ys.tolist()):
            bins.setdefault(min(int(p * 10), 9), []).append((p, y))
        oracle_ece = math.fsum(
            (len(members) / n)
            * abs(
                math.fsum(p for p, _ in members) / len(members)
                - math.fsum(y for _, y in members) / len(members)
            )
            for members in bins.values()
        )
        assert ece(probs, ys) == oracle_ece

        oracle_brier = math.fsum((p - y) ** 2 for p, y in zip(probs.tolist(), ys.tolist()))
        assert brier(probs, ys) == oracle_brier / n

        pos, neg = probs[ys == 1], probs[ys == 0]
        wins = int((pos[:, None] > neg[None, :]).sum())
        ties = int((pos[:, None] == neg[None, :]).sum())
        assert auc(probs, ys) == (wins + 0.5 * ties) / (pos.size * neg.size)

        steps = int(rng.integers(1, 1001))
        width = int(rng.integers(1, 9))
        losses = rng.uniform(0.0, 5.0, size=(steps, width))
        chosen = rng.integers(0, width, size=steps)
        ledger = [
            DecisionLedgerEntry(TimeIndex(1, t), int(chosen[t]),
                                tuple(losses[t].tolist()))
            for t in range(steps)
        ]
        oracle_cum = math.fsum(
            losses[t, chosen[t]] - min(losses[t].tolist()) for t in range(steps)
        )
        assert cumulative_regret(ledger).cumulative == oracle_cum
        oracle_fixed = math.fsum(
            losses[t, chosen[t]] for t in range(steps)
        ) - min(math.fsum(losses[:, a].tolist()) for a in range(width))
        assert best_fixed_action_regret(ledger) == oracle_fixed


def test_09_regret_laws():
    rng = np.random.default_rng(9)
    for _ in range(200):
        steps = int(rng.integers(1, 200))
        width = int(rng.integers(1, 9))
        losses = rng.uniform(0.0, 3.0, size=(steps, width))
        chosen = rng.integers(0, width, size=steps)
        ledger = [
            DecisionLedgerEntry(TimeIndex(1, t), int(chosen[t]),
                                tuple(losses[t].tolist()))
            for t in range(steps)
        ]
        report = cumulative_regret(ledger)
        assert report.cumulative >= 0.0
        partials = [
            cumulative_regret(ledger[: t + 1]).cumulative for t in range(steps)
        ]
        for lo, hi in zip(partials, partials[1:]):
            assert hi >= lo
        argmin_each_step = all(
            losses[t, chosen[t]] == min(losses[t].tolist()) for t in range(steps)
        )
        assert (report.cumulative == 0.0) == argmin_each_step

        oracle = [
            DecisionLedgerEntry(TimeIndex(1, t),
                                int(np.argmin(losses[t])),
                                tuple(losses[t].tolist()))
            for t in range(steps)
        ]
        assert cumulative_regret(oracle).cumulative == 0.0
        # hindsight per-step optimum never loses to the best fixed action
        hindsight = math.fsum(min(losses[t].tolist()) for t in range(steps))
        best_fixed = min(math.fsum(losses[:, a].tolist()) for a in range(width))
        assert hindsight <= best_fixed


def test_10_belief_updates_and_drift_separation():
    posterior = BetaPosterior(2.0, 5.0)
    assert update(posterior, 1) == BetaPosterior(3.0, 5.0)
    assert update(posterior, 0) == BetaPosterior(2.0, 6.0)
    assert update_batch(posterior, 17, 40) == BetaPosterior(19.0, 45.0)
    stepped = posterior
    for y in (1, 0, 0, 1, 1):
        stepped = update(stepped, y)
    assert stepped == update_batch(posterior, 3, 2)

    for belief in (BetaPosterior(1, 1), BetaPosterior(30, 70), BetaPosterior(500, 500)):
        score = drift_score(belief, belief)
        assert 0.48 <= score <= 0.52, belief

    assert drift_score(BetaPosterior(100, 900), BetaPosterior(250, 750)) > 0.99


def test_11_bit_identical_resume_and_report_idempotence(canonical_output):
    events, outcomes = canonical_output.events, canonical_output.outcomes

    uninterrupted = MonitorEngine()
    for event, outcome in zip(events, outcomes):
        uninterrupted.observe_event(event)
        uninterrupted.observe_outcome(outcome)
    uninterrupted.finalize()
    reference = emit_report(uninterrupted.snapshots,
                            uninterrupted.alarm.history, fmt="csv")

    cut = 13_577  # mid period 7, nowhere near a boundary
    partial = MonitorEngine()
    for event, outcome in list(zip(events, outcomes))[:cut]:
        partial.observe_event(event)
        partial.observe_outcome(outcome)
    buffer = io.StringIO()
    save_snapshot(partial, buffer)

    resumed = load_snapshot(io.StringIO(buffer.getvalue()))
    for event, outcome in list(zip(events, outcomes))[cut:]:
        resumed.observe_event(event)
        resumed.observe_outcome(outcome)
    resumed.finalize()
    assert emit_report(resumed.snapshots, resumed.alarm.history,
                       fmt="csv") == reference

    rows = read_report(reference, fmt="csv")
    header = reference.splitlines()[0]
    lines = [header]
    for row in rows:
        cells = []
        for col in header.split(","):
            value = row[col]
            cells.append("" if value is None else
                         repr(value) if isinstance(value, float) else str(value))
        lines.append(",".join(cells))
    assert "\n".join(lines) + "\n" == reference
