"""Independent reference for every closed period, from the generated arrays.

Recomputes each period with plain numpy/scipy and the standard library,
without calling riskwatch's metric code:

* ece (10 equal-width bins), brier, and AUC by the midrank sum;
* var (the order statistic at rank ceil(alpha n), the rank taken in exact
  rational arithmetic) and cvar (mean of the top (1 - alpha) n losses);
* period and cumulative regret from the counterfactual losses;
* the posterior mean of Beta(1 + positives, 1 + negatives);
* drift as the exact P(p_roll > p_base) by quadrature, folded to
  max(s, 1 - s).

Tolerances. The deterministic columns must match exactly (0 ulp): their
sums are correctly rounded (math.fsum) and the rest is the same IEEE
arithmetic, so a faithful recomputation reproduces them bit for bit.
The one exception is cvar when the tail mass (1 - alpha) n is not a
whole number (none of the full-size workloads): then it may differ by
CVAR_FRACTIONAL_ULPS, since the mass itself is rounded. The
drift column is a Monte Carlo estimate from DRIFT_DRAWS paired draws and
must lie within 6 standard errors (plus one draw) of the exact value.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from fractions import Fraction

import numpy as np
from scipy import integrate, special, stats

from workloads import ALPHA, DRIFT_DRAWS

EXACT_COLUMNS = ("n", "ece", "brier", "auc", "var", "cvar", "regret_cumulative",
                 "regret_rate", "posterior_mean")
# cvar's tolerance when the tail mass (1 - alpha) n is not a whole number
CVAR_FRACTIONAL_ULPS = 8


def _ece(p, y, n_bins=10):
    idx = np.minimum((p * n_bins).astype(int), n_bins - 1)
    n = p.size
    terms = []
    for b in np.unique(idx):
        m = idx == b
        count = int(m.sum())
        mean_pred = math.fsum(p[m].tolist()) / count
        rate = math.fsum(y[m].tolist()) / count
        terms.append((count / n) * abs(mean_pred - rate))
    return math.fsum(terms)


def _auc(p, y):
    pos = int(y.sum())
    neg = y.size - pos
    if pos == 0 or neg == 0:
        return None
    ranks = stats.rankdata(p, method="average")
    rank_sum = math.fsum(ranks[y == 1].tolist())
    return (rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)


def _tail(losses, alpha):
    n = losses.size
    x = np.sort(losses)
    a = Fraction(repr(alpha))
    rank = math.ceil(a * n)
    value_at_risk = float(x[rank - 1])
    mass = (1 - a) * n
    k = math.floor(mass)
    desc = x[::-1]
    if k == 0:
        return value_at_risk, float(desc[0]), 0
    frac = mass - k
    anchor = float(desc[k]) if frac else float(desc[k - 1])
    excess = math.fsum(float(v) - anchor for v in desc[:k])
    # a fractional mass such as 0.05 * 30 is not representable in binary,
    # so the divisor may differ from riskwatch's float mass in the last bits
    ulps = 0 if frac == 0 else CVAR_FRACTIONAL_ULPS
    return value_at_risk, anchor + excess / float(mass), ulps


def exact_drift(base, roll):
    """Folded P(p_roll > p_base) for Beta posteriors, by quadrature."""
    (a0, b0), (a1, b1) = base, roll
    lo = special.betaincinv(a1, b1, 1e-15)
    hi = special.betaincinv(a1, b1, 1.0 - 1e-15)
    log_norm = special.betaln(a1, b1)

    def integrand(x):
        pdf = math.exp((a1 - 1) * math.log(x) + (b1 - 1) * math.log1p(-x) - log_norm)
        return pdf * special.betainc(a0, b0, x)

    s, _ = integrate.quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-10, limit=200)
    s = min(max(s, 0.0), 1.0)
    return max(s, 1.0 - s), s


def reference(a: dict) -> list[dict]:
    """One row per period of the generated arrays, in period order."""
    period = a["period"]
    rows = []
    cumulative = 0.0
    baseline = None
    for m in np.unique(period):
        sel = period == m
        p = a["pred_prob"][sel]
        y = a["y"][sel].astype(float)
        losses = a["loss"][sel]
        alts = np.stack([a["loss_monitor"][sel], a["loss_act"][sel]], axis=1)
        chosen = a["action"][sel]
        steps = alts[np.arange(chosen.size), chosen] - alts.min(axis=1)
        period_regret = math.fsum(steps.tolist())
        cumulative = cumulative + period_regret
        n = int(p.size)
        pos = int(a["y"][sel].sum())
        roll = (1.0 + pos, 1.0 + (n - pos))
        if baseline is None:
            baseline = roll
        value_at_risk, cvar, cvar_ulps = _tail(losses, ALPHA)
        drift, s = exact_drift(baseline, roll)
        rows.append({
            "period": int(m), "n": n,
            "ece": _ece(p, y), "brier": math.fsum(((p - y) ** 2).tolist()) / n,
            "auc": _auc(p, y), "var": value_at_risk, "cvar": cvar,
            "regret_cumulative": cumulative,
            "regret_rate": period_regret / steps.size,
            "posterior_mean": roll[0] / (roll[0] + roll[1]),
            "drift_score": drift, "drift_s": s, "cvar_ulps": cvar_ulps,
        })
    return rows


def read_csv_report(text: str) -> list[dict]:
    """Rows of a riskwatch CSV report, floats parsed from their repr."""
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        row = {}
        for col, cell in raw.items():
            if cell == "":
                row[col] = None
            elif col in ("period", "n"):
                row[col] = int(cell)
            elif col == "alarm_state":
                row[col] = cell
            else:
                row[col] = float(cell)
        rows.append(row)
    return rows


def compare(ref: list[dict], got: list[dict], label: str) -> list[tuple[str, bool, str]]:
    """One check per reference period: every column within its tolerance."""
    checks = []
    if len(got) != len(ref):
        return [(f"{label}: period count", False,
                 f"{len(got)} periods reported, {len(ref)} expected")]
    for r, g in zip(ref, got):
        bad = []
        if g["period"] != r["period"]:
            bad.append(f"period {g['period']} != {r['period']}")
        for col in EXACT_COLUMNS:
            ulps = r["cvar_ulps"] if col == "cvar" else 0
            if g[col] != r[col] and not (
                    ulps and abs(g[col] - r[col]) <= ulps * math.ulp(r[col])):
                bad.append(f"{col} {g[col]!r} != {r[col]!r}")
        s = r["drift_s"]
        tol = 6.0 * math.sqrt(s * (1.0 - s) / DRIFT_DRAWS) + 1.0 / DRIFT_DRAWS
        if g["drift_score"] is None or abs(g["drift_score"] - r["drift_score"]) > tol:
            bad.append(f"drift_score {g['drift_score']!r} vs exact "
                       f"{r['drift_score']!r} (tolerance {tol:.2e})")
        checks.append((f"{label}: period {r['period']}", not bad, "; ".join(bad)))
    return checks


def alarm_onset(rows: list[dict], expected: int, label: str) -> tuple[str, bool, str]:
    """The alarm first leaves NORMAL at the expected period (acceptance 04)."""
    first = next((r["period"] for r in rows if r["alarm_state"] != "normal"), None)
    return (f"{label}: alarm onset", first == expected,
            f"first non-normal period {first}, expected {expected}")


def _read(path: str) -> bytes:
    with open(path, "rb") as fp:
        return fp.read()


def run_checks(w, seed: int, rundir: str, outdirs: list[str]) -> list[dict]:
    """Every oracle and identity check of one run, one dict per check."""
    from riskwatch import cli

    import workloads

    ref = reference(workloads.arrays(w, seed))
    checks = []
    for k, outdir in enumerate(outdirs):
        label = f"{w.name} child {k}"
        if w.kind == "live":
            with open(os.path.join(outdir, "snapshots.json")) as fp:
                rows = json.load(fp)
        else:
            rows = read_csv_report(_read(os.path.join(outdir, "report.csv")).decode())
        checks += compare(ref, rows, label)
        if w.alarm_onset is not None:
            checks.append(alarm_onset(rows, w.alarm_onset, label))

    # cross-path identities: a resumed run must equal one uninterrupted
    # lenient monitor over the full log; simulate's report must equal a
    # monitor over the log it wrote
    if w.kind in ("resume", "simulate"):
        log = os.path.join(rundir if w.kind == "resume" else outdirs[0],
                           "events.ndjson")
        refdir = os.path.join(rundir, "reference")
        code = cli.main(["monitor", "--in", log, "--out", refdir])
        checks.append((f"{w.name}: reference monitor", code in (0, 3),
                       f"exit code {code}"))
        expected = {"events.ndjson": _read(log),
                    "report.csv": _read(os.path.join(refdir, "report.csv")),
                    "state.json": _read(os.path.join(refdir, "state.json"))}
        for k, outdir in enumerate(outdirs):
            for name, data in expected.items():
                checks.append((f"{w.name} child {k}: {name} identical",
                               _read(os.path.join(outdir, name)) == data,
                               f"{name} differs from the uninterrupted path"))
    return [{"name": n, "ok": ok, "detail": "" if ok else d} for n, ok, d in checks]
