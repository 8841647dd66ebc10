"""Workload definitions, input generation and the timed sections.

Every input is generated from the run's seed with
``simulator.generate_arrays`` and written by the benchmark's own ndjson
writer, so the monitor workloads read the same bytes whatever later
changes do to ``write_log`` or ``generate``.

All workloads are closed loops with a single caller: riskwatch is a
library and a batch CLI, not a server, so there is no arrival rate.

Only the standard library is imported at module level; the riskwatch
imports happen inside functions, after the child has timed its set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import time
from dataclasses import asdict, dataclass, replace

# alpha of the engine's tail metrics and the Monte Carlo draws behind its
# drift score, as in riskwatch's default config; the oracle uses both
ALPHA = 0.95
DRIFT_DRAWS = 50_000


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                    # batch | live | resume | simulate
    periods: int
    per_period: int
    drift_start: int = 4
    lag: int = 0                 # outcome follows its event by this many events
    appends: int = 0             # resume: CLI calls as the log grows
    bad_every: int = 0           # resume: one bad line per this many good ones
    alarm_onset: int | None = None  # first non-NORMAL period (acceptance 04)

    @property
    def events(self) -> int:
        return self.periods * self.per_period


# Why each workload exists: the layer it loads and the layer it bypasses.
# "Traced" gives self-time shares of the traced timed section at seed 7
# (2-core x86 VM; tracing adds 15-30% on the record path, charged mostly
# to read_log and the CLI's own frame).
WORKLOADS = {
    # Loads the read path: eventlog.read_log (JSON decode and schema build)
    # and per-record intake (feed_engine, observe_event/outcome). Bypasses
    # the write side (generate, write_log) and snapshot load. The roadmap's
    # 10x scale: sepsis_drift, 12 monthly windows of 20k events, each
    # outcome right after its event (about 73 MB). Traced: read_log 68%
    # (JSON decode 28%), intake 21%, closes 8%, snapshot save 3%.
    "batch-240k": Workload("batch-240k", "batch", periods=12,
                           per_period=20_000, alarm_onset=6),
    # Loads the period close: ece, brier, auc, var/cvar, the Monte Carlo
    # drift score, inline regret and the alarm machine, 365 times.
    # Bypasses eventlog: records are built in memory before timing and fed
    # to MonitorEngine with each outcome 120 records after its event, drift
    # ramp from day 122. Traced: closes 94% (drift_score alone 88%, ece
    # 3%, auc 2%), intake 3%. Parse speed-ups should not move it; close
    # speed-ups should.
    "live-daily": Workload("live-daily", "live", periods=365, per_period=60,
                           drift_start=122, lag=60),
    # Loads checkpointing: snapshot load and save, pending events carried
    # across checkpoints, and replay's re-parse of the whole prefix, which
    # makes the total O(appends x log). The only workload that reads state
    # as well as writing it. Canonical 24k events, outcomes 50 events
    # late, about 0.1% bad lines (bad JSON, non-object, schema violation,
    # orphan outcome). The job starts on a backlog that holds the first
    # closed window, then the log grows in 47 equal appends; one CLI call
    # on the backlog and one after each append.
    # Traced: read_log 80% (JSON decode 32%; 1.16M records parsed to feed
    # 43k), snapshot save 8% and load 3%, closes under 1%.
    "resume-hourly": Workload("resume-hourly", "resume", periods=12,
                              per_period=2_000, lag=50, appends=48,
                              bad_every=1_000, alarm_onset=6),
    # Loads the write side of the record path: generate's object
    # materialisation and write_log, plus in-memory intake. Bypasses
    # read_log. Traced: write_log 44%, generate 31% (generate_arrays
    # under 1%), intake 15%, closes 7%, snapshot save 3%.
    "simulate-240k": Workload("simulate-240k", "simulate", periods=12,
                              per_period=20_000, alarm_onset=6),
}

# The same four shapes at a size that runs every check in seconds.
SMOKE = {
    "batch-240k": replace(WORKLOADS["batch-240k"], per_period=400),
    "live-daily": replace(WORKLOADS["live-daily"], periods=40, drift_start=14,
                          per_period=30, lag=30),
    "resume-hourly": replace(WORKLOADS["resume-hourly"], per_period=200,
                             appends=12, bad_every=100),
    "simulate-240k": replace(WORKLOADS["simulate-240k"], per_period=400),
}


# -- inputs ---------------------------------------------------------------------


def scenario(w: Workload, seed: int):
    """The sepsis_drift scenario at the workload's size and seed."""
    from riskwatch import simulator

    return replace(simulator.preset("sepsis_drift"), periods=w.periods,
                   patients_per_period=w.per_period,
                   drift_start_period=w.drift_start, seed=seed)


def arrays(w: Workload, seed: int) -> dict:
    from riskwatch import simulator

    return simulator.generate_arrays(scenario(w, seed))


def _columns(a: dict) -> tuple[list, ...]:
    return tuple(a[k].tolist() for k in ("period", "pred_prob", "action", "y",
                                         "loss", "loss_monitor", "loss_act"))


def event_line(i, period, prob, action) -> str:
    return (f'{{"kind": "prediction", "event_id": "ev-{i:06d}", '
            f'"period": {period}, "seq": {i}, "prob": {prob!r}, '
            f'"action": {action}, "model_version": "frozen-v1", '
            f'"cohort": null}}\n')


def outcome_line(i, y, loss, lm, la) -> str:
    return (f'{{"kind": "outcome", "event_id": "ev-{i:06d}", "y": {y}, '
            f'"loss": {loss!r}, "alt_losses": [{lm!r}, {la!r}]}}\n')


_BAD_LINES = (
    '{"kind": "prediction", "event_id": "ev-trunc", "period": \n',
    '[1, 2, 3]\n',
    '{"kind": "prediction", "event_id": "ev-bad-{k}", "period": 1, '
    '"seq": -1, "prob": 0.5}\n',
    '{"kind": "outcome", "event_id": "orphan-{k}", "y": 0, "loss": 0.1}\n',
)


def _arrival_order(n: int, lag: int):
    """(is_event, index) in log order: each outcome follows its event by
    `lag` events, so outcomes stay in event order and no pair resolves
    after its period has closed."""
    for i in range(n + lag):
        if i < n:
            yield True, i
        if i >= lag:
            yield False, i - lag


def log_lines(w: Workload, a: dict, seed: int) -> list[str]:
    """The workload's ndjson log, one string per line.

    With w.bad_every, bad lines are inserted at seeded positions; they
    are extra lines, so every good record is still in the log.
    """
    period, prob, action, y, loss, lm, la = _columns(a)
    lines = [event_line(i, period[i], prob[i], action[i]) if is_event
             else outcome_line(i, y[i], loss[i], lm[i], la[i])
             for is_event, i in _arrival_order(len(period), w.lag)]
    if w.bad_every:
        rng = random.Random(seed)
        count = len(lines) // w.bad_every
        for k, pos in enumerate(sorted(rng.sample(range(1, len(lines)), count),
                                       reverse=True)):
            lines.insert(pos, _BAD_LINES[k % len(_BAD_LINES)].replace("{k}", str(k)))
    return lines


def first_close(w: Workload, a: dict, lines: list[str]) -> int:
    """Line count of the log up to and including the line that closes its
    first window: the outcome of the first event of the second period."""
    period = a["period"].tolist()
    opener = next(i for i, m in enumerate(period) if m != period[0])
    tag = f'{{"kind": "outcome", "event_id": "ev-{opener:06d}"'
    return next(k + 1 for k, line in enumerate(lines) if line.startswith(tag))


def append_bounds(total: int, backlog: int, appends: int) -> list[int]:
    """Line counts of the growing log at each of `appends` checkpoints: the
    backlog, then the rest of the log in `appends - 1` equal appends."""
    rest = total - backlog
    return [backlog] + [backlog + rest * (k + 1) // (appends - 1)
                        for k in range(appends - 1)]


def live_stream(w: Workload, a: dict) -> list:
    """In-memory record stream for live-daily: (is_event, record) pairs."""
    from riskwatch.core import OutcomeRecord, PredictionEvent, TimeIndex

    period, prob, action, y, loss, lm, la = _columns(a)
    return [(True, PredictionEvent(event_id=f"ev-{i:06d}",
                                   time=TimeIndex(period[i], i),
                                   predicted_prob=prob[i], action_id=action[i],
                                   model_version="frozen-v1"))
            if is_event else
            (False, OutcomeRecord(event_id=f"ev-{i:06d}", outcome=y[i],
                                  loss=loss[i], alt_losses=(lm[i], la[i])))
            for is_event, i in _arrival_order(len(period), w.lag)]


def prepare(w: Workload, seed: int, rundir: str) -> dict:
    """Build the run's inputs in rundir; returns their digest."""
    digest = hashlib.sha256()
    if w.kind == "simulate":
        doc = {"scenario": asdict(scenario(w, seed))}
        data = json.dumps(doc, indent=2).encode()
        with open(os.path.join(rundir, "scenario.json"), "wb") as fp:
            fp.write(data)
        digest.update(data)
    elif w.kind == "live":
        a = arrays(w, seed)
        for k in sorted(a):
            digest.update(a[k].tobytes())
    else:
        data = "".join(log_lines(w, arrays(w, seed), seed)).encode()
        with open(os.path.join(rundir, "events.ndjson"), "wb") as fp:
            fp.write(data)
        digest.update(data)
    return {"input_sha256": digest.hexdigest()}


# -- timed sections -------------------------------------------------------------
#
# Each returns a dict with the timed section's wall time ("timed_s"), the
# per-call latencies ("calls_s"), the close stalls ("closes_s"), the
# operation counts and the size of the final state.json. `span` opens the
# benchmark's own span around a call into riskwatch (a no-op untraced).


@contextlib.contextmanager
def close_timer():
    """Times MonitorEngine._close_period, the stall inside the ingest call
    that rolls a window over, for workloads that ingest inside the CLI.
    Yields the list the durations are appended to."""
    from riskwatch.monitor import MonitorEngine

    orig, samples, clock = MonitorEngine._close_period, [], time.perf_counter

    def timed_close(engine):
        t0 = clock()
        try:
            return orig(engine)
        finally:
            samples.append(clock() - t0)

    MonitorEngine._close_period = timed_close
    try:
        yield samples
    finally:
        MonitorEngine._close_period = orig


def _cli(span, tracer, argv: list[str]) -> int:
    from riskwatch import cli

    if tracer is not None:
        tracer.context = argv[0]
    with span("cli.main"):
        return cli.main(argv)


def _one_cli_call(argv, outdir, span, tracer) -> dict:
    with close_timer() as closes:
        t0 = time.perf_counter()
        with span("bench.timed"):
            code = _cli(span, tracer, argv + ["--out", outdir])
        elapsed = time.perf_counter() - t0
    return {"timed_s": elapsed, "calls_s": [elapsed], "closes_s": closes,
            "ops": 1, "ops_failed": int(code not in (0, 3)), "exit_codes": [code],
            "state_bytes": os.path.getsize(os.path.join(outdir, "state.json"))}


def run_batch(w, seed, rundir, outdir, engine, span, tracer) -> dict:
    return _one_cli_call(["monitor", "--in", os.path.join(rundir, "events.ndjson")],
                         outdir, span, tracer)


def run_simulate(w, seed, rundir, outdir, engine, span, tracer) -> dict:
    return _one_cli_call(["simulate", "--scenario",
                          os.path.join(rundir, "scenario.json")], outdir, span, tracer)


def run_resume(w, seed, rundir, outdir, engine, span, tracer,
               lines=None) -> dict:
    """Hourly checkpointed CLI calls on a growing log, w.appends in all.

    The job is switched on once the log holds its first closed window (a
    month's backlog); the rest of the log arrives in w.appends - 1 equal
    appends, with a call on the backlog and one after each append.
    Starting earlier would make the first calls hit a known defect that
    open_window_probe measures on its own in every run: `monitor
    --no-finalize` with no closed window exits 2 and saves no state.
    `lines` replaces the log's lines (the self-tests drop one this way).
    """
    if lines is None:
        with open(os.path.join(rundir, "events.ndjson"), encoding="utf-8") as fp:
            lines = fp.readlines()
    bounds = append_bounds(len(lines), first_close(w, arrays(w, seed), lines),
                           w.appends)
    log = os.path.join(outdir, "events.ndjson")
    state = os.path.join(outdir, "state.json")
    os.makedirs(outdir, exist_ok=True)
    open(log, "w").close()
    calls, codes = [], []
    done = 0
    with close_timer() as closes:
        t0 = time.perf_counter()
        with span("bench.timed"):
            for k, end in enumerate(bounds):
                with open(log, "a", encoding="utf-8") as fp:
                    fp.writelines(lines[done:end])
                done = end
                last = k == w.appends - 1
                if os.path.exists(state):
                    argv = ["replay", "--snapshot", state]
                else:
                    argv = ["monitor"]
                argv += ["--in", log, "--out", outdir]
                if not last:
                    argv.append("--no-finalize")
                c0 = time.perf_counter()
                codes.append(_cli(span, tracer, argv))
                calls.append(time.perf_counter() - c0)
        elapsed = time.perf_counter() - t0
    return {"timed_s": elapsed, "calls_s": calls, "closes_s": closes,
            "ops": len(codes),
            "ops_failed": sum(c not in (0, 3) for c in codes),
            "exit_codes": codes,
            "state_bytes": os.path.getsize(state)}


def run_live(w, seed, rundir, outdir, engine, span, tracer) -> dict:
    """Feed in-memory records to the set-up engine, one call per record.

    A close is the ingest call during which a new snapshot appears (the
    observe_outcome that rolls the window over), plus finalize.
    """
    import io

    from riskwatch import eventlog

    stream = live_stream(w, arrays(w, seed))
    snapshots = engine.snapshots
    observe = (engine.observe_outcome, engine.observe_event)
    clock = time.perf_counter
    calls, closes = [], []
    seen = 0
    t0 = clock()
    with span("bench.timed"):
        for is_event, record in stream:
            c0 = clock()
            observe[is_event](record)
            dt = clock() - c0
            calls.append(dt)
            if len(snapshots) != seen:
                seen = len(snapshots)
                closes.append(dt)
        c0 = clock()
        engine.finalize()
        dt = clock() - c0
        calls.append(dt)
        closes.append(dt)
    elapsed = clock() - t0

    os.makedirs(outdir, exist_ok=True)
    rows = [{"period": s.time.period, "n": s.n,
             **{f: getattr(s, f) for f in s.METRIC_FIELDS}} for s in snapshots]
    with open(os.path.join(outdir, "snapshots.json"), "w") as fp:
        json.dump(rows, fp)
    buf = io.StringIO()
    eventlog.save_snapshot(engine, buf)
    return {"timed_s": elapsed, "calls_s": calls, "closes_s": closes,
            "ops": len(calls), "ops_failed": 0, "exit_codes": [],
            "state_bytes": len(buf.getvalue().encode())}


# -- known defects ---------------------------------------------------------------

PROBE_EVENTS = 100


def open_window_probe(w, seed, rundir) -> dict:
    """Measures a known defect outside the timed workloads: `monitor
    --no-finalize` over a log whose first window is still open (the first
    PROBE_EVENTS events of the run's first period, each outcome right after
    its event). The report step raises EmptyReport before the snapshot is
    saved, so the call exits 2 and writes no state.json: a checkpointing
    job cannot start on a log before its first window has closed."""
    from riskwatch import cli

    a = arrays(w, seed)
    sel = a["period"] == a["period"][0]
    first = {k: v[sel][:PROBE_EVENTS] for k, v in a.items()}
    outdir = os.path.join(rundir, "open-window-probe")
    os.makedirs(outdir, exist_ok=True)
    log = os.path.join(outdir, "events.ndjson")
    with open(log, "w", encoding="utf-8") as fp:
        fp.writelines(log_lines(replace(w, lag=0, bad_every=0), first, seed))
    code = cli.main(["monitor", "--in", log, "--out", outdir, "--no-finalize"])
    return {"exit_code": code,
            "state_lost": int(not os.path.exists(os.path.join(outdir, "state.json")))}


RUNNERS = {"batch": run_batch, "live": run_live, "resume": run_resume,
           "simulate": run_simulate}
