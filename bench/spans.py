"""Span tracer for the traced run.

Spans are recorded from the benchmark's own files, by wrapping riskwatch
functions where their callers look them up: ``riskwatch.monitor.auc``,
not ``riskwatch.calibration.auc``. Nothing inside riskwatch changes.

Each span stores its name, start, end and parent span in flat arrays
kept in memory; they are written out when the child ends. A layer's self
time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import inspect
import logging
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.context = ""            # the CLI subcommand being run
        self.timed = False           # inside the timed section

    def count(self, key: str, n: int) -> None:
        """Add to a work counter; work outside the timed section is not
        the workload's (input building, the final state size)."""
        if self.timed:
            self.counts[key] += n

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(self._nid(name))
        self.timed |= name == "bench.timed"
        try:
            yield
        finally:
            self._close(i)
            self.timed &= name != "bench.timed"

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    # -- instrumentation --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr by a function that records a span per call.

        after(args, kwargs, result) runs once the call returns, to count
        the work it did.
        """
        static = inspect.getattr_static(owner, attr)
        fn = getattr(owner, attr)
        nid, opn, cls = self._nid(name), self._open, self._close

        def traced(*args, **kwargs):
            i = opn(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                cls(i)
            if after is not None:
                after(args, kwargs, result)
            return result

        # a classmethod comes back bound to its class; keep it bound
        setattr(owner, attr,
                staticmethod(traced) if isinstance(static, classmethod) else traced)

    def wrap_generator(self, owner, attr: str, name: str, count: str) -> None:
        """Like wrap, for a generator function: one span per item pulled,
        so the time is charged where the caller's loop pulls it. Counts
        the lines fed in as `<count>.lines` and items out as `<count>.records`."""
        fn = getattr(owner, attr)
        nid, opn, cls = self._nid(name), self._open, self._close

        def traced(lines, *args, **kwargs):
            def counted(lines):
                n = 0
                for line in lines:
                    n += 1
                    yield line
                self.count(count + ".lines", n)

            gen = fn(counted(lines), *args, **kwargs)
            n = 0
            try:
                while True:
                    i = opn(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        cls(i)
                    n += 1
                    yield item
            finally:
                self.count(count + ".records", n)
                self.count(f"{self.context}:{count}.records", n)

        setattr(owner, attr, traced)

    # -- results ----------------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: total duration, self time and number of spans,
        over the spans inside the timed section ("bench.timed")."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int32)
        # spans are stored in opening order, so the spans opened while a
        # timed span was open follow it directly
        index = np.arange(start.size)
        inside = np.zeros(start.size, dtype=bool)
        for i in np.flatnonzero(name == self._ids.get("bench.timed", -1)):
            inside |= (index >= i) & (start <= end[i])
        dur = np.where(inside, end - start, 0.0)
        has_parent = inside & (parent >= 0)
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        self_time = dur - covered
        k = len(self.names)
        totals = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=self_time, minlength=k)
        calls = np.bincount(name[inside], minlength=k)
        return {n: {"s": float(totals[j]), "self_s": float(selfs[j]),
                    "calls": int(calls[j])} for j, n in enumerate(self.names)}

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 parent=np.frombuffer(self.parent, dtype=np.int64))


class WarningCounter(logging.Handler):
    """Counts riskwatch's skip warnings by kind, per CLI subcommand.

    The engine rejects a re-fed record as a duplicate (DuplicateOutcome,
    or a ValueError naming a duplicate event_id); feed_engine logs each
    rejection, so counting those log records counts re-fed records.
    """

    def __init__(self, tracer: Tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        from riskwatch.errors import DuplicateOutcome

        tracer = self.tracer
        if record.msg.startswith("event log line"):
            tracer.count("eventlog.read_log.skipped", 1)
        elif record.msg.startswith("record for"):
            tracer.count("eventlog.feed_engine.skipped", 1)
            exc = record.args[1]
            if isinstance(exc, DuplicateOutcome) or "duplicate event_id" in str(exc):
                tracer.count(f"{tracer.context}:refed", 1)


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics name."""
    import json

    from riskwatch import cli, eventlog, monitor, regret, simulator

    def add(key, fn):
        def after(args, kwargs, result):
            tracer.count(key, fn(args, kwargs, result))
        return after

    engine = monitor.MonitorEngine
    tracer.wrap(simulator, "generate_arrays", "simulator.generate_arrays")
    tracer.wrap(cli, "generate", "simulator.generate",
                after=add("simulator.generate.records",
                          lambda a, k, out: len(out.events) + len(out.outcomes)))
    tracer.wrap(eventlog, "write_log", "eventlog.write_log",
                after=add("eventlog.write_log.lines", lambda a, k, lines: lines))
    tracer.wrap_generator(eventlog, "read_log", "eventlog.read_log",
                          count="eventlog.read_log")

    eventlog.json = _JsonProxy(json)
    tracer.wrap(eventlog.json, "loads", "eventlog.read_log.json")
    _wrap_feed(tracer, eventlog)
    tracer.wrap(engine, "observe_event", "monitor.observe_event")
    tracer.wrap(engine, "observe_outcome", "monitor.observe_outcome")
    tracer.wrap(engine, "finalize", "monitor.finalize")
    tracer.wrap(engine, "_close_period", "monitor.close")
    for attr, name in (("ece", "calibration.ece"), ("brier", "calibration.brier"),
                       ("auc", "calibration.auc"), ("var", "tailrisk.var"),
                       ("cvar_tail", "tailrisk.cvar_tail"),
                       ("evaluate", "alarms.evaluate")):
        tracer.wrap(monitor, attr, name)
    drift_args = inspect.signature(monitor.belief_mod.drift_score)

    def draws(args, kwargs, out):
        bound = drift_args.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments.get("samples", 0)

    tracer.wrap(monitor.belief_mod, "drift_score", "belief.drift_score",
                after=add("belief.drift_score.draws", draws))
    tracer.wrap(eventlog, "save_snapshot", "eventlog.save_snapshot",
                after=add("eventlog.save_snapshot.bytes",
                          lambda a, k, out: a[1].tell()))
    tracer.wrap(eventlog, "load_snapshot", "eventlog.load_snapshot")
    tracer.wrap(engine, "to_state", "monitor.to_state")
    tracer.wrap(engine, "from_state", "monitor.from_state")
    tracer.wrap(eventlog, "emit_report", "eventlog.emit_report")
    tracer.wrap(eventlog, "engine_from_config", "eventlog.engine_from_config")
    # regret.py is on no workload's path (_close_period computes regret
    # inline); its public functions are wrapped so the count shows that
    for attr in ("cumulative_regret", "best_fixed_action_regret", "safety_exposure"):
        tracer.wrap(regret, attr, "regret." + attr)

    logging.getLogger("riskwatch").addHandler(WarningCounter(tracer))


def _wrap_feed(tracer: Tracer, eventlog) -> None:
    """feed_engine, counting the records it is fed per subcommand."""
    fn = eventlog.feed_engine

    def counted(records):
        n = 0
        for record in records:
            n += 1
            yield record
        tracer.count(f"{tracer.context}:fed", n)

    def feed_engine(engine, records, *args, **kwargs):
        return fn(engine, counted(records), *args, **kwargs)

    eventlog.feed_engine = feed_engine
    tracer.wrap(eventlog, "feed_engine", "eventlog.feed_engine")


class _JsonProxy:
    """Stands in for the json module inside eventlog, so that its loads
    (called only by read_log) can be traced alone."""

    def __init__(self, real):
        self._real = real
        self.loads = real.loads

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced child."""
    t, c = tracer.layer_times(), tracer.counts

    def get(name, q="s"):
        return t.get(name, {}).get(q, 0)

    parsed = c["replay:eventlog.read_log.records"]
    fed = c["replay:fed"]
    m = {
        "simulator.generate_arrays.s": get("simulator.generate_arrays"),
        "simulator.generate.self_s": get("simulator.generate", "self_s"),
        "simulator.generate.records": c["simulator.generate.records"],
        "eventlog.write_log.s": get("eventlog.write_log"),
        "eventlog.write_log.lines": c["eventlog.write_log.lines"],
        "eventlog.read_log.s": get("eventlog.read_log"),
        "eventlog.read_log.json_s": get("eventlog.read_log.json"),
        "eventlog.read_log.lines": c["eventlog.read_log.lines"],
        "eventlog.read_log.records": c["eventlog.read_log.records"],
        "eventlog.read_log.skipped": c["eventlog.read_log.skipped"],
        "eventlog.feed_engine.self_s": get("eventlog.feed_engine", "self_s"),
        "eventlog.feed_engine.skipped": c["eventlog.feed_engine.skipped"],
        "monitor.observe_event.s": get("monitor.observe_event"),
        "monitor.observe_event.calls": get("monitor.observe_event", "calls"),
        "monitor.observe_outcome.self_s": get("monitor.observe_outcome", "self_s"),
        "monitor.observe_outcome.calls": get("monitor.observe_outcome", "calls"),
        "monitor.finalize.self_s": get("monitor.finalize", "self_s"),
        "monitor.close.s": get("monitor.close"),
        "monitor.close.self_s": get("monitor.close", "self_s"),
        "monitor.close.count": get("monitor.close", "calls"),
        "calibration.ece.s": get("calibration.ece"),
        "calibration.brier.s": get("calibration.brier"),
        "calibration.auc.s": get("calibration.auc"),
        "tailrisk.var.s": get("tailrisk.var"),
        "tailrisk.cvar_tail.s": get("tailrisk.cvar_tail"),
        "belief.drift_score.s": get("belief.drift_score"),
        "belief.drift_score.draws": c["belief.drift_score.draws"],
        "alarms.evaluate.s": get("alarms.evaluate"),
        "eventlog.save_snapshot.s": get("eventlog.save_snapshot"),
        "eventlog.save_snapshot.bytes": c["eventlog.save_snapshot.bytes"],
        "eventlog.load_snapshot.s": get("eventlog.load_snapshot"),
        "monitor.to_state.s": get("monitor.to_state"),
        "monitor.from_state.s": get("monitor.from_state"),
        "eventlog.emit_report.s": get("eventlog.emit_report"),
        "eventlog.engine_from_config.s": get("eventlog.engine_from_config"),
        "cli.replay.parsed_records": parsed,
        "cli.replay.fed_records": fed,
        "cli.replay.useful_ratio": fed / parsed if parsed else 0.0,
        "cli.replay.refed_records": c["replay:refed"],
        "regret.calls": sum(get(n, "calls") for n in t if n.startswith("regret.")),
        "cli.main.self_s": get("cli.main", "self_s"),
        "bench.self_s": get("bench.timed", "self_s"),
        "trace.timed_s": get("bench.timed"),
    }
    return m


def module_self_times(tracer: Tracer) -> dict[str, float]:
    """Self time per top-level layer (the module a span's name starts
    with); by construction they add up to the traced timed section."""
    out: dict[str, float] = {}
    for name, t in tracer.layer_times().items():
        module = name.split(".")[0]
        out[module] = out.get(module, 0.0) + t["self_s"]
    return out
