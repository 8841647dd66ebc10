"""Command-line front end.

Subcommands::

    riskwatch simulate --scenario canonical --seed 42 --out run/
    riskwatch monitor  --in run/events.ndjson --out run/ [--policy cfg.json]
    riskwatch replay   --snapshot run/state.json --in run/events.ndjson
    riskwatch report   --in run/state.json --format json
    riskwatch --print-defaults

Exit codes: 0 success, 1 usage error, 2 data or config error, 3 success
but the alarm machine did not end in the normal state (a machine-readable
safety signal for pipelines that gate on the monitor).

A config file passed via --policy / --scenario, or named by the
RISKWATCH_CONFIG environment variable, overrides the built-in defaults
printed by --print-defaults.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, replace

from . import eventlog
from .alarms import OperatingState
from .errors import RiskwatchError, UnknownPreset
from .monitor import MonitorEngine
from .simulator import ScenarioConfig, drive_engine, generate, preset, preset_names

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ALARM = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the documented usage code is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="riskwatch",
        description="Streaming risk monitoring for deployed prediction models.",
    )
    parser.add_argument(
        "--print-defaults",
        action="store_true",
        help="print the full default config document as JSON and exit",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log progress to stderr"
    )
    sub = parser.add_subparsers(dest="command")

    sim = sub.add_parser("simulate", help="generate a synthetic deployment")
    sim.add_argument(
        "--scenario",
        default="canonical",
        help="scenario name (%s) or a config file path"
        % ", ".join(("canonical",) + preset_names()),
    )
    sim.add_argument("--seed", type=int, default=None, help="override scenario seed")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument(
        "--replicates", type=int, default=1,
        help="run N seeds (seed, seed+1, ...), one subdirectory each",
    )
    sim.add_argument("--format", choices=("csv", "json"), default="csv")

    mon = sub.add_parser("monitor", help="run the monitoring pipeline over a log")
    mon.add_argument("--in", dest="log", required=True,
                     help="event log path, or - for stdin")
    mon.add_argument("--policy", default=None, help="config file with thresholds")
    mon.add_argument("--out", default=None,
                     help="output directory (default: report to stdout)")
    mon.add_argument("--format", choices=("csv", "json"), default="csv")
    mon.add_argument("--strict", action="store_true",
                     help="abort on the first malformed log line")
    mon.add_argument(
        "--no-finalize", action="store_true",
        help="leave the trailing period open so the run can be resumed "
             "with replay once the log has grown (report covers closed "
             "periods only)",
    )

    rep = sub.add_parser("replay", help="resume a snapshot against its log")
    rep.add_argument("--snapshot", required=True, help="engine snapshot file")
    rep.add_argument("--in", dest="log", required=True,
                     help="the full original event log; the lines the snapshot "
                          "consumed are skipped undecoded")
    rep.add_argument("--out", default=None,
                     help="output directory (default: report to stdout)")
    rep.add_argument("--format", choices=("csv", "json"), default="csv")
    rep.add_argument("--strict", action="store_true",
                     help="abort on the first malformed log line")
    rep.add_argument(
        "--no-finalize", action="store_true",
        help="leave the trailing period open for a later replay",
    )

    report = sub.add_parser("report", help="re-emit the report from a snapshot")
    report.add_argument("--in", dest="snapshot", required=True,
                        help="engine snapshot file")
    report.add_argument("--format", choices=("csv", "json"), default="csv")
    report.add_argument("--out", default=None,
                        help="output file (default: stdout)")

    return parser


# -- helpers -------------------------------------------------------------------


def _resolve_scenario(name_or_path: str, seed: int | None) -> tuple[ScenarioConfig, dict]:
    """Scenario plus the config document that goes with it."""
    config = eventlog.load_config(None)  # defaults / RISKWATCH_CONFIG
    if name_or_path == "canonical" or name_or_path in preset_names():
        scenario = preset("sepsis_drift" if name_or_path == "canonical"
                          else name_or_path)
    elif os.path.exists(name_or_path):
        config = eventlog.load_config(name_or_path)
        scenario = eventlog.scenario_from_config(config)
    else:
        raise UnknownPreset(
            f"{name_or_path!r} is not a scenario name "
            f"({', '.join(('canonical',) + preset_names())}) or a config file"
        )
    if seed is not None:
        scenario = replace(scenario, seed=seed)
    config["scenario"] = asdict(scenario)
    return scenario, config


def _engine_exit_code(engine: MonitorEngine) -> int:
    return EXIT_OK if engine.alarm.state is OperatingState.NORMAL else EXIT_ALARM


def _write_outputs(engine: MonitorEngine, out_dir: str | None, fmt: str) -> None:
    """State snapshot + report into a directory, or report to stdout.

    The snapshot is saved first: a run with no closed period yet has no
    report (EmptyReport) but must still leave its checkpoint.
    """
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        eventlog.save_snapshot_file(engine, os.path.join(out_dir, "state.json"))
    text = eventlog.emit_report(engine.snapshots, engine.alarm.history, fmt=fmt)
    if out_dir is None:
        sys.stdout.write(text)
        return
    with open(os.path.join(out_dir, f"report.{fmt}"), "w", encoding="utf-8") as fp:
        fp.write(text)


def _read_log_lines(path: str):
    if path == "-":
        return sys.stdin
    return open(path, "r", encoding="utf-8")


# -- subcommands ---------------------------------------------------------------


def _cmd_simulate(args) -> int:
    if args.replicates < 1:
        sys.stderr.write("riskwatch simulate: error: --replicates must be >= 1\n")
        return EXIT_USAGE
    scenario, config = _resolve_scenario(args.scenario, args.seed)
    base_seed = scenario.seed
    summary = []
    for i in range(args.replicates):
        seeded = replace(scenario, seed=base_seed + i)
        out_dir = (args.out if args.replicates == 1
                   else os.path.join(args.out, f"seed-{seeded.seed}"))
        os.makedirs(out_dir, exist_ok=True)

        output = generate(seeded)
        with open(os.path.join(out_dir, "events.ndjson"), "w",
                  encoding="utf-8") as fp:
            lines = eventlog.write_log(fp, output.events, output.outcomes)

        engine = drive_engine(eventlog.engine_from_config(config), output)
        engine.lines_consumed = lines  # as if monitor had read the log
        _write_outputs(engine, out_dir, args.format)

        config["scenario"] = asdict(seeded)
        with open(os.path.join(out_dir, "config.json"), "w",
                  encoding="utf-8") as fp:
            json.dump(config, fp, indent=2)
            fp.write("\n")

        summary.append({
            "seed": seeded.seed,
            "periods": len(engine.snapshots),
            "end_state": engine.alarm.state.value,
            "first_breach_period": next(
                (rec.time.period for rec in engine.alarm.history if rec.breached),
                None,
            ),
        })
        logger.info("simulate: seed %d done, end state %s",
                    seeded.seed, engine.alarm.state.value)
    if args.replicates > 1:
        with open(os.path.join(args.out, "summary.json"), "w",
                  encoding="utf-8") as fp:
            json.dump(sorted(summary, key=lambda r: r["seed"]), fp, indent=2)
            fp.write("\n")
    return EXIT_OK


def _run_over_log(engine: MonitorEngine, args) -> int:
    """Feed the engine the log lines it has not consumed, then write out.

    A fresh engine has consumed none; a resumed one skips its snapshot's
    lines. --no-finalize leaves the open period, and a final line with no
    newline, for a later replay.
    """
    fp = _read_log_lines(args.log)
    try:
        first_line = engine.lines_consumed + 1
        lines = eventlog.unread_lines(fp, engine, hold_partial=args.no_finalize)
        eventlog.feed_engine(
            engine,
            eventlog.read_log(lines, strict=args.strict, first_line=first_line),
            strict=args.strict,
        )
    finally:
        if fp is not sys.stdin:
            fp.close()
    if not args.no_finalize:
        engine.finalize()
    _write_outputs(engine, args.out, args.format)
    return _engine_exit_code(engine)


def _cmd_monitor(args) -> int:
    config = eventlog.load_config(args.policy)
    return _run_over_log(eventlog.engine_from_config(config), args)


def _cmd_replay(args) -> int:
    return _run_over_log(eventlog.load_snapshot_file(args.snapshot), args)


def _cmd_report(args) -> int:
    engine = eventlog.load_snapshot_file(args.snapshot)
    text = eventlog.emit_report(engine.snapshots, engine.alarm.history,
                                fmt=args.format)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(text)
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "monitor": _cmd_monitor,
    "replay": _cmd_replay,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # --help exits 0; usage errors come through as EXIT_USAGE
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )

    if args.print_defaults:
        print(json.dumps(eventlog.default_config(), indent=2))
        return EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        sys.stderr.write("riskwatch: error: a subcommand is required\n")
        return EXIT_USAGE

    try:
        return _COMMANDS[args.command](args)
    except RiskwatchError as exc:
        sys.stderr.write(f"riskwatch {args.command}: error: {exc}\n")
        return EXIT_DATA
    except OSError as exc:
        sys.stderr.write(f"riskwatch {args.command}: error: {exc}\n")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
