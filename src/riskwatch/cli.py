"""Command-line front end.

Subcommands::

    riskwatch simulate [--scenario icu_tail|cfg.json] --seed 42 --out run/
    riskwatch monitor  --in run/events.ndjson --out run/ [--policy cfg.json]
    riskwatch replay   --snapshot run/state.json --in run/events.ndjson
    riskwatch report   --in run/state.json --format json
    riskwatch --print-defaults

Exit codes: 0 success, 1 usage error, 2 data or config error, 3 success
but the alarm machine did not end in the normal state (a machine-readable
safety signal for pipelines that gate on the monitor).

A run reads every setting from one config document, merged over the
defaults --print-defaults prints: the file --policy or --scenario names,
else the one RISKWATCH_CONFIG names. A --scenario naming no existing path
is a preset name, which replaces only the document's scenario section.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, replace
from itertools import chain

from . import eventlog
from .alarms import OperatingState, breach
from .errors import RiskwatchError
from .monitor import MonitorEngine
from .simulator import ScenarioConfig, preset, scenario_pairs
from .simulator import generate  # noqa: F401  (not called; bench/spans.py traces it here)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ALARM = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    # the options every subcommand that writes a report shares, and those
    # of the two that run the engine over a log
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "json"), default="csv")
    run = argparse.ArgumentParser(add_help=False, parents=[fmt])
    run.add_argument("--out", default=None,
                     help="output directory (default: report to stdout)")
    run.add_argument("--strict", action="store_true",
                     help="abort on the first malformed log line")
    run.add_argument(
        "--no-finalize", action="store_true",
        help="leave the trailing period open so the run can be resumed "
             "with replay once the log has grown (report covers closed "
             "periods only, and is not written before the first close)",
    )

    sim = sub.add_parser("simulate", parents=[fmt],
                         help="generate a synthetic deployment")
    sim.add_argument(
        "--scenario",
        help="a config file path, read in place of RISKWATCH_CONFIG, or a "
             "preset name such as icu_tail, which replaces the config's "
             "scenario section (default: the config's scenario section)",
    )
    sim.add_argument("--seed", type=int, default=None, help="override scenario seed")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument(
        "--replicates", type=int, default=1,
        help="run N seeds (seed, seed+1, ...), one subdirectory each",
    )

    mon = sub.add_parser("monitor", parents=[run],
                         help="run the monitoring pipeline over a log")
    mon.add_argument("--in", dest="log", required=True,
                     help="event log path, or - for stdin")
    mon.add_argument("--policy", default=None, help="config file with thresholds")

    rep = sub.add_parser("replay", parents=[run],
                         help="resume a snapshot against its log")
    rep.add_argument("--snapshot", required=True, help="engine snapshot file")
    rep.add_argument("--in", dest="log", required=True,
                     help="the full original event log; the lines the snapshot "
                          "consumed are skipped undecoded")

    report = sub.add_parser("report", parents=[fmt],
                            help="re-emit the report from a snapshot")
    report.add_argument("--in", dest="snapshot", required=True,
                        help="engine snapshot file")
    report.add_argument("--out", default=None,
                        help="output file (default: stdout)")

    return parser


# -- helpers -------------------------------------------------------------------


def _resolve_scenario(arg: str | None, seed: int | None) -> tuple[ScenarioConfig, dict]:
    """Scenario plus the config document it was read from: the file arg
    names, else RISKWATCH_CONFIG or the defaults, whose scenario section a
    preset name replaces."""
    is_path = arg is not None and os.path.exists(arg)
    config = eventlog.load_config(arg if is_path else None)
    if arg is not None and not is_path:
        config["scenario"] = asdict(preset(arg))
    scenario = eventlog.scenario_from_config(config)
    return (scenario if seed is None else replace(scenario, seed=seed)), config


def _write_outputs(engine: MonitorEngine, out_dir: str | None, fmt: str,
                   finalized: bool = True) -> None:
    """State snapshot + report into a directory, or report to stdout.

    The snapshot is saved first. A checkpoint taken before the first close
    (not finalized) has no report yet and writes none; a finalized run with
    no closed period has none either, which raises EmptyReport.
    """
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        eventlog.save_snapshot_file(engine, os.path.join(out_dir, "state.json"))
    if engine.snapshots or finalized:
        _write_report(engine, fmt,
                      None if out_dir is None else os.path.join(out_dir, f"report.{fmt}"))


def _write_report(engine: MonitorEngine, fmt: str, path: str | None) -> None:
    """The engine's report into the file at path, or to stdout."""
    text = eventlog.emit_report(engine.snapshots, engine.alarm.history, fmt=fmt)
    if path is None:
        sys.stdout.write(text)
        return
    eventlog.write_file(path, lambda fp: fp.write(text))


def _write_json(path: str, doc) -> None:
    eventlog.write_file(path, lambda fp: fp.write(json.dumps(doc, indent=2) + "\n"))


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
        # the first period is drawn before any file is made, so a missing
        # extra is refused with nothing written
        pairs = iter(scenario_pairs(seeded))
        first = next(pairs)
        os.makedirs(out_dir, exist_ok=True)

        engine = eventlog.engine_from_config(config)
        eventlog.write_file(
            os.path.join(out_dir, "events.ndjson"),
            lambda fp: eventlog.log_pairs(fp, engine, chain([first], pairs)))
        engine.finalize()
        _write_outputs(engine, out_dir, args.format)

        config["scenario"] = asdict(seeded)
        _write_json(os.path.join(out_dir, "config.json"), config)

        summary.append({
            "seed": seeded.seed,
            "periods": len(engine.snapshots),
            "end_state": engine.alarm.state.value,
            "first_breach_period": next(
                (snap.time.period for snap in engine.snapshots
                 if breach(snap, engine.policy)[1]), None),
        })
        logger.info("simulate: seed %d done, end state %s",
                    seeded.seed, engine.alarm.state.value)
    if args.replicates > 1:
        _write_json(os.path.join(args.out, "summary.json"),
                    sorted(summary, key=lambda r: r["seed"]))
    return EXIT_OK


def _run_over_log(engine: MonitorEngine, args) -> int:
    """Feed the engine the log lines it has not consumed, then write out.

    A fresh engine has consumed none; a resumed one skips its snapshot's
    lines. --no-finalize leaves the open period, and a final line with no
    newline, for a later replay.
    """
    with eventlog.open_log(args.log) as fp:
        eventlog.ingest_log(engine, fp, strict=args.strict,
                            hold_partial=args.no_finalize)
    if not args.no_finalize:
        engine.finalize()
    _write_outputs(engine, args.out, args.format, finalized=not args.no_finalize)
    return EXIT_OK if engine.alarm.state is OperatingState.NORMAL else EXIT_ALARM


def _cmd_monitor(args) -> int:
    config = eventlog.load_config(args.policy)
    return _run_over_log(eventlog.engine_from_config(config), args)


def _cmd_replay(args) -> int:
    return _run_over_log(eventlog.load_snapshot_file(args.snapshot), args)


def _cmd_report(args) -> int:
    _write_report(eventlog.load_snapshot_file(args.snapshot), args.format, args.out)
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
        if args.command is None and not args.print_defaults:
            parser.error("a subcommand is required")
    except SystemExit as exc:  # argparse exits 0 on --help, 2 on a usage error
        return EXIT_USAGE if exc.code else EXIT_OK

    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )

    if args.print_defaults:
        print(json.dumps(eventlog.default_config(), indent=2))
        return EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (RiskwatchError, OSError) as exc:
        sys.stderr.write(f"riskwatch {args.command}: error: {exc}\n")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
