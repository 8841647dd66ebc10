"""Log, snapshot, report and config serialization.

Event logs are newline-delimited JSON, one record per line, two kinds::

    {"kind": "prediction", "event_id": "ev-000001", "period": 1, "seq": 0,
     "prob": 0.12, "action": 0, "model_version": "frozen-v1", "cohort": null}
    {"kind": "outcome", "event_id": "ev-000001", "y": 0, "loss": 0.02,
     "alt_losses": [0.02, 0.07]}

action, cohort and alt_losses are optional. Ingest is lenient by default
(malformed lines are counted and logged with their line number, parsing
continues) and strict on request (first bad line raises ParseError or
SchemaError carrying the line number).

A log is addressed by line: an engine carries the number of log lines
behind its state, and a resumed run skips that many lines undecoded
(unread_lines) and numbers the rest from there.

Engine snapshots are single JSON documents wrapping the engine state with
a format version and a sha256 checksum over the canonically serialized
state, so a truncated or hand-edited file is rejected instead of silently
resuming from garbage.

Reports are flat tables, CSV or JSON, one row per closed period, with a
fixed column order. Undefined metrics serialize as empty cells (CSV) or
null (JSON). Floats are written with repr so emit -> read -> emit is
byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import os
from dataclasses import asdict
from itertools import islice
from typing import IO, Iterable, Iterator, Sequence

from .alarms import AlarmRecord, ThresholdPolicy
from .core import MetricSnapshot, OutcomeRecord, PredictionEvent, TimeIndex
from .errors import (
    BadConfig,
    CorruptSnapshot,
    DuplicateOutcome,
    EmptyReport,
    OrphanOutcome,
    ParseError,
    SchemaError,
    TruncatedLog,
    VersionMismatch,
)
from .monitor import ENGINE_DEFAULTS, MonitorEngine
from .simulator import ScenarioConfig

logger = logging.getLogger(__name__)

SNAPSHOT_FORMAT_VERSION = 1

CONFIG_ENV_VAR = "RISKWATCH_CONFIG"

REPORT_COLUMNS = (
    "period",
    "n",
    "auc",
    "ece",
    "brier",
    "var",
    "cvar",
    "regret_cumulative",
    "regret_rate",
    "posterior_mean",
    "drift_score",
    "alarm_state",
)

_FLOAT_COLUMNS = frozenset(REPORT_COLUMNS) - {"period", "n", "alarm_state"}


# -- event log ---------------------------------------------------------------


def event_to_record(event: PredictionEvent) -> dict:
    return {
        "kind": "prediction",
        "event_id": event.event_id,
        "period": event.time.period,
        "seq": event.time.sequence,
        "prob": event.predicted_prob,
        "action": event.action_id,
        "model_version": event.model_version,
        "cohort": event.cohort,
    }


def outcome_to_record(outcome: OutcomeRecord) -> dict:
    rec = {
        "kind": "outcome",
        "event_id": outcome.event_id,
        "y": outcome.outcome,
        "loss": outcome.loss,
    }
    if outcome.alt_losses is not None:
        rec["alt_losses"] = list(outcome.alt_losses)
    return rec


def write_log(
    fp: IO[str],
    events: Sequence[PredictionEvent],
    outcomes: Sequence[OutcomeRecord],
) -> int:
    """Write an interleaved ndjson log: each prediction line is followed
    immediately by its outcome line when one exists. Returns lines written."""
    by_id = {o.event_id: o for o in outcomes}
    lines = 0
    for event in events:
        fp.write(json.dumps(event_to_record(event)) + "\n")
        lines += 1
        outcome = by_id.pop(event.event_id, None)
        if outcome is not None:
            fp.write(json.dumps(outcome_to_record(outcome)) + "\n")
            lines += 1
    for orphan in by_id.values():
        fp.write(json.dumps(outcome_to_record(orphan)) + "\n")
        lines += 1
    return lines


def _require(record: dict, field: str, line_number: int):
    if field not in record:
        raise SchemaError(f"missing field {field!r}", line_number=line_number)
    return record[field]


def _as_float(value, field: str, line_number: int) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(
            f"field {field!r} must be a number, got {value!r}", line_number=line_number
        )
    out = float(value)
    if not math.isfinite(out):
        raise SchemaError(
            f"field {field!r} must be finite, got {value!r}", line_number=line_number
        )
    return out


def _as_int(value, field: str, line_number: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(
            f"field {field!r} must be an integer, got {value!r}",
            line_number=line_number,
        )
    return value


def _parse_record(record: dict, line_number: int) -> PredictionEvent | OutcomeRecord:
    kind = _require(record, "kind", line_number)
    try:
        if kind == "prediction":
            action = record.get("action")
            return PredictionEvent(
                event_id=str(_require(record, "event_id", line_number)),
                time=TimeIndex(
                    period=_as_int(_require(record, "period", line_number),
                                   "period", line_number),
                    sequence=_as_int(_require(record, "seq", line_number),
                                     "seq", line_number),
                ),
                predicted_prob=_as_float(_require(record, "prob", line_number),
                                         "prob", line_number),
                action_id=None if action is None
                else _as_int(action, "action", line_number),
                model_version=str(record.get("model_version", "unversioned")),
                cohort=record.get("cohort"),
            )
        if kind == "outcome":
            alts = record.get("alt_losses")
            if alts is not None:
                if not isinstance(alts, list):
                    raise SchemaError(
                        "field 'alt_losses' must be a list",
                        line_number=line_number,
                    )
                alts = tuple(
                    _as_float(x, "alt_losses", line_number) for x in alts
                )
            return OutcomeRecord(
                event_id=str(_require(record, "event_id", line_number)),
                outcome=_as_int(_require(record, "y", line_number),
                                "y", line_number),
                loss=_as_float(_require(record, "loss", line_number),
                               "loss", line_number),
                alt_losses=alts,
            )
    except ValueError as exc:  # dataclass range checks
        raise SchemaError(str(exc), line_number=line_number) from exc
    raise SchemaError(f"unknown record kind {kind!r}", line_number=line_number)


def unread_lines(
    lines: Iterable[str],
    engine: MonitorEngine,
    hold_partial: bool = False,
) -> Iterator[str]:
    """The lines of a log that the engine has not consumed yet.

    The first engine.lines_consumed lines are skipped without being
    decoded; a log with fewer lines raises TruncatedLog. Every line handed
    out advances engine.lines_consumed. With hold_partial, a final line
    with no newline is left unconsumed, since its writer may still be
    appending to it.
    """
    lines = iter(lines)
    consumed = engine.lines_consumed
    present = sum(1 for _ in islice(lines, consumed))
    if present < consumed:
        raise TruncatedLog(
            f"event log has {present} lines but the snapshot consumed "
            f"{consumed}; was it truncated or rotated?"
        )
    for line in lines:
        if hold_partial and not line.endswith("\n"):
            return
        engine.lines_consumed += 1
        yield line


def read_log(
    lines: Iterable[str],
    strict: bool = False,
    first_line: int = 1,
) -> Iterator[PredictionEvent | OutcomeRecord]:
    """Parse an ndjson event log into records, in encounter order.

    Lenient mode (default) skips malformed lines with a logged warning;
    strict mode raises on the first one. Blank lines are always skipped.
    Lines are numbered from first_line, the number of the first line
    given in the whole log.
    """
    skipped = 0
    for line_number, line in enumerate(lines, start=first_line):
        text = line.strip()
        if not text:
            continue
        try:
            try:
                record = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ParseError(
                    f"invalid JSON: {exc.msg}", line_number=line_number
                ) from exc
            if not isinstance(record, dict):
                raise SchemaError(
                    "record must be a JSON object", line_number=line_number
                )
            yield _parse_record(record, line_number)
        except (ParseError, SchemaError) as exc:
            if strict:
                raise
            skipped += 1
            logger.warning("event log line %d skipped: %s", line_number, exc)
    if skipped:
        logger.warning("event log: %d malformed lines skipped", skipped)


def feed_engine(
    engine: MonitorEngine,
    records: Iterable[PredictionEvent | OutcomeRecord],
    strict: bool = False,
) -> MonitorEngine:
    """Drive an engine with a parsed record stream (does not finalize).

    Join problems (orphaned outcome, duplicated outcome or event id) are
    skipped with a warning in lenient mode and raised in strict mode, same
    contract as parsing in read_log.
    """
    skipped = 0
    for record in records:
        try:
            if isinstance(record, PredictionEvent):
                engine.observe_event(record)
            else:
                engine.observe_outcome(record)
        except (OrphanOutcome, DuplicateOutcome, ValueError) as exc:
            if strict:
                if isinstance(exc, ValueError):
                    raise SchemaError(str(exc)) from exc
                raise
            skipped += 1
            logger.warning("record for %r skipped: %s", record.event_id, exc)
    if skipped:
        logger.warning("event stream: %d unjoinable records skipped", skipped)
    return engine


# -- engine snapshots ---------------------------------------------------------


def _canonical(state: dict) -> bytes:
    return json.dumps(state, sort_keys=True, separators=(",", ":")).encode()


def save_snapshot(engine: MonitorEngine, fp: IO[str]) -> None:
    """Persist the engine as a checksummed, versioned JSON document."""
    state = engine.to_state()
    doc = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "sha256": hashlib.sha256(_canonical(state)).hexdigest(),
        "state": state,
    }
    json.dump(doc, fp, indent=1)
    fp.write("\n")


def load_snapshot(fp: IO[str]) -> MonitorEngine:
    """Load a snapshot, verifying format version and checksum."""
    try:
        doc = json.load(fp)
    except json.JSONDecodeError as exc:
        raise CorruptSnapshot(f"snapshot is not valid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict) or "state" not in doc or "sha256" not in doc:
        raise CorruptSnapshot("snapshot document missing required keys")
    version = doc.get("format_version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise VersionMismatch(
            f"snapshot format version {version!r} != supported "
            f"{SNAPSHOT_FORMAT_VERSION}"
        )
    digest = hashlib.sha256(_canonical(doc["state"])).hexdigest()
    if digest != doc["sha256"]:
        raise CorruptSnapshot("snapshot checksum mismatch; file damaged or edited")
    return MonitorEngine.from_state(doc["state"])


def save_snapshot_file(engine: MonitorEngine, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        save_snapshot(engine, fp)


def load_snapshot_file(path: str | os.PathLike) -> MonitorEngine:
    with open(path, "r", encoding="utf-8") as fp:
        return load_snapshot(fp)


# -- reports ------------------------------------------------------------------


def report_rows(
    snapshots: Sequence[MetricSnapshot],
    alarm_history: Sequence[AlarmRecord] = (),
) -> list[dict]:
    """One dict per period in REPORT_COLUMNS order; undefined metrics are None."""
    if not snapshots:
        raise EmptyReport("no closed periods to report")
    state_by_period = {rec.time.period: rec.state.value for rec in alarm_history}

    def cell(snap: MetricSnapshot, col: str):
        if col == "period":
            return snap.time.period
        if col == "alarm_state":
            return state_by_period.get(snap.time.period)
        return getattr(snap, col)

    return [{col: cell(snap, col) for col in REPORT_COLUMNS} for snap in snapshots]


def emit_report(
    snapshots: Sequence[MetricSnapshot],
    alarm_history: Sequence[AlarmRecord] = (),
    fmt: str = "csv",
) -> str:
    """Render the period table as a CSV or JSON string."""
    rows = report_rows(snapshots, alarm_history)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for row in rows:
            out = []
            for col in REPORT_COLUMNS:
                value = row[col]
                if value is None:
                    out.append("")
                elif col in _FLOAT_COLUMNS:
                    out.append(repr(float(value)))
                else:
                    out.append(str(value))
            writer.writerow(out)
        return buf.getvalue()
    if fmt == "json":
        return json.dumps({"columns": list(REPORT_COLUMNS), "rows": rows},
                          indent=2) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def read_report(text: str, fmt: str = "csv") -> list[dict]:
    """Parse emit_report() output back into row dicts (typed)."""
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyReport("report has no header row") from None
        if tuple(header) != REPORT_COLUMNS:
            raise SchemaError(f"unexpected report header {header!r}")
        rows = []
        for raw in reader:
            if not raw:
                continue
            row = {}
            for col, cell in zip(REPORT_COLUMNS, raw):
                if cell == "":
                    row[col] = None
                elif col in ("period", "n"):
                    row[col] = int(cell)
                elif col == "alarm_state":
                    row[col] = cell
                else:
                    row[col] = float(cell)
            rows.append(row)
        if not rows:
            raise EmptyReport("report has no data rows")
        return rows
    if fmt == "json":
        doc = json.loads(text)
        rows = doc["rows"]
        if not rows:
            raise EmptyReport("report has no data rows")
        return rows
    raise ValueError(f"unknown report format {fmt!r}")


# -- configuration ------------------------------------------------------------


def default_config() -> dict:
    """Full config document with every setting at its default."""
    return {
        "scenario": asdict(ScenarioConfig()),
        "policy": asdict(ThresholdPolicy()),
        "monitor": dict(ENGINE_DEFAULTS),
    }


def load_config(path: str | os.PathLike | None = None) -> dict:
    """Load a config document, merging the file over the defaults.

    Resolution order: explicit path argument, then the RISKWATCH_CONFIG
    environment variable, then pure defaults. Unknown sections or keys
    raise BadConfig rather than being silently ignored.
    """
    merged = default_config()
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    if path is None:
        return merged
    try:
        with open(path, "r", encoding="utf-8") as fp:
            user = json.load(fp)
    except OSError as exc:
        raise BadConfig(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BadConfig(f"config {path!r} is not valid JSON: {exc.msg}") from exc
    if not isinstance(user, dict):
        raise BadConfig("config root must be a JSON object")
    for section, values in user.items():
        if section not in merged:
            raise BadConfig(f"unknown config section {section!r}")
        if not isinstance(values, dict):
            raise BadConfig(f"config section {section!r} must be an object")
        for key, value in values.items():
            if key not in merged[section]:
                raise BadConfig(f"unknown key {key!r} in section {section!r}")
            merged[section][key] = value
    return merged


def scenario_from_config(config: dict) -> ScenarioConfig:
    return ScenarioConfig(**config["scenario"])


def policy_from_config(config: dict) -> ThresholdPolicy:
    try:
        return ThresholdPolicy(**config["policy"])
    except (TypeError, ValueError) as exc:
        raise BadConfig(f"bad policy settings: {exc}") from exc


def engine_from_config(config: dict) -> MonitorEngine:
    return MonitorEngine(policy=policy_from_config(config), **config["monitor"])
