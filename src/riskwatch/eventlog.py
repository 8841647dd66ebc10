"""Log, snapshot, report and config serialization, and the files they live in.

Event logs are newline-delimited JSON, one record per line, two kinds::

    {"kind": "prediction", "event_id": "ev-000001", "period": 1, "seq": 0,
     "prob": 0.12, "action": 0, "model_version": "frozen-v1", "cohort": null}
    {"kind": "outcome", "event_id": "ev-000001", "y": 0, "loss": 0.02,
     "alt_losses": [0.02, 0.07]}

action, model_version, cohort and alt_losses are optional. _LAYOUT is the
format: log_line writes each key from the record field it names, and
_parse_record reads the key back into that field; the record types check
the values, so a record reads back from its line exactly when it can be
built. Ingest is lenient by default (malformed lines are counted and logged
with their line number, parsing continues) and strict on request (first bad
line raises ParseError or SchemaError carrying the line number). A line that
is not valid UTF-8 is a parse error too: open_log decodes a file and stdin
alike, in UTF-8 with surrogateescape, so a bad byte reaches the reader as a
lone surrogate instead of failing the whole read, and it ends a line at
"\n" alone.

Intake has one path, read_log -> feed_engine. read_log yields each record
as a (line number, record) pair, and feed_engine carries the number on
into the engine, so a record the join rejects is named by its line too.
A log is addressed by line: an engine carries the number of log lines
behind its state (lines_consumed), and ingest_log skips that many lines
undecoded, then runs the rest through read_log, numbered on from there,
and feed_engine, counting each line it reads. log_pairs is the one
writer: it logs simulated pairs and feeds them through feed_engine.

Engine snapshots are single JSON documents, {"sha256", "state"}: the
engine state, which carries the one version (engine_version), and a sha256
checksum over its canonical serialization (sorted keys, no whitespace), so
a truncated or hand-edited file is rejected instead of silently resuming
from garbage. The document holds that canonical text itself, on one line,
as strict JSON (no NaN or Infinity token); `python -m json.tool` prints it
readably. It stores the closed periods' metrics, not the alarm decisions
made on them: a load replays those from the metrics under the stored policy.

Reports are flat tables, CSV or JSON, one row per closed period, with a
fixed column order. Undefined metrics serialize as empty cells (CSV) or
null (JSON). Floats are written with repr so emit -> read -> emit is
byte-identical.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import logging
import os
import sys
from dataclasses import asdict
from functools import partial
from itertools import islice
from operator import attrgetter
from typing import IO, Callable, Iterable, Iterator, Sequence, get_type_hints

from .alarms import AlarmRecord, OperatingState, ThresholdPolicy
from .core import MetricSnapshot, OutcomeRecord, PredictionEvent, check_integer, check_metrics
from .errors import (
    BadConfig,
    CorruptSnapshot,
    DuplicateOutcome,
    EmptyReport,
    OrphanOutcome,
    ParseError,
    SchemaError,
    TruncatedLog,
)
from .monitor import ENGINE_DEFAULTS, MonitorEngine
from .simulator import ScenarioConfig

logger = logging.getLogger(__name__)

CONFIG_ENV_VAR = "RISKWATCH_CONFIG"

# the report's columns, in the order that is its format
REPORT_COLUMNS = ("period", "n", "auc", "ece", "brier", "var", "cvar", "regret_cumulative",
                  "regret_rate", "posterior_mean", "drift_score", "alarm_state")
# how a CSV cell's value is written and read back: str(type(value)), type(text)
_REPORT_TYPES = {"period": int, "n": int, "alarm_state": str,
                 **dict.fromkeys(MetricSnapshot.METRIC_FIELDS, float)}


def _decoded(load: Callable, source, error: type[Exception], what: str):
    """load(source), json.load or json.loads: the one decode of outside
    input. Every way json refuses a document (bad syntax, nesting past the
    recursion limit, an integer literal past int's digit limit) raises
    error(f"{what}: <reason>"); a file's undecodable bytes pass through."""
    try:
        return load(source)
    except UnicodeDecodeError:
        raise
    except (RecursionError, ValueError) as exc:
        reason = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
        raise error(f"{what}: {reason}") from exc


# -- event log ---------------------------------------------------------------


# each kind's line, key by key in line order, with the record field each key
# holds (a dotted path); a key whose path ends in "?" is left out while its
# field is None, and a key a line lacks takes the field's default
_KIND = "kind"  # the key that names a line's kind, first on every line
_LAYOUT = {
    "prediction": (PredictionEvent, {
        "event_id": "event_id", "period": "time.period", "seq": "time.sequence",
        "prob": "predicted_prob", "action": "action_id",
        "model_version": "model_version", "cohort": "cohort",
    }),
    "outcome": (OutcomeRecord, {
        "event_id": "event_id", "y": "outcome", "loss": "loss",
        "alt_losses": "alt_losses?",
    }),
}

# by record type: its kind, its line's keys, the getter of their values
# and the keys left out while None
_WRITERS = {cls: (kind, (_KIND, *keys), attrgetter(*(p.rstrip("?") for p in keys.values())),
                  [key for key, path in keys.items() if path.endswith("?")])
            for kind, (cls, keys) in _LAYOUT.items()}


def _reader(cls: type, keys: dict) -> tuple:
    """cls, its fields by key, and each nested record's field, type and keys"""
    flat, nested = [], {}
    for key, path in keys.items():
        field, _, sub = path.rstrip("?").partition(".")
        if sub:
            nested.setdefault(field, []).append((key, sub))
        else:
            flat.append((key, field))
    return cls, flat, [(field, get_type_hints(cls)[field], subs)
                       for field, subs in nested.items()]


_READERS = {kind: _reader(cls, keys) for kind, (cls, keys) in _LAYOUT.items()}


def log_line(record: PredictionEvent | OutcomeRecord) -> str:
    """One record as its line of an ndjson event log, newline included."""
    kind, keys, values, optional = _WRITERS[type(record)]
    line = dict(zip(keys, (kind,) + values(record)))
    for key in optional:
        if line[key] is None:
            del line[key]
    return json.dumps(line) + "\n"


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
        fp.write(log_line(event))
        lines += 1
        outcome = by_id.pop(event.event_id, None)
        if outcome is not None:
            fp.write(log_line(outcome))
            lines += 1
    for orphan in by_id.values():
        fp.write(log_line(orphan))
        lines += 1
    return lines


def _parse_record(record: dict) -> PredictionEvent | OutcomeRecord:
    kind = record.get(_KIND)
    if not (isinstance(kind, str) and kind in _READERS):
        raise SchemaError(f"unknown record kind {kind!r}")
    cls, flat, nested = _READERS[kind]
    try:
        fields = {field: record[key] for key, field in flat if key in record}
        for field, sub_cls, keys in nested:
            fields[field] = sub_cls(**{sub: record[key] for key, sub in keys
                                       if key in record})
        return cls(**fields)
    except (TypeError, ValueError) as exc:  # a missing or malformed field
        raise SchemaError(str(exc)) from exc


def read_log(
    lines: Iterable[str],
    strict: bool = False,
    start: int = 1,
) -> Iterator[tuple[int, PredictionEvent | OutcomeRecord]]:
    """Parse an ndjson event log into (line number, record) pairs, in
    encounter order, numbering its lines from start.

    Lenient mode (default) skips malformed lines with a logged warning;
    strict mode raises on the first one. Either way the error names the
    line. Blank lines are always skipped.
    """
    skipped = 0
    for line_number, line in enumerate(lines, start):
        text = line.strip(" \t\r\n")  # JSON's whitespace, no other
        if not text:
            continue
        try:
            if not text.isascii():
                try:
                    text.encode("utf-8")
                except UnicodeEncodeError as exc:  # a surrogate-escaped byte
                    raise ParseError("invalid UTF-8") from exc
            record = _decoded(json.loads, text, ParseError, "invalid JSON")
            if not isinstance(record, dict):
                raise SchemaError("record must be a JSON object")
            yield line_number, _parse_record(record)
        except (ParseError, SchemaError) as exc:
            exc.line_number = line_number
            if strict:
                raise
            skipped += 1
            logger.warning("event log line %d skipped: %s", line_number, exc.args[0])
    if skipped:
        logger.warning("event log: %d malformed lines skipped", skipped)


def feed_engine(
    engine: MonitorEngine,
    numbered: Iterable[tuple[int, PredictionEvent | OutcomeRecord]],
    strict: bool = False,
) -> MonitorEngine:
    """Drive an engine with (line number, record) pairs, as read_log
    yields them (does not finalize).

    Join problems (orphaned outcome, duplicated outcome or event id, an
    action outside the decision set) are skipped with a warning in lenient
    mode and raised in strict mode, same contract as parsing in read_log;
    the error names the record's line.
    """
    skipped = 0
    for line_number, record in numbered:
        try:
            try:
                if isinstance(record, PredictionEvent):
                    engine.observe_event(record)
                else:
                    engine.observe_outcome(record)
            except ValueError as exc:  # a repeated event or an out-of-range action
                raise SchemaError(str(exc)) from exc
        except (OrphanOutcome, DuplicateOutcome, SchemaError) as exc:
            exc.line_number = line_number
            if strict:
                raise
            skipped += 1
            logger.warning("record for %r skipped: %s", record.event_id, exc)
    if skipped:
        logger.warning("event stream: %d unjoinable records skipped", skipped)
    return engine


def ingest_log(
    engine: MonitorEngine,
    lines: Iterable[str],
    strict: bool = False,
    hold_partial: bool = False,
) -> MonitorEngine:
    """read_log then feed_engine over the log lines the engine has not
    consumed yet (does not finalize).

    The first engine.lines_consumed lines are skipped without being
    decoded; a log with fewer lines raises TruncatedLog. The rest are
    numbered on from there, and each one read adds 1 to
    engine.lines_consumed. Every rejected line is named by its number, the
    join rejections too. With hold_partial, a final line with no newline
    is left unread, since its writer may still be appending to it.
    """
    lines = iter(lines)
    consumed = engine.lines_consumed
    present = sum(1 for _ in islice(lines, consumed))
    if present < consumed:
        raise TruncatedLog(
            f"event log has {present} lines but the snapshot consumed "
            f"{consumed}; was it truncated or rotated?"
        )

    def unread() -> Iterator[str]:
        for line in lines:
            if hold_partial and not line.endswith("\n"):
                return
            engine.lines_consumed += 1
            yield line

    return feed_engine(engine, read_log(unread(), strict, consumed + 1), strict)


def log_pairs(
    fp: IO[str],
    engine: MonitorEngine,
    pairs: Iterable[tuple[PredictionEvent, OutcomeRecord]],
) -> MonitorEngine:
    """Write each (event, outcome) pair's two log lines and feed the
    engine each record, strictly, as the line just written (does not
    finalize). The engine counts those lines as consumed, as if it had
    read them back; only the pair in hand is held."""

    def logged() -> Iterator[tuple[int, PredictionEvent | OutcomeRecord]]:
        for pair in pairs:
            for record in pair:
                fp.write(log_line(record))
                engine.lines_consumed += 1
                yield engine.lines_consumed, record

    return feed_engine(engine, logged(), strict=True)


# -- files --------------------------------------------------------------------


# how a log's bytes decode, from a file and from stdin alike: UTF-8 with
# surrogateescape, and a line ends at "\n" alone, so a "\r" before it or
# inside it is whitespace
_LOG_TEXT = {"encoding": "utf-8", "errors": "surrogateescape", "newline": "\n"}


def open_log(path: str) -> contextlib.AbstractContextManager[IO[str]]:
    """The event log at path, or stdin for "-", decoded as _LOG_TEXT says."""
    if path != "-":
        return open(path, **_LOG_TEXT)
    if hasattr(sys.stdin, "reconfigure"):  # not on a stand-in such as StringIO
        sys.stdin.reconfigure(**_LOG_TEXT)
    return contextlib.nullcontext(sys.stdin)  # left open


def write_file(path: str | os.PathLike, write: Callable[[IO[str]], object]) -> None:
    """The one file writer: write(fp) fills <path>.tmp, which is synced and
    renamed over path, and the directory is synced. A failure removes the
    temp file, so path holds its old bytes or all of the new ones."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fp:
            write(fp)
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    if os.name == "posix":  # the rename itself reaches the disk
        fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


# -- engine snapshots ---------------------------------------------------------


def _canonical(state: dict, allow_nan: bool = True) -> str:
    return json.dumps(state, sort_keys=True, separators=(",", ":"), allow_nan=allow_nan)


def save_snapshot(engine: MonitorEngine, fp: IO[str]) -> None:
    """Persist the engine as a checksummed JSON document.

    The state is serialized once, canonically, and those same bytes are
    both hashed and written as the document's state. It is strict JSON: a
    state that would need a NaN or Infinity token raises ValueError, and
    nothing is written. (load_snapshot still parses those tokens, so the
    type that owns such a value is the one that refuses it.)
    """
    state = _canonical(engine.to_state(), allow_nan=False)
    digest = hashlib.sha256(state.encode()).hexdigest()
    fp.write(f'{{"sha256":"{digest}","state":{state}}}\n')


def load_snapshot(fp: IO[str]) -> MonitorEngine:
    """Load a snapshot, verifying its checksum; MonitorEngine.from_state
    checks the state's version and that it is what to_state() writes."""
    try:
        doc = _decoded(json.load, fp, CorruptSnapshot, "snapshot is not valid JSON")
    except UnicodeDecodeError as exc:
        raise CorruptSnapshot(f"snapshot is not valid UTF-8: {exc.reason}") from exc
    if not isinstance(doc, dict) or "state" not in doc or "sha256" not in doc:
        raise CorruptSnapshot("snapshot document missing required keys")
    digest = hashlib.sha256(_canonical(doc["state"]).encode()).hexdigest()
    if digest != doc["sha256"]:
        raise CorruptSnapshot("snapshot checksum mismatch; file damaged or edited")
    engine = MonitorEngine.from_state(doc["state"])
    unknown = sorted(doc.keys() - {"sha256", "state"})
    if unknown:
        raise CorruptSnapshot(f"unknown snapshot document key {unknown[0]!r}")
    return engine


def save_snapshot_file(engine: MonitorEngine, path: str | os.PathLike) -> None:
    write_file(path, lambda fp: save_snapshot(engine, fp))


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
        # str of a float is its repr, so the cell reads back to that float
        writer.writerows(["" if value is None else str(_REPORT_TYPES[col](value))
                          for col, value in row.items()] for row in rows)
        return buf.getvalue()
    if fmt == "json":
        text = json.dumps({"columns": list(REPORT_COLUMNS), "rows": rows}, indent=2)
        # an inf metric as 1e999, a number that overflows back to inf, not the
        # Infinity token RFC 8259 lacks; the document's only strings are the
        # column names and alarm states, which hold no "Infinity"
        return text.replace("Infinity", "1e999") + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def read_report(text: str, fmt: str = "csv") -> list[dict]:
    """Parse emit_report() output back into row dicts (typed).

    One rule for both formats: the columns are REPORT_COLUMNS in order and
    every row has a cell for each of them (else SchemaError); at least one
    row (else EmptyReport); every cell by the rule its value was written
    under (else SchemaError naming the row and column): period and n by
    check_integer (least 1), each metric by check_metrics, alarm_state None
    or an OperatingState value. No rule spans rows: emit_report takes the
    snapshots in any order."""
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        columns = next(reader, None)
        if columns is None:
            raise EmptyReport("report has no header row")
        # a row of the wrong width is kept as a list, which the rule refuses
        rows = [dict(zip(columns, map(_csv_cell, columns, raw)))
                if len(raw) == len(columns) else raw
                for raw in reader if raw]
    elif fmt == "json":
        doc = _decoded(json.loads, text, SchemaError, "report is not valid JSON")
        if not isinstance(doc, dict) or not isinstance(doc.get("rows"), list):
            raise SchemaError("report has no list of rows")
        columns, rows = doc.get("columns"), doc["rows"]
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if not rows:
        raise EmptyReport("report has no data rows")
    if columns != list(REPORT_COLUMNS):
        raise SchemaError(f"unexpected report header {columns!r}")
    for number, row in enumerate(rows, start=1):
        if not isinstance(row, dict) or list(row) != columns:
            raise SchemaError(f"report row {number} does not have one cell per column")
        for col, cell in row.items():
            try:
                if col in ("period", "n"):
                    check_integer(col, cell, 1)
                elif col != "alarm_state":
                    check_metrics({col: cell})
                elif cell is not None:
                    OperatingState(cell)
            except ValueError as exc:
                raise SchemaError(f"report row {number}: column {col!r}: {exc}") from exc
    return rows


def _csv_cell(col: str, cell: str):
    """A CSV report cell as the value emit_report wrote, or its text where
    emit_report writes no value so (03, 1E-05), which the cell rule refuses."""
    with contextlib.suppress(ValueError):
        value = _REPORT_TYPES.get(col, str)(cell) if cell else None
        return value if value is None or str(value) == cell else cell
    return cell


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
            user = _decoded(json.load, fp, BadConfig, f"config {path!r} is not valid JSON")
    except (OSError, UnicodeDecodeError) as exc:
        raise BadConfig(f"cannot read config {path!r}: {exc}") from exc
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


def _build(config: dict, section: str, make):
    """make(**config[section]); a setting it refuses with a TypeError or
    ValueError is raised as BadConfig naming the section."""
    try:
        return make(**config[section])
    except (TypeError, ValueError) as exc:
        raise BadConfig(f"bad {section} settings: {exc}") from exc


def scenario_from_config(config: dict) -> ScenarioConfig:
    return _build(config, "scenario", ScenarioConfig)


def policy_from_config(config: dict) -> ThresholdPolicy:
    return _build(config, "policy", ThresholdPolicy)


def engine_from_config(config: dict) -> MonitorEngine:
    return _build(config, "monitor",
                  partial(MonitorEngine, policy=policy_from_config(config)))
