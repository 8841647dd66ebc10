"""The one intake path, read_log -> feed_engine, and the one decode rule
for outside JSON: every reader turns what json refuses into its own error."""

import json
import sys
from unittest import mock

import pytest

from riskwatch import eventlog
from riskwatch.cli import EXIT_DATA, main
from riskwatch.errors import SchemaError
from riskwatch.eventlog import CONFIG_ENV_VAR, read_report


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A short simulated run: its config, log, state and report."""
    d = tmp_path_factory.mktemp("run")
    cfg = d / "c.json"
    cfg.write_text(json.dumps({"scenario": {"periods": 3, "patients_per_period": 200}}))
    assert main(["simulate", "--scenario", str(cfg), "--out", str(d / "sim")]) == 0
    return d


def _int_digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integer literals of any length")
    return limit


# nested far past any interpreter's recursion limit, so json raises
# RecursionError on 3.10 and 3.13 alike
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.fixture(params=["deep", "long-int"])
def refused(request):
    """A document json refuses other than by a syntax error, and the
    reason it gives."""
    if request.param == "deep":
        return DEEP, "recursion"
    return "1" * (_int_digit_limit() + 1), "digits"


def _with_line_2(run, tmp_path, line):
    lines = (run / "sim" / "events.ndjson").read_text().splitlines(keepends=True)
    path = tmp_path / "events.ndjson"
    path.write_text("".join(lines[:1] + [line + "\n"] + lines[1:]))
    return path


class TestOutsideJson:
    def test_log_line_lenient_is_skipped_by_its_line(self, run, tmp_path, refused, caplog):
        text, reason = refused
        log = _with_line_2(run, tmp_path, text)
        with caplog.at_level("WARNING"):
            code = main(["monitor", "--in", str(log), "--out", str(tmp_path / "mon")])
        assert code == main(["monitor", "--in", str(run / "sim" / "events.ndjson"),
                             "--out", str(tmp_path / "clean")])
        assert "event log line 2 skipped: invalid JSON" in caplog.text
        assert reason in caplog.text
        assert "1 malformed lines skipped" in caplog.text
        assert ((tmp_path / "mon" / "report.csv").read_bytes()
                == (tmp_path / "clean" / "report.csv").read_bytes())

    def test_log_line_strict_exits_2_naming_its_line(self, run, tmp_path, refused, capsys):
        text, reason = refused
        log = _with_line_2(run, tmp_path, text)
        code = main(["monitor", "--strict", "--in", str(log), "--out", str(tmp_path / "m")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "riskwatch monitor: error: line 2: invalid JSON" in err
        assert reason in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["report", "replay"])
    def test_snapshot_exits_2(self, run, tmp_path, refused, command, capsys):
        text, reason = refused
        state = tmp_path / "state.json"
        state.write_text(text)
        argv = (["report", "--in", str(state)] if command == "report" else
                ["replay", "--snapshot", str(state),
                 "--in", str(run / "sim" / "events.ndjson")])
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"riskwatch {command}: error: snapshot is not valid JSON" in err
        assert reason in err

    def test_config_exits_2(self, run, tmp_path, refused, capsys):
        text, reason = refused
        cfg = tmp_path / "policy.json"
        cfg.write_text(text)
        code = main(["monitor", "--policy", str(cfg),
                     "--in", str(run / "sim" / "events.ndjson")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"riskwatch monitor: error: config {str(cfg)!r} is not valid JSON" in err
        assert reason in err

    def test_config_not_utf8_exits_2(self, run, tmp_path, capsys):
        cfg = tmp_path / "policy.json"
        cfg.write_bytes(b'{"policy": {"ece_max": 0.1}}\xff\n')
        code = main(["monitor", "--policy", str(cfg),
                     "--in", str(run / "sim" / "events.ndjson")])
        assert code == EXIT_DATA
        assert (f"riskwatch monitor: error: cannot read config {str(cfg)!r}"
                in capsys.readouterr().err)

    def test_json_report_is_a_schema_error(self, refused):
        text, reason = refused
        with pytest.raises(SchemaError, match=f"report is not valid JSON: .*{reason}"):
            read_report(text, fmt="json")


class TestOneIntakePath:
    """Every CLI path reads through eventlog.read_log and feeds through
    eventlog.feed_engine, the names the benchmark's tracer wraps."""

    @pytest.fixture()
    def calls(self):
        with mock.patch.object(eventlog, "read_log", wraps=eventlog.read_log) as read, \
             mock.patch.object(eventlog, "feed_engine", wraps=eventlog.feed_engine) as feed:
            yield read, feed

    def test_simulate_feeds_through_feed_engine(self, run, tmp_path, calls):
        _, feed = calls
        assert main(["simulate", "--scenario", str(run / "c.json"),
                     "--out", str(tmp_path / "sim")]) == 0
        assert feed.call_count == 1

    def test_monitor_and_replay_read_and_feed(self, run, tmp_path, calls):
        read, feed = calls
        log = tmp_path / "events.ndjson"
        lines = (run / "sim" / "events.ndjson").read_text().splitlines(keepends=True)
        log.write_text("".join(lines[:500]))
        assert main(["monitor", "--no-finalize", "--in", str(log),
                     "--out", str(tmp_path / "mon")]) == 0
        assert (read.call_count, feed.call_count) == (1, 1)
        assert read.call_args.args[2] == 1

        log.write_text("".join(lines))
        assert main(["replay", "--snapshot", str(tmp_path / "mon" / "state.json"),
                     "--in", str(log), "--out", str(tmp_path / "mon")]) == 0
        assert (read.call_count, feed.call_count) == (2, 2)
        assert read.call_args.args[2] == 501
