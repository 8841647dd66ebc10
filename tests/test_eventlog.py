"""ndjson log round trips, snapshot integrity, report formats, config."""

import io
import json
from dataclasses import asdict

import pytest

from riskwatch.alarms import ThresholdPolicy
from riskwatch.core import OutcomeRecord, PredictionEvent, TimeIndex
from riskwatch.errors import (
    BadConfig,
    CorruptSnapshot,
    EmptyReport,
    ParseError,
    SchemaError,
    TruncatedLog,
    VersionMismatch,
)
from riskwatch.eventlog import (
    CONFIG_ENV_VAR,
    REPORT_COLUMNS,
    default_config,
    emit_report,
    engine_from_config,
    event_to_record,
    feed_engine,
    load_config,
    load_snapshot,
    outcome_to_record,
    policy_from_config,
    read_log,
    read_report,
    report_rows,
    save_snapshot,
    scenario_from_config,
    unread_lines,
    write_log,
)
from riskwatch.monitor import MonitorEngine
from riskwatch.simulator import ScenarioConfig


def log_text(events, outcomes):
    buf = io.StringIO()
    write_log(buf, events, outcomes)
    return buf.getvalue()


class TestLogRoundTrip:
    def test_floats_survive_exactly(self, canonical_output):
        events = canonical_output.events[:500]
        have = {e.event_id for e in events}
        outcomes = [o for o in canonical_output.outcomes if o.event_id in have]
        parsed = list(read_log(io.StringIO(log_text(events, outcomes)), strict=True))
        back_events = [r for r in parsed if isinstance(r, PredictionEvent)]
        back_outcomes = [r for r in parsed if isinstance(r, OutcomeRecord)]
        assert back_events == list(events)
        assert sorted(back_outcomes, key=lambda o: o.event_id) == sorted(
            outcomes, key=lambda o: o.event_id
        )

    def test_interleaving_outcome_follows_event(self):
        e = PredictionEvent("a", TimeIndex(1, 0), 0.5)
        o = OutcomeRecord("a", 1, 2.0)
        lines = log_text([e], [o]).splitlines()
        assert json.loads(lines[0])["kind"] == "prediction"
        assert json.loads(lines[1])["kind"] == "outcome"

    def test_record_shapes(self):
        e = PredictionEvent("a", TimeIndex(3, 7), 0.25, action_id=1,
                            model_version="m2", cohort="icu")
        rec = event_to_record(e)
        assert rec == {"kind": "prediction", "event_id": "a", "period": 3,
                       "seq": 7, "prob": 0.25, "action": 1,
                       "model_version": "m2", "cohort": "icu"}
        o = OutcomeRecord("a", 1, 0.125, alt_losses=(0.125, 0.5))
        assert outcome_to_record(o) == {"kind": "outcome", "event_id": "a",
                                        "y": 1, "loss": 0.125,
                                        "alt_losses": [0.125, 0.5]}

    def test_blank_lines_skipped(self):
        text = '\n{"kind": "prediction", "event_id": "a", "period": 1, "seq": 0, "prob": 0.5}\n\n'
        assert len(list(read_log(io.StringIO(text), strict=True))) == 1


class TestLenientVsStrict:
    BAD_JSON = "{nope\n"
    BAD_SCHEMA = '{"kind": "prediction", "event_id": "a", "period": 1, "seq": 0}\n'
    GOOD = '{"kind": "prediction", "event_id": "b", "period": 1, "seq": 1, "prob": 0.5}\n'

    def test_strict_parse_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            list(read_log(io.StringIO(self.GOOD + self.BAD_JSON), strict=True))
        assert err.value.line_number == 2

    def test_strict_schema_error_carries_line_number(self):
        with pytest.raises(SchemaError) as err:
            list(read_log(io.StringIO(self.BAD_SCHEMA), strict=True))
        assert err.value.line_number == 1
        assert "prob" in str(err.value)

    def test_lines_numbered_from_first_line(self, caplog):
        text = self.GOOD + self.BAD_JSON
        with caplog.at_level("WARNING"):
            assert len(list(read_log(io.StringIO(text), first_line=41))) == 1
        assert "event log line 42 skipped" in caplog.text
        with pytest.raises(ParseError) as err:
            list(read_log(io.StringIO(text), strict=True, first_line=41))
        assert err.value.line_number == 42

    def test_lenient_skips_and_warns(self, caplog):
        with caplog.at_level("WARNING"):
            out = list(read_log(io.StringIO(self.BAD_JSON + self.GOOD + self.BAD_SCHEMA)))
        assert len(out) == 1
        assert out[0].event_id == "b"
        assert "line 1" in caplog.text
        assert "2 malformed lines skipped" in caplog.text

    @pytest.mark.parametrize("line,fragment", [
        ('{"kind": "mystery"}', "unknown record kind"),
        ('["not", "an", "object"]', "JSON object"),
        ('{"kind": "prediction", "event_id": "a", "period": 1, "seq": 0, "prob": "high"}',
         "must be a number"),
        ('{"kind": "prediction", "event_id": "a", "period": 1, "seq": 0, "prob": NaN}',
         "finite"),
        ('{"kind": "prediction", "event_id": "a", "period": 1, "seq": 0, "prob": 1.5}',
         "prob"),
        ('{"kind": "prediction", "event_id": "a", "period": true, "seq": 0, "prob": 0.5}',
         "integer"),
        ('{"kind": "outcome", "event_id": "a", "y": 2, "loss": 0.5}', "outcome"),
        ('{"kind": "outcome", "event_id": "a", "y": 1, "loss": 0.5, "alt_losses": 3}',
         "list"),
    ])
    def test_schema_violations(self, line, fragment):
        with pytest.raises(SchemaError) as err:
            list(read_log(io.StringIO(line + "\n"), strict=True))
        assert fragment in str(err.value)

    def test_feed_engine_lenient_skips_join_errors(self, caplog):
        engine = MonitorEngine()
        records = [
            PredictionEvent("a", TimeIndex(1, 0), 0.5),
            OutcomeRecord("zzz", 1, 1.0),  # orphan
            OutcomeRecord("a", 0, 1.0),
            OutcomeRecord("a", 0, 1.0),  # duplicate
        ]
        with caplog.at_level("WARNING"):
            feed_engine(engine, records)
        assert "2 unjoinable records skipped" in caplog.text
        assert engine.outcomes_seen == 1

    def test_feed_engine_strict_raises(self):
        engine = MonitorEngine()
        with pytest.raises(Exception):
            feed_engine(engine, [OutcomeRecord("zzz", 1, 1.0)], strict=True)

    # event "a" names an action outside its two-action set; "b" is valid
    BAD_ACTION_LOG = (
        '{"kind": "prediction", "event_id": "a", "period": 1, "seq": 0, '
        '"prob": 0.5, "action": %d}\n'
        '{"kind": "outcome", "event_id": "a", "y": 1, "loss": 0.5, '
        '"alt_losses": [0.1, 0.5]}\n'
        '{"kind": "prediction", "event_id": "b", "period": 1, "seq": 1, '
        '"prob": 0.2, "action": 0}\n'
        '{"kind": "outcome", "event_id": "b", "y": 0, "loss": 0.1, '
        '"alt_losses": [0.1, 0.3]}\n'
    )

    @pytest.mark.parametrize("action", [5, -1])
    def test_out_of_range_action_lenient_skips(self, action, caplog):
        engine = MonitorEngine()
        with caplog.at_level("WARNING"):
            feed_engine(engine, read_log(io.StringIO(self.BAD_ACTION_LOG % action)))
        engine.finalize()
        assert "1 unjoinable records skipped" in caplog.text
        assert engine.outcomes_seen == 1
        assert engine.snapshots[0].n == 1
        assert engine.snapshots[0].regret_cumulative == 0.0

    @pytest.mark.parametrize("action", [5, -1])
    def test_out_of_range_action_strict_raises(self, action):
        engine = MonitorEngine()
        records = read_log(io.StringIO(self.BAD_ACTION_LOG % action), strict=True)
        with pytest.raises(SchemaError, match="outside action set"):
            feed_engine(engine, records, strict=True)


class TestUnreadLines:
    LINES = ["a\n", "\n", "b\n", "c\n"]

    def test_skips_consumed_lines_and_counts_the_rest(self):
        engine = MonitorEngine()
        engine.lines_consumed = 2
        assert list(unread_lines(io.StringIO("".join(self.LINES)), engine)) == ["b\n", "c\n"]
        assert engine.lines_consumed == 4

    def test_consumed_lines_are_not_decoded(self):
        engine = MonitorEngine()
        engine.lines_consumed = 2
        lines = ["{not json\n", "[]\n", TestLenientVsStrict.GOOD]
        records = list(read_log(unread_lines(lines, engine), strict=True, first_line=3))
        assert [r.event_id for r in records] == ["b"]

    def test_log_shorter_than_consumed_raises(self):
        engine = MonitorEngine()
        engine.lines_consumed = 5
        with pytest.raises(TruncatedLog, match="has 4 lines but the snapshot consumed 5"):
            list(unread_lines(self.LINES, engine))

    @pytest.mark.parametrize("hold", [False, True])
    def test_unterminated_last_line_held_back_on_request(self, hold):
        engine = MonitorEngine()
        got = list(unread_lines(io.StringIO("a\nb\npart"), engine, hold_partial=hold))
        assert got == ["a\n", "b\n"] + ([] if hold else ["part"])
        assert engine.lines_consumed == len(got)


class TestSnapshotIntegrity:
    def make(self, canonical_output, upto=3_000):
        engine = MonitorEngine()
        feed_engine(
            engine,
            (r for pair in zip(canonical_output.events,
                               canonical_output.outcomes) for r in pair),
        )
        return engine

    def test_save_load_roundtrip(self, canonical_output):
        engine = self.make(canonical_output)
        buf = io.StringIO()
        save_snapshot(engine, buf)
        thawed = load_snapshot(io.StringIO(buf.getvalue()))
        assert thawed.to_state() == engine.to_state()

    def test_tampered_state_detected(self, canonical_output):
        engine = self.make(canonical_output)
        buf = io.StringIO()
        save_snapshot(engine, buf)
        doc = json.loads(buf.getvalue())
        doc["state"]["events_seen"] += 1
        with pytest.raises(CorruptSnapshot, match="checksum"):
            load_snapshot(io.StringIO(json.dumps(doc)))

    def test_version_bump_detected(self, canonical_output):
        engine = self.make(canonical_output)
        buf = io.StringIO()
        save_snapshot(engine, buf)
        doc = json.loads(buf.getvalue())
        doc["format_version"] = 2
        with pytest.raises(VersionMismatch):
            load_snapshot(io.StringIO(json.dumps(doc)))

    def test_not_json(self):
        with pytest.raises(CorruptSnapshot):
            load_snapshot(io.StringIO("junk"))

    def test_missing_keys(self):
        with pytest.raises(CorruptSnapshot):
            load_snapshot(io.StringIO('{"format_version": 1}'))


@pytest.fixture(scope="module")
def run(canonical_output):
    from riskwatch.simulator import run_monitor

    return run_monitor(canonical_output)


class TestReports:
    def test_column_order_pinned(self):
        assert REPORT_COLUMNS == (
            "period", "n", "auc", "ece", "brier", "var", "cvar",
            "regret_cumulative", "regret_rate", "posterior_mean",
            "drift_score", "alarm_state",
        )

    def test_csv_emit_read_emit_identical(self, run):
        snaps, hist = run
        text = emit_report(snaps, hist, fmt="csv")
        rows = read_report(text, fmt="csv")
        header = ",".join(REPORT_COLUMNS)
        rebuilt = [header]
        for row in rows:
            cells = []
            for col in REPORT_COLUMNS:
                v = row[col]
                cells.append("" if v is None else
                             repr(v) if isinstance(v, float) else str(v))
            rebuilt.append(",".join(cells))
        assert text == "\n".join(rebuilt) + "\n"

    def test_csv_floats_exact(self, run):
        snaps, hist = run
        rows = read_report(emit_report(snaps, hist, fmt="csv"), fmt="csv")
        assert rows[0]["ece"] == snaps[0].ece
        assert rows[-1]["cvar"] == snaps[-1].cvar
        assert rows[-1]["alarm_state"] == "suspended"

    def test_json_round_trip(self, run):
        snaps, hist = run
        text = emit_report(snaps, hist, fmt="json")
        rows = read_report(text, fmt="json")
        assert rows == report_rows(snaps, hist)
        assert emit_report(snaps, hist, fmt="json") == text

    def test_empty_report_raises(self):
        with pytest.raises(EmptyReport):
            report_rows([])
        with pytest.raises(EmptyReport):
            read_report("", fmt="csv")
        with pytest.raises(EmptyReport):
            read_report('{"columns": [], "rows": []}', fmt="json")

    def test_unknown_format(self, run):
        snaps, hist = run
        with pytest.raises(ValueError):
            emit_report(snaps, hist, fmt="xml")

    def test_bad_header_rejected(self):
        with pytest.raises(SchemaError):
            read_report("a,b,c\n1,2,3\n", fmt="csv")


class TestConfig:
    def test_defaults_complete(self):
        config = default_config()
        assert set(config) == {"scenario", "policy", "monitor"}
        scenario_from_config(config)
        policy_from_config(config)
        engine_from_config(config)

    def test_sections_are_the_defaults_of_their_classes(self):
        config = default_config()
        assert config["scenario"] == asdict(ScenarioConfig())
        assert config["policy"] == asdict(ThresholdPolicy())
        engine = MonitorEngine()
        assert config["monitor"] == {
            name: getattr(engine, name)
            for name in ("n_bins", "alpha")
        }
        assert engine_from_config(config).to_state() == engine.to_state()

    def test_defaults_when_no_path_no_env(self, monkeypatch):
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        assert load_config() == default_config()

    def test_explicit_path_merges_over_defaults(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"scenario": {"periods": 3}, "policy": {"cvar_max": 0.5}}')
        config = load_config(p)
        assert config["scenario"]["periods"] == 3
        assert config["scenario"]["seed"] == default_config()["scenario"]["seed"]
        assert config["policy"]["cvar_max"] == 0.5

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        p = tmp_path / "c.json"
        p.write_text('{"monitor": {"alpha": 0.9}}')
        monkeypatch.setenv(CONFIG_ENV_VAR, str(p))
        assert load_config()["monitor"]["alpha"] == 0.9

    def test_explicit_path_beats_env(self, tmp_path, monkeypatch):
        a = tmp_path / "a.json"
        a.write_text('{"monitor": {"alpha": 0.9}}')
        b = tmp_path / "b.json"
        b.write_text('{"monitor": {"alpha": 0.8}}')
        monkeypatch.setenv(CONFIG_ENV_VAR, str(a))
        assert load_config(b)["monitor"]["alpha"] == 0.8

    @pytest.mark.parametrize("text,fragment", [
        ('{"surprises": {}}', "unknown config section"),
        ('{"window": {}}', "unknown config section"),
        ('{"loss": {}}', "unknown config section"),
        ('{"scenario": {"patients": 5}}', "unknown key"),
        ('{"monitor": {"drift_samples": 50000}}', "unknown key"),
        ('{"scenario": []}', "must be an object"),
        ('[1, 2]', "root must be"),
        ('{nope', "not valid JSON"),
    ])
    def test_rejections(self, tmp_path, text, fragment):
        p = tmp_path / "c.json"
        p.write_text(text)
        with pytest.raises(BadConfig, match=fragment):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(BadConfig, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_bad_policy_wrapped(self):
        config = default_config()
        config["policy"]["recovery_periods"] = 0
        with pytest.raises(BadConfig, match="policy"):
            policy_from_config(config)
