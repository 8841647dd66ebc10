"""ndjson log round trips, snapshot integrity, report formats, config."""

import hashlib
import io
import json
import math
import os
from dataclasses import asdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskwatch.alarms import AlarmRecord, OperatingState, ThresholdPolicy
from riskwatch.core import (
    _METRIC_RANGES, MetricSnapshot, OutcomeRecord, PredictionEvent, TimeIndex,
)
from riskwatch.errors import (
    BadConfig,
    CorruptSnapshot,
    EmptyReport,
    ParseError,
    SchemaError,
    TruncatedLog,
    VersionMismatch,
)
from riskwatch import eventlog
from riskwatch.eventlog import (
    CONFIG_ENV_VAR,
    REPORT_COLUMNS,
    default_config,
    emit_report,
    engine_from_config,
    feed_engine,
    ingest_log,
    load_config,
    load_snapshot,
    load_snapshot_file,
    log_line,
    log_pairs,
    policy_from_config,
    read_log,
    read_report,
    report_rows,
    save_snapshot,
    save_snapshot_file,
    scenario_from_config,
    write_log,
)
from riskwatch.monitor import (
    _ACC, ENGINE_STATE_VERSION, MonitorEngine, _pack, _unpack,
)
from riskwatch.simulator import ScenarioConfig


def log_text(events, outcomes):
    buf = io.StringIO()
    write_log(buf, events, outcomes)
    return buf.getvalue()


# every value a record accepts: ints and floats (-0.0 among them), text
# with non-ASCII, quotes, backslashes and control characters, and None
# where a field takes it
finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(-2**63, 2**63), st.just(-0.0))
some_text = st.text(min_size=1)
valid_events = st.builds(
    PredictionEvent,
    event_id=some_text,
    time=st.builds(TimeIndex, st.integers(1, 2**31), st.integers(0, 2**63)),
    predicted_prob=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1, -0.0])),
    action_id=st.none() | st.integers(-2**63, 2**63),
    model_version=st.text(),
    cohort=st.none() | st.text(),
)
valid_outcomes = st.builds(
    OutcomeRecord,
    event_id=some_text,
    outcome=st.sampled_from([0, 1]),
    loss=finite,
    alt_losses=st.none() | st.lists(finite, min_size=1, max_size=4).map(tuple),
)


class TestLogRoundTrip:
    def test_floats_survive_exactly(self, canonical_output):
        events = canonical_output.events[:500]
        have = {e.event_id for e in events}
        outcomes = [o for o in canonical_output.outcomes if o.event_id in have]
        parsed = [r for _, r in read_log(io.StringIO(log_text(events, outcomes)), strict=True)]
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
        # an outcome with no event in the log is written after every event
        orphan = OutcomeRecord("z", 0, 1.0)
        buf = io.StringIO()
        assert write_log(buf, [e], [orphan, o]) == 3
        assert [json.loads(line)["event_id"] for line in buf.getvalue().splitlines()] == [
            "a", "a", "z"]

    def test_record_shapes(self):
        e = PredictionEvent("a", TimeIndex(3, 7), 0.25, action_id=1,
                            model_version="m2", cohort="icu")
        assert json.loads(log_line(e)) == {"kind": "prediction", "event_id": "a",
                                           "period": 3, "seq": 7, "prob": 0.25,
                                           "action": 1, "model_version": "m2",
                                           "cohort": "icu"}
        o = OutcomeRecord("a", 1, 0.125, alt_losses=(0.125, 0.5))
        assert json.loads(log_line(o)) == {"kind": "outcome", "event_id": "a",
                                           "y": 1, "loss": 0.125,
                                           "alt_losses": [0.125, 0.5]}

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(valid_events, valid_outcomes))
    @example(OutcomeRecord("e1", 0, 3, alt_losses=(3, -0.0)))
    @example(PredictionEvent("é \\ \"\n", TimeIndex(1, 0), 1, cohort="ICU ☤"))
    def test_every_valid_record_reads_back_from_its_line(self, record):
        back = [r for _, r in read_log([log_line(record)], strict=True)]
        assert back == [record]
        assert repr(back[0]) == repr(record)  # ints stay ints, -0.0 stays -0.0

    def test_blank_lines_skipped(self):
        text = '\n{"kind": "prediction", "event_id": "a", "period": 1, "seq": 0, "prob": 0.5}\n\n'
        assert len(list(read_log(io.StringIO(text), strict=True))) == 1
        # JSON's own whitespace around a record or alone on a line, CRLF too
        text = (' \t{"kind": "prediction", "event_id": "a", "period": 1, "seq": 0, "prob": 0.5}'
                '\r\n \t\r\n')
        assert len(list(read_log(io.StringIO(text), strict=True))) == 1


class TestLenientVsStrict:
    BAD_JSON = "{nope\n"
    BAD_SCHEMA = '{"kind": "prediction", "event_id": "a", "period": 1, "seq": 0}\n'
    GOOD = '{"kind": "prediction", "event_id": "b", "period": 1, "seq": 1, "prob": 0.5}\n'
    # lines JSON refuses: bad syntax, and whitespace that str.strip removes
    # but JSON does not allow, around an object or alone on a line
    NOT_JSON = [BAD_JSON, "\xa0" + GOOD[:-1] + "\xa0\n", "\u2028" + GOOD,
                GOOD[:-1] + "\x85\n", "\x0c\n", "\x1c\n"]

    def test_strict_parse_error_carries_line_number(self):
        for bad in self.NOT_JSON:
            with pytest.raises(ParseError, match="invalid JSON") as err:
                list(read_log(io.StringIO(self.GOOD + bad), strict=True))
            assert err.value.line_number == 2

    def test_strict_schema_error_carries_line_number(self):
        with pytest.raises(SchemaError) as err:
            list(read_log(io.StringIO(self.BAD_SCHEMA), strict=True))
        assert err.value.line_number == 1
        assert "prob" in str(err.value)

    def test_lines_numbered_from_first_line(self, caplog):
        # an engine that has consumed 40 lines numbers the next one 41
        text = "consumed\n" * 40 + self.GOOD + self.BAD_JSON
        engine = MonitorEngine()
        engine.lines_consumed = 40
        with caplog.at_level("WARNING"):
            ingest_log(engine, io.StringIO(text))
        assert engine.events_seen == 1
        assert "event log line 42 skipped" in caplog.text
        engine = MonitorEngine()
        engine.lines_consumed = 40
        with pytest.raises(ParseError) as err:
            ingest_log(engine, io.StringIO(text), strict=True)
        assert err.value.line_number == 42

    def test_lenient_skips_and_warns(self, caplog):
        # each warning names the line once, and the reason the line was refused
        reasons = ["Expecting property name enclosed in double quotes", "Expecting value",
                   "Expecting value", "Extra data", "Expecting value", "Expecting value"]
        for bad, reason in zip(self.NOT_JSON, reasons, strict=True):
            caplog.clear()
            with caplog.at_level("WARNING"):
                out = [r for _, r in read_log(io.StringIO(bad + self.GOOD + self.BAD_SCHEMA))]
            assert len(out) == 1
            assert out[0].event_id == "b"
            first, schema, total = caplog.messages
            assert first == f"event log line 1 skipped: invalid JSON: {reason}"
            assert schema.startswith("event log line 3 skipped: ")
            assert "line 3:" not in schema
            assert total == "event log: 2 malformed lines skipped"

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

    # an int JSON holds but a float does not: once an OverflowError that
    # escaped the reader and ended even a lenient run
    HUGE_LOSS = ('{"kind": "outcome", "event_id": "a", "y": 0, "loss": 1%s}\n'
                 % ("0" * 400))

    def test_integer_past_the_float_range_is_a_schema_error(self, caplog):
        with caplog.at_level("WARNING"):
            assert list(read_log(io.StringIO(self.HUGE_LOSS + self.GOOD))) != []
        assert "event log line 1 skipped: loss must be finite" in caplog.text
        with pytest.raises(SchemaError, match="loss must be finite") as err:
            list(read_log(io.StringIO(self.HUGE_LOSS), strict=True))
        assert err.value.line_number == 1

    def test_feed_engine_lenient_skips_join_errors(self, caplog):
        engine = MonitorEngine()
        records = [
            PredictionEvent("a", TimeIndex(1, 0), 0.5),
            OutcomeRecord("zzz", 1, 1.0),  # orphan
            OutcomeRecord("a", 0, 1.0),
            OutcomeRecord("a", 0, 1.0),  # duplicate
        ]
        with caplog.at_level("WARNING"):
            feed_engine(engine, enumerate(records, 1))
        assert "2 unjoinable records skipped" in caplog.text
        assert engine.outcomes_seen == 1

    def test_feed_engine_strict_raises(self):
        engine = MonitorEngine()
        with pytest.raises(Exception):
            feed_engine(engine, [(1, OutcomeRecord("zzz", 1, 1.0))], strict=True)

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
    """ingest_log reads only the lines an engine has not consumed yet."""

    @staticmethod
    def event(event_id, seq):
        return (f'{{"kind": "prediction", "event_id": "{event_id}", '
                f'"period": 1, "seq": {seq}, "prob": 0.5}}\n')

    def pending(self, engine):
        return list(engine._join.pending)

    def test_skips_consumed_lines_and_counts_the_rest(self):
        engine = MonitorEngine()
        engine.lines_consumed = 2
        lines = [self.event("a", 0), "\n", self.event("b", 1), self.event("c", 2)]
        ingest_log(engine, io.StringIO("".join(lines)), strict=True)
        assert self.pending(engine) == ["b", "c"]
        assert engine.lines_consumed == 4

    def test_consumed_lines_are_not_decoded(self):
        engine = MonitorEngine()
        engine.lines_consumed = 2
        lines = ["{not json\n", "[]\n", TestLenientVsStrict.GOOD]
        ingest_log(engine, lines, strict=True)
        assert self.pending(engine) == ["b"]
        assert engine.lines_consumed == 3

    def test_log_shorter_than_consumed_raises(self):
        engine = MonitorEngine()
        engine.lines_consumed = 5
        lines = ["a\n", "\n", "b\n", "c\n"]
        with pytest.raises(TruncatedLog, match="has 4 lines but the snapshot consumed 5"):
            ingest_log(engine, lines)

    @pytest.mark.parametrize("hold", [False, True])
    def test_unterminated_last_line_held_back_on_request(self, hold):
        engine = MonitorEngine()
        text = self.event("a", 0) + self.event("b", 1) + self.event("part", 2)[:-1]
        ingest_log(engine, io.StringIO(text), strict=True, hold_partial=hold)
        got = ["a", "b"] + ([] if hold else ["part"])
        assert self.pending(engine) == got
        assert engine.lines_consumed == len(got)


class TestLogPairs:
    def test_writes_what_write_log_writes_and_counts_the_lines(self, canonical_output):
        events, outcomes = canonical_output.events[:300], canonical_output.outcomes[:300]
        buf, engine = io.StringIO(), MonitorEngine()
        log_pairs(buf, engine, zip(events, outcomes))
        assert buf.getvalue() == log_text(events, outcomes)
        assert engine.lines_consumed == 2 * len(events)
        assert engine.outcomes_seen == len(outcomes)

    def test_join_rejection_is_strict_and_names_the_line_written(self):
        pair = (PredictionEvent("a", TimeIndex(1, 0), 0.5), OutcomeRecord("a", 0, 1.0))
        with pytest.raises(SchemaError, match="line 3") as err:
            log_pairs(io.StringIO(), MonitorEngine(), [pair, pair])
        assert err.value.line_number == 3


# policy settings that once passed: a NaN bound never breaches, a string
# bound fails only at the first close, any non-empty string turns
# conjunctive on, a fractional streak count is accepted, and a policy with
# no bound fails at the first close
BAD_POLICIES = [{"ece_max": math.nan, "cvar_max": None}, {"ece_max": "x"},
                {"conjunctive": "no"}, {"consecutive_for_review": 1.5},
                {"ece_max": None, "cvar_max": None}]
BAD_POLICY_IDS = ["ece_max-nan", "ece_max-str", "conjunctive-str", "review-1.5",
                  "no-bound"]


def checksummed(state) -> io.StringIO:
    """A snapshot document around any state, with a valid checksum."""
    canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return io.StringIO(json.dumps({
        "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "state": state,
    }))


# a snapshot saved by engine version 6 (the last with a format_version)
V6_DOCUMENT = (
    '{"format_version":1,"sha256":"adc2e53405ccd424a513bb2ff3381b4296a8384e27272cb6d4c0c4e1'
    '59976b18","state":{"acc":{"last_sequence":null,"losses":"","probs":"","regrets":"",'
    '"ys":""},"alarm":{"breach_streak":1,"clean_streak":0,"history":{"breached":[["ece",'
    '"cvar"]],"period":[1],"sequence":[0],"state":["review"]},"state":"review"},'
    '"alpha":0.95,"baseline":[2.0,1.0],"engine_version":6,"events_seen":1,'
    '"last_event_seq":0,"lines_consumed":0,"n_bins":10,"open_period":null,'
    '"outcomes_seen":1,"pending":[],"policy":{"conjunctive":false,'
    '"consecutive_for_review":1,"consecutive_for_suspend":3,"cvar_max":0.13,'
    '"drift_min":null,"ece_max":0.045,"recovery_periods":2,"regret_rate_max":null},'
    '"resolved_ids":[],"snapshots":{"auc":"AAAAAAAA+H8=","brier":"AAAAAAAA4j8=",'
    '"cvar":"AAAAAAAA4D8=","drift_score":"BAAAAAAA4D8=","ece":"AAAAAAAA6D8=","n":[1],'
    '"period":[1],"posterior_mean":"VVVVVVVV5T8=","regret_cumulative":"AAAAAAAA+H8=",'
    '"regret_rate":"AAAAAAAA+H8=","sequence":[0],"var":"AAAAAAAA4D8="},"stale_pairs":0}}\n')


# the same one-pair run saved by the last v7 engine: the alarm state and
# streaks in "alarm", and each alarm record's state and breached in "snapshots"
V7_DOCUMENT = (
    '{"sha256":"98843c53b997e07d53ac37432c495beb6faed781d4500372b6c609cf056c785a",'
    '"state":{"acc":{"losses":"","probs":"","regrets":"","ys":""},"alarm":{"breach_streak":1,'
    '"clean_streak":0,"state":"review"},"alpha":0.95,"baseline":[2.0,1.0],'
    '"engine_version":7,"events_seen":1,"last_event_seq":0,"lines_consumed":0,"n_bins":10,'
    '"open_time":null,"outcomes_seen":1,"pending":{"action_id":[],"cohort":[],'
    '"event_id":[],"model_version":[],"period":[],"predicted_prob":"","sequence":[]},'
    '"policy":{"conjunctive":false,"consecutive_for_review":1,"consecutive_for_suspend":3,'
    '"cvar_max":0.13,"drift_min":null,"ece_max":0.045,"recovery_periods":2,'
    '"regret_rate_max":null},"resolved_ids":[],"snapshots":{"auc":"AAAAAAAA+H8=",'
    '"breached":[["ece","cvar"]],"brier":"AAAAAAAA4j8=","cvar":"AAAAAAAA4D8=",'
    '"drift_score":"BAAAAAAA4D8=","ece":"AAAAAAAA6D8=","n":[1],"period":[1],'
    '"posterior_mean":"VVVVVVVV5T8=","regret_cumulative":"AAAAAAAA+H8=",'
    '"regret_rate":"AAAAAAAA+H8=","sequence":[0],"state":["review"],'
    '"var":"AAAAAAAA4D8="},"stale_pairs":0}}\n')


# the same one-pair run saved by the last v8 engine: the baseline, the
# stream counts and each closed period's belief stored
V8_DOCUMENT = (
    '{"sha256":"34e9698f3bf0d27ba8813a382a3fb66e904df57b4f03b74b6bc19f82cfac635a",'
    '"state":{"acc":{"losses":"","probs":"","regrets":"","ys":""},"alpha":0.95,'
    '"baseline":[2.0,1.0],"engine_version":8,"events_seen":1,"last_event_seq":0,'
    '"lines_consumed":0,"n_bins":10,"open_time":null,"outcomes_seen":1,'
    '"pending":{"action_id":[],"cohort":[],"event_id":[],"model_version":[],"period":[],'
    '"predicted_prob":"","sequence":[]},"policy":{"conjunctive":false,'
    '"consecutive_for_review":1,"consecutive_for_suspend":3,"cvar_max":0.13,'
    '"drift_min":null,"ece_max":0.045,"recovery_periods":2,"regret_rate_max":null},'
    '"resolved_ids":[],"snapshots":{"auc":"AAAAAAAA+H8=","brier":"AAAAAAAA4j8=",'
    '"cvar":"AAAAAAAA4D8=","drift_score":"BAAAAAAA4D8=","ece":"AAAAAAAA6D8=","n":[1],'
    '"period":[1],"posterior_mean":"VVVVVVVV5T8=","regret_cumulative":"AAAAAAAA+H8=",'
    '"regret_rate":"AAAAAAAA+H8=","sequence":[0],"var":"AAAAAAAA4D8="},"stale_pairs":0}}\n')


def mid_period_engine(output, upto=3_050, lag=50):
    """An engine part way through period 2 with each outcome `lag` events
    behind its event: closed history, open-period values and pending events."""
    engine = MonitorEngine()
    for i in range(upto):
        engine.observe_event(output.events[i])
        if i >= lag:
            engine.observe_outcome(output.outcomes[i - lag])
    return engine


def _set_acc(name, value):
    def mutate(state):
        state["acc"][name] = value
    return mutate


def _set_first(name, value):
    """Replace the first packed open-period value, keeping the length."""
    def mutate(state):
        typecode = _ACC[name][0]
        values = _unpack(state["acc"][name], typecode)
        values[0] = value
        state["acc"][name] = _pack(values, typecode)
    return mutate


def _set_metrics(value, *names):
    """Replace the first closed period's packed metrics, keeping the length."""
    def mutate(state):
        for name in names:
            values = _unpack(state["snapshots"][name], "d")
            values[0] = value
            state["snapshots"][name] = _pack(values, "d")
    return mutate


def _drop_last(column):
    def mutate(state):
        state["snapshots"][column].pop()
    return mutate


def _set(*path_and_value):
    """Set the state value at a path of keys and indexes."""
    *path, key, value = path_and_value

    def mutate(state):
        for step in path:
            state = state[step]
        state[key] = value
    return mutate


def _closed_periods(*periods):
    """Closed periods at these periods, each a copy of the first, and the
    open period above them all."""
    def mutate(state):
        table = state["snapshots"]
        for name, column in table.items():
            table[name] = (_pack(_unpack(column, "d")[:1] * len(periods), "d")
                           if isinstance(column, str) else column[:1] * len(periods))
        table["period"] = list(periods)
        state["open_time"][0] = max(periods) + 1
    return mutate


def _positives_above_n(state):
    table = state["snapshots"]
    table["positives"][0] = table["n"][0] + 1


def _swap_first_pending_seqs(state):
    seqs = state["pending"]["sequence"]
    seqs[0], seqs[1] = seqs[1], seqs[0]


class TestSnapshotIntegrity:
    def make(self, canonical_output, upto=3_000):
        engine = MonitorEngine()
        pairs = zip(canonical_output.events[:upto], canonical_output.outcomes[:upto])
        feed_engine(engine, enumerate((r for pair in pairs for r in pair), 1))
        return engine

    def test_mid_period_save_load_to_state(self, canonical_output):
        engine = mid_period_engine(canonical_output)
        assert engine.snapshots and engine._join.pending
        assert engine._acc_probs and engine._acc_regrets
        buf = io.StringIO()
        save_snapshot(engine, buf)
        assert load_snapshot(io.StringIO(buf.getvalue())).to_state() == engine.to_state()

    def test_document_is_the_canonical_state_it_hashes(self, canonical_output):
        engine = mid_period_engine(canonical_output)
        buf = io.StringIO()
        save_snapshot(engine, buf)
        canonical = json.dumps(engine.to_state(), sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        assert buf.getvalue() == (
            f'{{"sha256":"{digest}","state":{canonical}}}\n')

    RANGE = "engine state is malformed: .*out of range"
    MALFORMED = [
        (lambda state: 123, "an-integer", "engine state"),
        (lambda state: {"engine_version": ENGINE_STATE_VERSION}, "version-only",
         "engine state"),
        (_set_acc("probs", "not base64!"), "bad-base64", "engine state"),
        (_set_acc("losses", "AAAAAAAAAA=="), "bytes-not-a-multiple-of-8",
         "engine state"),
        (_set_acc("ys", "AQ=="), "unequal-open-period-values", "engine state"),
        (_drop_last("n"), "ragged-history-columns", "engine state"),
        (_set_first("ys", 7), "outcome-not-0-or-1", RANGE),
        (_set_first("probs", 1.5), "prob-above-1", RANGE),
        (_set_first("probs", -1e-300), "prob-below-0", RANGE),
        (_set_first("probs", math.nan), "prob-nan", RANGE),
        (_set_first("losses", math.inf), "loss-inf", RANGE),
        (_set_first("losses", math.nan), "loss-nan", RANGE),
        (_set_first("regrets", -math.inf), "regret-inf", RANGE),
        (_set_first("regrets", math.nan), "regret-nan", RANGE),
        (lambda state: state.update(lines_consumed=-1), "negative-lines-consumed",
         "engine state is malformed: .*lines_consumed must be an integer >= 0"),
        (lambda state: state["policy"].update(ece_max=math.nan), "policy-nan-bound",
         "engine state is malformed: .*ece_max"),
        (lambda state: state["policy"].update(ece_max=None, cvar_max=None),
         "policy-no-bound", "engine state is malformed: .*no metric is bounded"),
        (_set("pending", "action_id", 0, True), "pending-action-true",
         "engine state is malformed: .*action_id"),
        (_set("pending", "cohort", 0, ["icu"]), "pending-cohort-list",
         "engine state is malformed: .*cohort"),
        # values a type's rule refuses, which once loaded and failed later
        (_set("regret_cumulative", "abc"), "regret-cumulative-str",
         "engine state is malformed: .*regret_cumulative"),
        (_set("open_time", 0, "2"), "open-period-str", "engine state is malformed: .*period"),
        (_set("last_event_seq", "3049"), "last-event-seq-str",
         "engine state is malformed: .*last_event_seq must be an integer"),
        # a closed period's positive count, from which a load derives its
        # belief: an integer in [0, n], as the snapshot's rule says
        (_set("snapshots", "positives", 0, -1), "positives-negative",
         "engine state is malformed: .*positives must be"),
        (_positives_above_n, "positives-above-n",
         "engine state is malformed: .*positives must be"),
        (_set("snapshots", "positives", 0, 2.0), "positives-float",
         "engine state is malformed: .*positives must be"),
        (_set("snapshots", "positives", 0, True), "positives-true",
         "engine state is malformed: .*positives must be"),
        (_set("snapshots", "positives", 0, None), "positives-null",
         "engine state is malformed: .*positives must be"),
        # a packed metric column of the history that _pack() could not
        # have written: a list, 7 bytes, text that is not base64
        (_set("snapshots", "ece", [0.01]), "ece-list",
         "engine state is malformed: .*ece"),
        (_set("snapshots", "ece", "AAAAAAAAAA=="), "ece-7-bytes",
         "engine state is malformed: .*ece"),
        (_set("snapshots", "ece", "not base64!"), "ece-not-base64",
         "engine state is malformed: .*ece"),
        (_set("stale_pairs", -1), "negative-stale-pairs",
         "engine state is malformed: .*stale_pairs must be an integer >= 0"),
        (_set("snapshots", "n", 0, -3), "snapshot-n-negative",
         "engine state is malformed: .*n must be"),
        (_set("resolved_ids", 0, 7), "resolved-id-int",
         "engine state is malformed: .*event_id"),
        (_set("open_time", 1, "3000"), "last-sequence-str",
         "engine state is malformed: .*sequence"),
        (lambda state: state["acc"].update(probs="", ys="", losses="", regrets=""),
         "open-period-without-values", "engine state is malformed: .*open period"),
        # containers of a JSON type to_state() never writes, which once loaded
        # as no pending events or as the characters of an id
        (_set("pending", "event_id", {}), "pending-object",
         "engine state is malformed: .*event_id must be a list"),
        (_set("pending", ""), "pending-str",
         "engine state is malformed: .*pending must be a dict"),
        (_set("resolved_ids", "ev-0"), "resolved-ids-str",
         "engine state is malformed: .*resolved_ids must be a list"),
        (lambda state: state.update(resolved_ids=dict.fromkeys(state["resolved_ids"])),
         "resolved-ids-object", "engine state is malformed: .*resolved_ids must be a list"),
        # keys and columns to_state() never writes, which once loaded unread
        (_set("acc", "junk", ""), "acc-extra-key",
         "engine state is malformed: .*'acc.junk' is not as to_state"),
        (_set("snapshots", "ece_old", [1]), "snapshots-extra-column",
         "engine state is malformed: .*'snapshots.ece_old' is not as to_state"),
        # what a load derives (the belief, from the counts; the stream counts,
        # from the tables) is not stored, so a stored copy, which could
        # contradict them, is a key to_state() never writes
        (_set("baseline", [5.0, 7.0]), "baseline-key",
         "engine state is malformed: .*'baseline' is not as to_state"),
        (_set("snapshots", "drift_score", "AAAAAAAA4D8="), "drift-score-column",
         "engine state is malformed: .*'snapshots.drift_score' is not as to_state"),
        (_set("outcomes_seen", 0), "outcomes-seen-key",
         "engine state is malformed: .*'outcomes_seen' is not as to_state"),
        (_set("events_seen", "3050"), "events-seen-str",
         "engine state is malformed: .*'events_seen' is not as to_state"),
        # the alarm is replayed from the snapshots, so a stored alarm state
        # or alarm record (the v7 layout), which could contradict the
        # metrics, is a key to_state() never writes
        (_set("alarm", {"breach_streak": 0, "clean_streak": 1, "state": "normal"}),
         "alarm-key", "engine state is malformed: .*'alarm' is not as to_state"),
        (_set("snapshots", "state", ["normal"]), "state-column",
         "engine state is malformed: .*'snapshots.state' is not as to_state"),
        (_set("snapshots", "breached", [[]]), "breached-column",
         "engine state is malformed: .*'snapshots.breached' is not as to_state"),
        (_set("snapshots", "breached", [[5]]), "breached-int",
         "engine state is malformed: .*'snapshots.breached' is not as to_state"),
        # v7 alarm fields that were themselves malformed are refused all the same
        (_set("alarm", {"breach_streak": "0", "clean_streak": 0, "state": "normal"}),
         "breach-streak-str",
         "engine state is malformed: .*'alarm' is not as to_state"),
        (_set("snapshots", "state", []), "alarm-column-short",
         "engine state is malformed: .*'snapshots.state' is not as to_state"),
        # a closed period the policy cannot judge, which no close could have
        # made: a replay of it raises NoMetrics
        (_set_metrics(math.nan, "ece", "cvar"), "snapshot-unjudgeable",
         "engine state is malformed: .*no enabled metric is defined"),
        # a closed period's metric outside every value a close computes, one
        # row per range rule (the belief's two are derived, not stored)
        (_set_metrics(5.0, "ece"), "ece-above-1",
         r"engine state is malformed: .*ece must be a number in \[0.0, 1.0\]"),
        (_set_metrics(-3.0, "brier"), "brier-below-0",
         r"engine state is malformed: .*brier must be a number in \[0.0, 1.0\]"),
        (_set_metrics(-1.0, "regret_cumulative"), "regret-cumulative-negative",
         r"engine state is malformed: .*regret_cumulative must be a number in "
         r"\[0.0, inf\]"),
        (_set_metrics(math.inf, "var"), "var-inf",
         "engine state is malformed: .*var must be a number in .*got inf"),
        (lambda state: state["resolved_ids"].reverse(), "resolved-ids-unsorted",
         "engine state is malformed: .*'resolved_ids' is not as to_state"),
        # states no intake builds, which once loaded: the closes commit
        # rising periods below the open one, and the joiner holds each id
        # once, its pending events in rising seq order, the last seq at least
        # theirs
        (_closed_periods(2, 1, 3), "closed-periods-out-of-order",
         "engine state is malformed: .*closed period 1 would reopen history"),
        (_closed_periods(1, 1, 3), "closed-period-repeated",
         "engine state is malformed: .*closed period 1 would reopen history"),
        (_set("snapshots", "period", [2]), "closed-period-at-the-open-one",
         "engine state is malformed: .*open period 2 would reopen history"),
        (_set("snapshots", "period", [3]), "closed-period-above-the-open-one",
         "engine state is malformed: .*open period 2 would reopen history"),
        (lambda state: state.update(resolved_ids=sorted(
            state["resolved_ids"] + state["pending"]["event_id"][:1])),
         "id-pending-and-resolved", "engine state is malformed: .*duplicate event_id"),
        (_swap_first_pending_seqs, "pending-seqs-not-rising",
         "engine state is malformed: .*out-of-order event"),
        (lambda state: state.update(last_event_seq=state["pending"]["sequence"][-1] - 1),
         "last-event-seq-below-pending",
         "engine state is malformed: .*'last_event_seq' is not as to_state"),
    ]

    @pytest.mark.parametrize("mutate,match", [(m, f) for m, _, f in MALFORMED],
                             ids=[i for _, i, _ in MALFORMED])
    def test_malformed_state_with_valid_checksum(self, canonical_output, mutate,
                                                 match):
        state = mid_period_engine(canonical_output).to_state()
        with pytest.raises(CorruptSnapshot, match=match):
            load_snapshot(checksummed(mutate(state) or state))

    def test_falling_snapshot_sequences_load(self):
        # the joiner needs rising seqs, not rising periods: events at periods
        # 1, 2, 1 close period 1 at seq 2 and then period 2 at seq 1
        engine = MonitorEngine()
        for i, period in enumerate([1, 2, 1]):
            engine.observe_event(PredictionEvent(f"e{i}", TimeIndex(period, i), 0.5))
        for i in (0, 2, 1):
            engine.observe_outcome(OutcomeRecord(f"e{i}", 1, 0.5))
        engine.finalize()
        assert [s.time for s in engine.snapshots] == [TimeIndex(1, 2), TimeIndex(2, 1)]
        first, second = io.StringIO(), io.StringIO()
        save_snapshot(engine, first)
        save_snapshot(load_snapshot(io.StringIO(first.getvalue())), second)
        assert second.getvalue() == first.getvalue()

    def test_inf_regret_rate_round_trips(self):
        # finite losses whose spread overflows: the regret rate is inf, which
        # to_state() writes, so a load must take it back
        engine = MonitorEngine(policy=ThresholdPolicy(regret_rate_max=1.0))
        engine.observe_event(PredictionEvent("a", TimeIndex(1, 0), 0.5, action_id=0))
        engine.observe_outcome(OutcomeRecord("a", 1, 1e308, (1e308, -1e308)))
        engine.finalize()
        assert engine.snapshots[0].regret_rate == math.inf
        buf = io.StringIO()
        save_snapshot(engine, buf)
        assert load_snapshot(io.StringIO(buf.getvalue())).to_state() == engine.to_state()

    def test_save_refuses_a_token_strict_json_lacks(self):
        # no value the types accept needs one; a bound forced past the
        # policy's rule fails the save instead of writing Infinity
        engine = MonitorEngine()
        object.__setattr__(engine.policy, "ece_max", math.inf)
        buf = io.StringIO()
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_snapshot(engine, buf)
        assert buf.getvalue() == ""

    def test_inf_open_period_regret_round_trips(self):
        # a step's regret overflows to +inf from finite losses; to_state()
        # packs it among the open period's values, so a load must take it back
        engine = MonitorEngine()
        engine.observe_event(PredictionEvent("a", TimeIndex(1, 0), 0.5, action_id=0))
        engine.observe_outcome(OutcomeRecord("a", 1, 1e308, (1e308, -1e308)))
        assert list(engine._acc_regrets) == [math.inf]
        buf = io.StringIO()
        save_snapshot(engine, buf)
        assert load_snapshot(io.StringIO(buf.getvalue())).to_state() == engine.to_state()

    def test_failed_save_keeps_previous_snapshot(self, canonical_output, tmp_path,
                                                 monkeypatch):
        path = tmp_path / "state.json"
        engine = self.make(canonical_output)
        save_snapshot_file(engine, path)
        before = engine.to_state()

        def torn(engine, fp):
            fp.write('{"sha256":')
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(eventlog, "save_snapshot", torn)
        engine.finalize()
        with pytest.raises(OSError, match="No space"):
            save_snapshot_file(engine, path)
        assert os.listdir(tmp_path) == ["state.json"]
        assert load_snapshot_file(path).to_state() == before

    def test_save_syncs_the_temp_file_before_the_rename(self, canonical_output,
                                                         tmp_path, monkeypatch):
        path = tmp_path / "state.json"
        calls = []

        def fsync(fd):
            st = os.fstat(fd)
            calls.append(("fsync", st.st_ino, st.st_size))

        def replace(src, dst):
            st = os.stat(src)
            calls.append(("replace", st.st_ino, st.st_size))
            real_replace(src, dst)

        real_replace = os.replace
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        save_snapshot_file(self.make(canonical_output), path)
        # one fsync of the whole temp file (so after the flush), the rename,
        # then one fsync of the directory, which makes the rename durable
        size = path.stat().st_size
        assert [c[0] for c in calls] == ["fsync", "replace", "fsync"]
        assert calls[0][1:] == calls[1][1:] == (path.stat().st_ino, size)
        assert calls[2][1] == tmp_path.stat().st_ino

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
        doc["state"]["lines_consumed"] += 1
        with pytest.raises(CorruptSnapshot, match="checksum"):
            load_snapshot(io.StringIO(json.dumps(doc)))

    def test_version_bump_detected(self, canonical_output):
        state = self.make(canonical_output).to_state()
        state["engine_version"] = ENGINE_STATE_VERSION + 1
        with pytest.raises(VersionMismatch, match=f"{ENGINE_STATE_VERSION + 1}"):
            load_snapshot(checksummed(state))

    def test_a_version_6_document_is_refused(self):
        # one pair closed in one period, saved by the last v6 engine: the
        # alarm history apart from the snapshots, and a format_version
        with pytest.raises(VersionMismatch, match="version 6 "):
            load_snapshot(io.StringIO(V6_DOCUMENT))

    def test_a_version_7_document_is_refused(self):
        with pytest.raises(VersionMismatch, match="version 7 "):
            load_snapshot(io.StringIO(V7_DOCUMENT))

    def test_a_version_8_document_is_refused(self):
        with pytest.raises(VersionMismatch, match="version 8 "):
            load_snapshot(io.StringIO(V8_DOCUMENT))

    def test_unknown_document_key_is_refused(self, canonical_output):
        buf = io.StringIO()
        save_snapshot(mid_period_engine(canonical_output), buf)
        doc = json.loads(buf.getvalue())
        doc["format_version"] = 1
        with pytest.raises(CorruptSnapshot, match="document key 'format_version'"):
            load_snapshot(io.StringIO(json.dumps(doc)))

    @pytest.mark.parametrize("finalized", [False, True], ids=["mid-period", "finalized"])
    def test_load_then_save_gives_the_same_bytes(self, canonical_output, finalized):
        engine = mid_period_engine(canonical_output)
        if finalized:
            engine.finalize()
        first, second = io.StringIO(), io.StringIO()
        save_snapshot(engine, first)
        save_snapshot(load_snapshot(io.StringIO(first.getvalue())), second)
        assert second.getvalue() == first.getvalue()

    def test_not_json(self):
        with pytest.raises(CorruptSnapshot):
            load_snapshot(io.StringIO("junk"))

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_bytes(b'\xff{"sha256": "00"}')
        with pytest.raises(CorruptSnapshot, match="UTF-8"):
            load_snapshot_file(path)

    def test_missing_keys(self):
        with pytest.raises(CorruptSnapshot):
            load_snapshot(io.StringIO('{"sha256": "00"}'))


@pytest.fixture(scope="module")
def run(canonical_output):
    from riskwatch.simulator import run_monitor

    return run_monitor(canonical_output)


def report_text(rows: list[dict], fmt: str) -> str:
    """rows as a report, written as emit_report writes them, whatever they hold."""
    if fmt == "json":
        return json.dumps({"columns": list(REPORT_COLUMNS), "rows": rows})
    cells = (("" if v is None else str(v) for v in row.values()) for row in rows)
    return "\n".join([",".join(REPORT_COLUMNS), *map(",".join, cells)]) + "\n"


# a cell outside what its column's rule allows, for every column
OUT_OF_RANGE = [
    ("period", 0), ("period", -3), ("n", 0), ("auc", math.nan), ("ece", -5.0),
    ("ece", 1.5), ("brier", math.inf), ("var", math.inf), ("cvar", -math.inf),
    ("regret_cumulative", -1.0), ("regret_rate", math.nan), ("posterior_mean", 2.0),
    ("drift_score", 0.25), ("alarm_state", "bogus"),
]


@st.composite
def snapshots(draw):
    """A snapshot with metrics drawn in range: inf regrets, and undefined
    metrics (at least one defined)."""
    def metric(name):
        least, most = _METRIC_RANGES[name]
        values = st.floats(least, most)
        return st.none() | (values | st.just(math.inf) if most == math.inf else values)

    names = MetricSnapshot.METRIC_FIELDS
    values = draw(st.fixed_dictionaries({name: metric(name) for name in names}).filter(
        lambda values: any(v is not None for v in values.values())))
    n = draw(st.integers(1, 10**9))
    return MetricSnapshot(TimeIndex(draw(st.integers(1, 10**6)), 0), n,
                          draw(st.integers(0, n)), **values)


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
        with pytest.raises(ValueError, match="unknown report format 'xml'"):
            read_report(emit_report(snaps, hist, fmt="csv"), fmt="xml")

    def test_bad_header_rejected(self):
        with pytest.raises(SchemaError):
            read_report("a,b,c\n1,2,3\n", fmt="csv")

    @pytest.mark.parametrize("cut", [lambda row: row.rsplit(",", 1)[0],
                                     lambda row: row + ",1.0"], ids=["short", "long"])
    def test_csv_row_of_the_wrong_width_rejected(self, run, cut):
        snaps, hist = run
        lines = emit_report(snaps, hist, fmt="csv").splitlines(True)
        lines[2] = cut(lines[2].rstrip("\n")) + "\n"
        with pytest.raises(SchemaError, match="row 2"):
            read_report("".join(lines), fmt="csv")

    # a cell is read only in the text emit_report writes: "03" is not the 3
    # it writes, nor "1E-05", "Infinity" or "0.50" the float
    @pytest.mark.parametrize("col, cell", [
        ("period", "x"), ("n", "1.0"), ("ece", "abc"), ("period", "03"), ("ece", "1E-05"),
        ("regret_cumulative", "Infinity"), ("ece", "0.50"),
    ])
    def test_csv_cell_that_is_not_a_number_rejected(self, run, col, cell):
        snaps, hist = run
        lines = emit_report(snaps, hist, fmt="csv").splitlines(True)
        cells = lines[2].split(",")
        cells[REPORT_COLUMNS.index(col)] = cell
        lines[2] = ",".join(cells)
        with pytest.raises(SchemaError, match=f"row 2: column '{col}'"):
            read_report("".join(lines), fmt="csv")

    @pytest.mark.parametrize("col, cell", [
        ("period", "x"), ("period", 1.0), ("n", True), ("ece", "abc"), ("auc", False),
        ("alarm_state", 7),
    ])
    def test_json_cell_of_the_wrong_type_rejected(self, run, col, cell):
        # the CSV rule: an integer, a string or a number by column, or None
        snaps, hist = run
        doc = json.loads(emit_report(snaps, hist, fmt="json"))
        doc["rows"][1][col] = cell
        with pytest.raises(SchemaError, match=f"row 2: column '{col}': "):
            read_report(json.dumps(doc), fmt="json")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("col, value", OUT_OF_RANGE)
    def test_cell_out_of_its_range_rejected(self, run, fmt, col, value):
        snaps, hist = run
        rows = report_rows(snaps, hist)
        rows[1][col] = value
        with pytest.raises(SchemaError, match=f"report row 2: column '{col}': "):
            read_report(report_text(rows, fmt), fmt=fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("line, cells, col", [
        ("1,10,nan,-5.0,,,,,,,,normal", [1, 10, math.nan, -5.0], "auc"),
        ("-3,0,,0.1,,,,,,,,bogus", [-3, 0, None, 0.1], "period"),
        # int and float take a sign, an underscore and spaces; emit_report writes none
        ("+3,1_0,, 0.5 ,,,,,,,,normal", ["+3", "1_0", None, " 0.5 "], "period"),
    ])
    def test_rows_emit_report_cannot_write_rejected(self, fmt, line, cells, col):
        # both once read back: auc nan and ece -5.0; period -3, n 0 and
        # alarm_state 'bogus'
        good = [1, 10, None, 0.1] + [None] * 7 + ["normal"]
        bad = cells + [None] * 7 + [line.rsplit(",", 1)[1]]
        rows = [dict(zip(REPORT_COLUMNS, good)), dict(zip(REPORT_COLUMNS, bad))]
        assert report_text(rows, "csv").splitlines()[2] == line
        with pytest.raises(SchemaError, match=f"report row 2: column '{col}': "):
            read_report(report_text(rows, fmt), fmt=fmt)

    @given(st.lists(snapshots(), min_size=1, max_size=4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_reads_back_every_report_emit_writes(self, snaps, data):
        states = st.one_of(st.none(), st.sampled_from(OperatingState))
        hist = [AlarmRecord(snap.time, state, ()) for snap in snaps
                if (state := data.draw(states)) is not None]
        rows = report_rows(snaps, hist)
        for fmt in ("csv", "json"):
            assert repr(read_report(emit_report(snaps, hist, fmt), fmt)) == repr(rows)
        # and a CSV report emits back from its rows to the same bytes
        text = emit_report(snaps, hist)
        rows = read_report(text)
        again = [MetricSnapshot(TimeIndex(row["period"], 0), row["n"],
                                **{name: row[name] for name in MetricSnapshot.METRIC_FIELDS})
                 for row in rows]
        states = [AlarmRecord(TimeIndex(row["period"], 0), OperatingState(row["alarm_state"]), ())
                  for row in rows if row["alarm_state"] is not None]
        assert emit_report(again, states) == text

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.pop("rows"),
        lambda doc: doc["rows"].__setitem__(0, list(doc["rows"][0].values())),
        lambda doc: doc["rows"][0].pop("ece"),
        lambda doc: doc["columns"].reverse(),
        lambda doc: doc.pop("columns"),
    ], ids=["no-rows", "row-list", "row-short", "columns-reordered", "no-columns"])
    def test_json_schema_follows_the_csv_rule(self, run, edit):
        snaps, hist = run
        doc = json.loads(emit_report(snaps, hist, fmt="json"))
        edit(doc)
        with pytest.raises(SchemaError):
            read_report(json.dumps(doc), fmt="json")


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

    @pytest.mark.parametrize("settings", BAD_POLICIES, ids=BAD_POLICY_IDS)
    def test_bad_policy_values_wrapped(self, settings):
        config = default_config()
        config["policy"].update(settings)
        with pytest.raises(BadConfig, match=f"bad policy settings: {next(iter(settings))}"):
            policy_from_config(config)

    @pytest.mark.parametrize("key,value", [
        ("n_bins", 0), ("n_bins", True), ("n_bins", 2.5), ("n_bins", "10"),
        ("alpha", 0.0), ("alpha", 1.0), ("alpha", 1.5), ("alpha", float("nan")),
        ("alpha", "0.9"),
    ])
    def test_bad_monitor_settings_wrapped(self, key, value):
        config = default_config()
        config["monitor"][key] = value
        with pytest.raises(BadConfig, match=f"bad monitor settings: {key}"):
            engine_from_config(config)
