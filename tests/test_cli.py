"""CLI contract: exit codes, file layout, resumable runs, stdin, env config."""

import json
import os

import pytest

from riskwatch.cli import EXIT_ALARM, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from riskwatch.eventlog import CONFIG_ENV_VAR, default_config


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("sim")
    code = main(["simulate", "--out", str(d)])
    assert code == EXIT_OK
    return d


@pytest.fixture(scope="module")
def small_cfg(tmp_path_factory):
    """A short pre-drift deployment: everything should stay in the normal state."""
    p = tmp_path_factory.mktemp("cfg") / "small.json"
    p.write_text(json.dumps({
        "scenario": {"periods": 4, "patients_per_period": 300, "seed": 9},
    }))
    return p


class TestSimulate:
    def test_file_layout(self, sim_dir):
        names = sorted(os.listdir(sim_dir))
        assert names == ["config.json", "events.ndjson", "report.csv", "state.json"]

    def test_log_is_paired_lines(self, sim_dir):
        lines = (sim_dir / "events.ndjson").read_text().splitlines()
        assert len(lines) == 2 * 12 * 2000
        first, second = json.loads(lines[0]), json.loads(lines[1])
        assert first["kind"] == "prediction"
        assert second["kind"] == "outcome"
        assert second["event_id"] == first["event_id"]

    def test_config_records_resolved_scenario(self, sim_dir):
        config = json.loads((sim_dir / "config.json").read_text())
        assert config["scenario"]["seed"] == 42
        assert config["scenario"]["periods"] == 12

    def test_seed_override_changes_log(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path / "a"),
                     "--seed", "7"]) == EXIT_OK
        a = (tmp_path / "a" / "events.ndjson").read_text()
        assert json.loads(a.splitlines()[0])["prob"] != pytest.approx(0.0, abs=0)
        assert json.loads((tmp_path / "a" / "config.json").read_text()
                          )["scenario"]["seed"] == 7

    def test_replicates_layout_and_summary(self, tmp_path, small_cfg):
        out = tmp_path / "reps"
        assert main(["simulate", "--scenario", str(small_cfg),
                     "--out", str(out), "--replicates", "2"]) == EXIT_OK
        assert sorted(os.listdir(out)) == ["seed-10", "seed-9", "summary.json"]
        summary = json.loads((out / "summary.json").read_text())
        assert [r["seed"] for r in summary] == [9, 10]
        assert all(r["periods"] == 4 for r in summary)
        assert all(r["end_state"] == "normal" for r in summary)
        assert all(r["first_breach_period"] is None for r in summary)

    def test_replicates_must_be_positive(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path),
                     "--replicates", "0"]) == EXIT_USAGE
        assert "--replicates" in capsys.readouterr().err

    def test_unknown_scenario(self, tmp_path, capsys):
        assert main(["simulate", "--scenario", "weather",
                     "--out", str(tmp_path)]) == EXIT_DATA
        assert "weather" in capsys.readouterr().err

    def test_named_preset_accepted(self, tmp_path):
        out = tmp_path / "icu"
        cfg = {"scenario": {"periods": 2, "patients_per_period": 200}}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        assert main(["simulate", "--scenario", str(p), "--out", str(out)]) == EXIT_OK
        assert (out / "report.csv").exists()


class TestMonitor:
    def test_matches_simulate_report_and_exits_alarm(self, sim_dir, tmp_path):
        out = tmp_path / "mon"
        code = main(["monitor", "--in", str(sim_dir / "events.ndjson"),
                     "--out", str(out)])
        assert code == EXIT_ALARM
        assert (out / "report.csv").read_bytes() == (
            sim_dir / "report.csv").read_bytes()

    def test_quiet_deployment_exits_zero(self, tmp_path, small_cfg):
        sim = tmp_path / "s"
        assert main(["simulate", "--scenario", str(small_cfg),
                     "--out", str(sim)]) == EXIT_OK
        assert main(["monitor", "--in", str(sim / "events.ndjson"),
                     "--out", str(tmp_path / "m")]) == EXIT_OK

    def test_report_to_stdout_by_default(self, sim_dir, capsys):
        code = main(["monitor", "--in", str(sim_dir / "events.ndjson"),
                     "--format", "json"])
        assert code == EXIT_ALARM
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["rows"]) == 12

    def test_stdin_input(self, sim_dir, tmp_path, monkeypatch, capsys):
        lines = (sim_dir / "events.ndjson").read_text().splitlines(True)[:2 * 2000 * 2]
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("".join(lines)))
        assert main(["monitor", "--in", "-"]) == EXIT_OK
        assert "period" in capsys.readouterr().out

    def test_missing_log(self, tmp_path, capsys):
        assert main(["monitor", "--in", str(tmp_path / "nope.ndjson")]) == EXIT_DATA
        assert "error" in capsys.readouterr().err

    def test_strict_bad_line(self, tmp_path, capsys):
        log = tmp_path / "bad.ndjson"
        log.write_text('{"kind": "prediction"}\n')
        assert main(["monitor", "--in", str(log), "--strict"]) == EXIT_DATA
        assert "line 1" in capsys.readouterr().err

    def test_lenient_all_bad_is_empty_report(self, tmp_path, capsys):
        log = tmp_path / "bad.ndjson"
        log.write_text("not json\nnot json either\n")
        assert main(["monitor", "--in", str(log)]) == EXIT_DATA
        assert "no closed periods" in capsys.readouterr().err

    def test_policy_file_relaxes_thresholds(self, sim_dir, tmp_path):
        policy = tmp_path / "lax.json"
        policy.write_text(json.dumps({"policy": {
            "ece_max": 10.0, "cvar_max": 10.0, "regret_rate_max": 10.0,
            "drift_min": 10.0,
        }}))
        assert main(["monitor", "--in", str(sim_dir / "events.ndjson"),
                     "--policy", str(policy),
                     "--out", str(tmp_path / "m")]) == EXIT_OK

    def test_env_config_tightens_thresholds(self, tmp_path, small_cfg,
                                            monkeypatch):
        sim = tmp_path / "s"
        assert main(["simulate", "--scenario", str(small_cfg),
                     "--out", str(sim)]) == EXIT_OK
        strictest = tmp_path / "strict.json"
        strictest.write_text(json.dumps({"policy": {
            "cvar_max": 1e-12, "consecutive_for_suspend": 1,
        }}))
        monkeypatch.setenv(CONFIG_ENV_VAR, str(strictest))
        assert main(["monitor", "--in", str(sim / "events.ndjson"),
                     "--out", str(tmp_path / "m")]) == EXIT_ALARM


class TestReplayResume:
    def test_interrupted_run_resumes_bit_identical(self, sim_dir, tmp_path):
        full_log = sim_dir / "events.ndjson"
        lines = full_log.read_text().splitlines(True)
        partial = tmp_path / "partial.ndjson"
        partial.write_text("".join(lines[:24_000]))  # mid deployment

        part_dir = tmp_path / "part"
        code = main(["monitor", "--in", str(partial), "--out", str(part_dir),
                     "--no-finalize"])
        assert code == EXIT_OK  # breach comes later

        resume_dir = tmp_path / "resumed"
        code = main(["replay", "--snapshot", str(part_dir / "state.json"),
                     "--in", str(full_log), "--out", str(resume_dir)])
        assert code == EXIT_ALARM
        assert (resume_dir / "report.csv").read_bytes() == (
            sim_dir / "report.csv").read_bytes()
        assert (resume_dir / "state.json").read_bytes() == (
            sim_dir / "state.json").read_bytes()

    def test_checkpoint_saved_before_first_close(self, sim_dir, tmp_path, capsys):
        full_log = sim_dir / "events.ndjson"
        lines = full_log.read_text().splitlines(True)
        partial = tmp_path / "partial.ndjson"
        partial.write_text("".join(lines[:3_001]))  # period 1, still open

        part_dir = tmp_path / "part"
        code = main(["monitor", "--in", str(partial), "--out", str(part_dir),
                     "--no-finalize"])
        assert code == EXIT_DATA  # nothing closed yet, so no report
        assert "no closed periods" in capsys.readouterr().err
        assert (part_dir / "state.json").exists()

        whole_dir = tmp_path / "whole"
        assert main(["monitor", "--in", str(full_log),
                     "--out", str(whole_dir)]) == EXIT_ALARM
        resume_dir = tmp_path / "resumed"
        assert main(["replay", "--snapshot", str(part_dir / "state.json"),
                     "--in", str(full_log), "--out", str(resume_dir)]) == EXIT_ALARM
        assert (resume_dir / "report.csv").read_bytes() == (
            whole_dir / "report.csv").read_bytes()

    def test_partial_report_covers_closed_periods_only(self, sim_dir, tmp_path):
        lines = (sim_dir / "events.ndjson").read_text().splitlines(True)
        partial = tmp_path / "partial.ndjson"
        partial.write_text("".join(lines[:24_000]))
        out = tmp_path / "part"
        main(["monitor", "--in", str(partial), "--out", str(out),
              "--no-finalize"])
        text = (out / "report.csv").read_text()
        assert len(text.splitlines()) == 1 + 5  # header + periods 1..5

    def test_corrupt_snapshot(self, tmp_path, capsys):
        snap = tmp_path / "state.json"
        snap.write_text('{"format_version": 1, "sha256": "00", "state": {}}')
        assert main(["replay", "--snapshot", str(snap),
                     "--in", str(tmp_path / "x")]) == EXIT_DATA
        assert "checksum" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_lines(tmp_path_factory, small_cfg):
    """The lines of the small deployment's log: 4 periods of 300 events,
    each outcome right after its event, so 600 lines per period."""
    d = tmp_path_factory.mktemp("small")
    assert main(["simulate", "--scenario", str(small_cfg), "--out", str(d)]) == EXIT_OK
    return (d / "events.ndjson").read_text().splitlines(True)


def write(path, lines):
    path.write_text("".join(lines))
    return str(path)


class TestLineAddressedReplay:
    """replay skips the lines its snapshot consumed, not a record count."""

    ORPHAN = '{"kind": "outcome", "event_id": "ghost", "y": 0, "loss": 0.1}\n'

    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    def test_resume_over_skipped_lines_is_exact(self, small_lines, tmp_path, strict):
        # a bad JSON line, an orphan outcome and a blank line in the prefix;
        # counting records instead of lines re-fed the outcome of event 749
        lines = small_lines
        full = (lines[:300] + ["{not json\n"] + lines[300:600] + [self.ORPHAN]
                + lines[600:900] + ["\n"] + lines[900:])
        log = write(tmp_path / "full.ndjson", full)
        prefix = write(tmp_path / "prefix.ndjson", full[:1503])  # mid period 3

        whole = tmp_path / "whole"
        assert main(["monitor", "--in", log, "--out", str(whole)]) == EXIT_OK
        part = tmp_path / "part"
        assert main(["monitor", "--in", prefix, "--out", str(part),
                     "--no-finalize"]) == EXIT_OK
        resumed = tmp_path / "resumed"
        argv = ["replay", "--snapshot", str(part / "state.json"), "--in", log,
                "--out", str(resumed)]
        assert main(argv + ["--strict"] * strict) == EXIT_OK
        for name in ("report.csv", "state.json"):
            assert (resumed / name).read_bytes() == (whole / name).read_bytes()

    def test_truncated_log_is_refused(self, small_lines, tmp_path, capsys):
        part = tmp_path / "part"
        assert main(["monitor", "--in", write(tmp_path / "p.ndjson", small_lines[:1500]),
                     "--out", str(part), "--no-finalize"]) == EXIT_OK
        rotated = write(tmp_path / "rotated.ndjson", small_lines[:1000])
        assert main(["replay", "--snapshot", str(part / "state.json"),
                     "--in", rotated]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "1000" in err and "1500" in err

    def test_line_numbers_count_from_the_top_of_the_log(
        self, small_lines, tmp_path, capsys, caplog
    ):
        full = small_lines[:1700] + ["{bad\n"] + small_lines[1700:]
        log = write(tmp_path / "full.ndjson", full)
        part = tmp_path / "part"
        assert main(["monitor", "--in", write(tmp_path / "p.ndjson", full[:1500]),
                     "--out", str(part), "--no-finalize"]) == EXIT_OK
        snapshot = str(part / "state.json")

        with caplog.at_level("WARNING"):
            assert main(["replay", "--snapshot", snapshot, "--in", log]) == EXIT_OK
        assert "event log line 1701 skipped" in caplog.text
        capsys.readouterr()
        assert main(["replay", "--snapshot", snapshot, "--in", log,
                     "--strict"]) == EXIT_DATA
        assert "line 1701:" in capsys.readouterr().err

    def test_trailing_partial_line_left_for_replay(self, small_lines, tmp_path):
        log = write(tmp_path / "full.ndjson", small_lines)
        # the writer is part way through line 1501 (an event line)
        partial = write(tmp_path / "p.ndjson", small_lines[:1500] + [small_lines[1500][:30]])
        part = tmp_path / "part"
        assert main(["monitor", "--in", partial, "--out", str(part),
                     "--no-finalize"]) == EXIT_OK
        state = json.loads((part / "state.json").read_text())["state"]
        assert state["lines_consumed"] == 1500

        whole, resumed = tmp_path / "whole", tmp_path / "resumed"
        assert main(["monitor", "--in", log, "--out", str(whole)]) == EXIT_OK
        assert main(["replay", "--snapshot", str(part / "state.json"), "--in", log,
                     "--out", str(resumed)]) == EXIT_OK
        for name in ("report.csv", "state.json"):
            assert (resumed / name).read_bytes() == (whole / name).read_bytes()

    def test_final_run_consumes_unterminated_last_line(self, small_lines, tmp_path):
        unterminated = small_lines[:-1] + [small_lines[-1].rstrip("\n")]
        out = tmp_path / "m"
        assert main(["monitor", "--in", write(tmp_path / "u.ndjson", unterminated),
                     "--out", str(out)]) == EXIT_OK
        state = json.loads((out / "state.json").read_text())["state"]
        assert state["lines_consumed"] == len(small_lines)
        assert state["pending"] == []


class TestReport:
    def test_reemit_json(self, sim_dir, capsys):
        assert main(["report", "--in", str(sim_dir / "state.json"),
                     "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["rows"]) == 12
        assert doc["rows"][-1]["alarm_state"] == "suspended"

    def test_reemit_csv_matches_original(self, sim_dir, tmp_path):
        out = tmp_path / "again.csv"
        assert main(["report", "--in", str(sim_dir / "state.json"),
                     "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == (sim_dir / "report.csv").read_bytes()


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "simulate" in capsys.readouterr().out

    def test_no_subcommand(self, capsys):
        assert main([]) == EXIT_USAGE
        assert "subcommand is required" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["meditate"]) == EXIT_USAGE

    def test_missing_required_option(self, capsys):
        assert main(["simulate"]) == EXIT_USAGE
        assert "--out" in capsys.readouterr().err

    def test_print_defaults_round_trips(self, tmp_path, capsys):
        assert main(["--print-defaults"]) == EXIT_OK
        text = capsys.readouterr().out
        assert json.loads(text) == default_config()
        p = tmp_path / "defaults.json"
        p.write_text(text)
        from riskwatch.eventlog import load_config

        assert load_config(p) == default_config()
