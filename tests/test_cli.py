"""CLI contract: exit codes, file layout, resumable runs, stdin, env config."""

import builtins
import errno
import functools
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from riskwatch import cli
from riskwatch.alarms import AlarmState, ThresholdPolicy, evaluate
from riskwatch.cli import EXIT_ALARM, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from riskwatch.core import OutcomeRecord, PredictionEvent, TimeIndex
from riskwatch.eventlog import (CONFIG_ENV_VAR, default_config, load_snapshot_file,
                                log_line, read_report, save_snapshot_file, write_log)
from riskwatch.monitor import ENGINE_STATE_VERSION, _pack, _unpack
from riskwatch.simulator import ScenarioConfig, generate, preset


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


# the sha256 of the simulate log and state of the canonical scenario cut to
# 3 periods of 200 patients
SMALL_LOG_SHA256 = "129cd90d2e4750f75b9d0b7585958ad99f629a604ca24f6b8e7ecdf9b6293641"
SMALL_STATE_SHA256 = "364c3fd44f2f682f9234dc6ac4b6e7204db6f0ff2a936f54aabf13db9d46e6c8"


def refuse_constant(token):
    """json.loads's parse_constant for a strict parser: the NaN, Infinity
    and -Infinity tokens are not RFC 8259 JSON."""
    raise AssertionError(f"{token} is not RFC 8259 JSON")


def small_canonical_config(directory):
    path = directory / "c.json"
    path.write_text(json.dumps({"scenario": {"periods": 3, "patients_per_period": 200}}))
    return path


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

    def test_summary_breach_follows_the_conjunctive_rule(self, tmp_path):
        # ece alone goes over its bound from period 7, but under conjunctive
        # a period breaches only when cvar does too, which it never does
        cfg = tmp_path / "conj.json"
        cfg.write_text(json.dumps({
            "scenario": {"patients_per_period": 500},
            "policy": {"conjunctive": True, "ece_max": 0.045, "cvar_max": 0.5},
        }))
        out = tmp_path / "reps"
        assert main(["simulate", "--scenario", str(cfg), "--out", str(out),
                     "--replicates", "2"]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert [r["end_state"] for r in summary] == ["normal", "normal"]
        assert [r["first_breach_period"] for r in summary] == [None, None]

    def test_replicates_must_be_positive(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path),
                     "--replicates", "0"]) == EXIT_USAGE
        assert "--replicates" in capsys.readouterr().err

    def test_unknown_scenario(self, tmp_path, capsys):
        assert main(["simulate", "--scenario", "weather",
                     "--out", str(tmp_path)]) == EXIT_DATA
        assert "weather" in capsys.readouterr().err

    def test_env_config_sets_the_scenario_and_the_policy(self, tmp_path, monkeypatch):
        # RISKWATCH_CONFIG is read as --scenario naming the same file is: a
        # run of 2 x 100 patients under a cvar bound every period breaches,
        # not the canonical 12 x 2,000 under that bound
        cfg = tmp_path / "strict.json"
        cfg.write_text(json.dumps({
            "scenario": {"periods": 2, "patients_per_period": 100},
            "policy": {"cvar_max": 1e-12, "consecutive_for_suspend": 1}}))
        assert main(["simulate", "--scenario", str(cfg), "--out", str(tmp_path / "b")]) == EXIT_OK
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        assert main(["simulate", "--out", str(tmp_path / "a")]) == EXIT_OK
        assert files(tmp_path / "a") == files(tmp_path / "b")
        assert len((tmp_path / "a" / "events.ndjson").read_text().splitlines()) == 400
        report = read_report((tmp_path / "a" / "report.csv").read_text())
        assert [row["alarm_state"] for row in report] == ["review", "suspended"]

    def test_a_preset_name_replaces_only_the_scenario_section(self, tmp_path, monkeypatch):
        cfg = tmp_path / "strict.json"
        cfg.write_text(json.dumps({"scenario": {"periods": 2},
                                   "policy": {"cvar_max": 1e-12}}))
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        for name, shape in (("icu_tail", "icu_tail"), ("canonical", "sepsis_drift")):
            scenario, config = cli._resolve_scenario(name, None)
            assert scenario == preset(shape)
            assert config["policy"]["cvar_max"] == 1e-12

    def test_an_existing_path_is_a_config_file_before_a_preset_name(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("icu_tail").write_text(json.dumps({"scenario": {"periods": 3}}))
        assert cli._resolve_scenario("icu_tail", 5)[0] == ScenarioConfig(periods=3, seed=5)

    def test_small_canonical_log_is_pinned(self, tmp_path):
        assert main(["simulate", "--scenario", str(small_canonical_config(tmp_path)),
                     "--out", str(tmp_path / "s")]) == EXIT_OK
        digest = hashlib.sha256((tmp_path / "s" / "events.ndjson").read_bytes())
        assert digest.hexdigest() == SMALL_LOG_SHA256

    def test_small_canonical_state_is_pinned(self, tmp_path):
        assert main(["simulate", "--scenario", str(small_canonical_config(tmp_path)),
                     "--out", str(tmp_path / "s")]) == EXIT_OK
        digest = hashlib.sha256((tmp_path / "s" / "state.json").read_bytes())
        assert digest.hexdigest() == SMALL_STATE_SHA256

    @pytest.mark.parametrize("hash_seed", ["0", "4242"])
    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path, hash_seed):
        # a child interpreter under its own PYTHONHASHSEED writes the pinned
        # simulate log and state, and a monitor over that log the same state
        cfg = small_canonical_config(tmp_path)
        env = {k: v for k, v in os.environ.items() if k != CONFIG_ENV_VAR}
        env.update(PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
                   PYTHONHASHSEED=hash_seed)
        for argv in (["simulate", "--scenario", str(cfg), "--out", str(tmp_path / "sim")],
                     ["monitor", "--in", str(tmp_path / "sim" / "events.ndjson"),
                      "--out", str(tmp_path / "mon")]):
            proc = subprocess.run([sys.executable, "-m", "riskwatch.cli", *argv],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == EXIT_OK, proc.stderr
        digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                  for name in ("sim/events.ndjson", "sim/state.json", "mon/state.json")}
        assert digest == {"sim/events.ndjson": SMALL_LOG_SHA256,
                          "sim/state.json": SMALL_STATE_SHA256,
                          "mon/state.json": SMALL_STATE_SHA256}

    @pytest.mark.parametrize("scenario, extra", [
        ({"patients_per_period": 100.5}, []),
        ({"periods": 2.0}, []),
        ({"patients_per_period": "100"}, []),
        ({"periods": True}, []),
        ({"class_separation": float("nan")}, []),
        ({"loss_w_fn": float("nan")}, []),
        ({"miscalibration_gain": float("inf")}, []),
        ({"periods": 2}, ["--seed", "-3"]),
    ], ids=repr)
    def test_bad_scenario_refused_before_any_file(self, tmp_path, capsys,
                                                  scenario, extra):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": scenario}))
        out = tmp_path / "s"
        argv = ["simulate", "--scenario", str(cfg), "--out", str(out), *extra]
        assert main(argv) == EXIT_DATA
        assert "riskwatch simulate: error:" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_scenario_setting_names_its_section(self, tmp_path, capsys):
        # as a bad policy or monitor setting does
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": {"periods": 0}}))
        assert main(["simulate", "--scenario", str(cfg), "--out", str(tmp_path / "s")]) == EXIT_DATA
        assert capsys.readouterr().err == ("riskwatch simulate: error: bad scenario settings: "
                                           "periods must be an integer >= 1, got 0\n")

    def test_join_rejection_exits_data_naming_the_line(self, tmp_path, capsys,
                                                       monkeypatch):
        # generated pairs always join; a repeated pair stands in for a defect
        pairs = list(cli.scenario_pairs(replace(preset("sepsis_drift"), periods=1,
                                                patients_per_period=3)))
        monkeypatch.setattr(cli, "scenario_pairs", lambda config: pairs + pairs[1:2])
        assert main(["simulate", "--out", str(tmp_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "riskwatch simulate: error: line 7:" in err

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
        for name in ("report.csv", "state.json"):
            assert (out / name).read_bytes() == (sim_dir / name).read_bytes()

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

    @staticmethod
    def overflowing_log(tmp_path):
        # two finite regrets of 1e308 in period 1: their sum passes the float
        # range, so the cumulative regret is inf, while their mean, the
        # regret_rate, is 1e308; a quiet period 2 follows the inf
        records = []
        for i, (period, loss) in enumerate([(1, 1e308), (1, 1e308), (2, 0.1)]):
            records += [PredictionEvent(f"e{i}", TimeIndex(period, i), 0.5, action_id=0),
                        OutcomeRecord(f"e{i}", 1, loss, (loss, 0.0))]
        log = tmp_path / "big.ndjson"
        log.write_text("".join(map(log_line, records)))
        return log

    def test_regret_sum_past_the_float_range_is_inf(self, tmp_path):
        log = self.overflowing_log(tmp_path)
        out = tmp_path / "out"
        assert main(["monitor", "--in", str(log), "--out", str(out)]) == EXIT_ALARM
        rows = (out / "report.csv").read_text().splitlines()
        assert [row.split(",")[7:9] for row in rows[1:]] == [["inf", "1e+308"],
                                                               ["inf", "0.1"]]
        # state.json loads and saves back byte for byte, and re-emits the report
        engine = load_snapshot_file(out / "state.json")
        assert engine.snapshots[0].regret_cumulative == math.inf
        json.loads((out / "state.json").read_text(), parse_constant=refuse_constant)
        save_snapshot_file(engine, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == (out / "state.json").read_bytes()
        assert main(["report", "--in", str(out / "state.json"),
                     "--out", str(tmp_path / "report.csv")]) == EXIT_OK
        assert (tmp_path / "report.csv").read_bytes() == (out / "report.csv").read_bytes()

    def test_json_report_of_an_inf_regret_is_strict_json(self, tmp_path):
        log = self.overflowing_log(tmp_path)
        out = tmp_path / "out"
        assert main(["monitor", "--in", str(log), "--out", str(out),
                     "--format", "json"]) == EXIT_ALARM
        assert main(["report", "--in", str(out / "state.json"), "--format", "json",
                     "--out", str(tmp_path / "report.json")]) == EXIT_OK
        text = (tmp_path / "report.json").read_text()
        assert text == (out / "report.json").read_text()
        doc = json.loads(text, parse_constant=refuse_constant)
        assert [row["regret_cumulative"] for row in doc["rows"]] == [math.inf] * 2
        assert [row["regret_rate"] for row in doc["rows"]] == [1e308, 0.1]
        assert read_report(text, fmt="json") == doc["rows"]

    def test_loss_tail_summing_past_the_float_range(self, tmp_path):
        # one period of 60 pairs: the top 5% of the losses, 3 of them, sum
        # to 2e308, past the float range, and their mean is the cvar
        records = []
        for i in range(60):
            records += [PredictionEvent(f"e{i}", TimeIndex(1, i), 0.5),
                        OutcomeRecord(f"e{i}", i % 2, 1e308 if i < 2 else 0.0)]
        log = tmp_path / "tail.ndjson"
        log.write_text("".join(map(log_line, records)))
        out = tmp_path / "out"
        assert main(["monitor", "--in", str(log), "--out", str(out)]) == EXIT_ALARM
        assert read_report((out / "report.csv").read_text())[0]["cvar"] == 6.666666666666666e+307

    def test_policy_file_relaxes_thresholds(self, sim_dir, tmp_path):
        policy = tmp_path / "lax.json"
        policy.write_text(json.dumps({"policy": {
            "ece_max": 10.0, "cvar_max": 10.0, "regret_rate_max": 10.0,
            "drift_min": 10.0,
        }}))
        assert main(["monitor", "--in", str(sim_dir / "events.ndjson"),
                     "--policy", str(policy),
                     "--out", str(tmp_path / "m")]) == EXIT_OK

    @pytest.mark.parametrize("run", [
        ["monitor"], ["monitor", "--strict"], ["simulate"], ["simulate", "--replicates", "2"],
    ], ids=["monitor-lenient", "monitor-strict", "simulate", "simulate-replicates"])
    @pytest.mark.parametrize("section, settings", [
        ("monitor", {"n_bins": 0}), ("monitor", {"alpha": 1.5}),
        ("policy", {"ece_max": float("nan"), "cvar_max": None}), ("policy", {"ece_max": "x"}),
        ("policy", {"conjunctive": "no"}), ("policy", {"consecutive_for_review": 1.5}),
        ("policy", {"ece_max": None, "cvar_max": None}),
    ], ids=["n_bins-0", "alpha-1.5", "ece_max-nan", "ece_max-str", "conjunctive-str",
            "review-1.5", "no-bound"])
    def test_bad_settings_refused_before_any_line_or_file(
        self, sim_dir, tmp_path, capsys, caplog, section, settings, run
    ):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({section: settings}))  # NaN as NaN
        out = tmp_path / "m"
        if run[0] == "monitor":
            argv = run + ["--in", str(sim_dir / "events.ndjson"), "--policy", str(config)]
        else:
            argv = run + ["--scenario", str(config)]
        assert main(argv + ["--out", str(out)]) == EXIT_DATA
        assert f"bad {section} settings" in capsys.readouterr().err
        assert "skipped" not in caplog.text
        assert not out.exists()

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


def library_log(scenario) -> bytes:
    buf = io.StringIO()
    out = generate(scenario)
    write_log(buf, out.events, out.outcomes)
    return buf.getvalue().encode()


class TestSimulateMatchesLibrary:
    """simulate streams the scenario, but writes the log write_log(generate())
    writes, and leaves the state and report monitor leaves over that log."""

    @pytest.mark.parametrize("name,fmt", [
        ("sepsis_drift", "csv"), ("icu_tail", "json"), ("oncology_regret", "csv"),
    ])
    def test_log_state_and_report(self, tmp_path, name, fmt):
        scenario = replace(preset(name), periods=7, patients_per_period=150, seed=3)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": asdict(scenario)}))
        sim, mon = tmp_path / "sim", tmp_path / "mon"
        assert main(["simulate", "--scenario", str(cfg), "--out", str(sim),
                     "--format", fmt]) == EXIT_OK
        assert (sim / "events.ndjson").read_bytes() == library_log(scenario)
        main(["monitor", "--in", str(sim / "events.ndjson"), "--out", str(mon),
              "--format", fmt])
        for f in (f"report.{fmt}", "state.json"):
            assert (sim / f).read_bytes() == (mon / f).read_bytes(), f

    def test_replicates(self, tmp_path, small_cfg):
        out = tmp_path / "reps"
        assert main(["simulate", "--scenario", str(small_cfg),
                     "--out", str(out), "--replicates", "2"]) == EXIT_OK
        base = replace(preset("sepsis_drift"),
                       **json.loads(small_cfg.read_text())["scenario"])
        for seed in (9, 10):
            log = out / f"seed-{seed}" / "events.ndjson"
            assert log.read_bytes() == library_log(replace(base, seed=seed))


def simulate_peak(tmp_path, periods: int) -> int:
    """tracemalloc peak of one simulate run at 5000 events per period."""
    cfg = tmp_path / f"p{periods}.json"
    cfg.write_text(json.dumps({"scenario": {"periods": periods,
                                            "patients_per_period": 5000}}))
    tracemalloc.start()
    try:
        assert main(["simulate", "--scenario", str(cfg),
                     "--out", str(tmp_path / f"out{periods}")]) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_does_not_grow_with_the_stream(tmp_path, small_cfg):
    # warm up, so that imports made on the first run (statistics, which the
    # draw loads on first use) are not charged to the first measured one
    assert main(["simulate", "--scenario", str(small_cfg),
                 "--out", str(tmp_path / "warm")]) == EXIT_OK
    two, eight = simulate_peak(tmp_path, 2), simulate_peak(tmp_path, 8)
    assert eight <= 1.25 * two, (two, eight)


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
        assert code == EXIT_OK  # a checkpoint, with no report while nothing closed
        assert capsys.readouterr().err == ""
        assert sorted(os.listdir(part_dir)) == ["state.json"]

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

    def test_outcomes_after_a_finalized_run_are_stale(self, tmp_path, caplog):
        # periods 1 and 2 breach (review, review), and period 2's last two
        # events are pending when monitor finalizes. Their outcomes, appended
        # later, once opened a second period 2 whose breach rewrote the
        # real period 2 to suspended in the report
        events = [PredictionEvent(f"e{i}", TimeIndex(1 + i // 4, i), 0.9) for i in range(8)]
        outcomes = [OutcomeRecord(f"e{i}", 0, 1.0) for i in range(8)]
        lines = [log_line(r) for pair in zip(events[:6], outcomes) for r in pair]
        lines += map(log_line, events[6:])
        log = write(tmp_path / "events.ndjson", lines)
        grown = write(tmp_path / "grown.ndjson", lines + list(map(log_line, outcomes[6:])))

        mon, rep = tmp_path / "mon", tmp_path / "rep"
        assert main(["monitor", "--in", log, "--out", str(mon)]) == EXIT_ALARM
        with caplog.at_level("WARNING"):
            assert main(["replay", "--snapshot", str(mon / "state.json"),
                         "--in", grown, "--out", str(rep)]) == EXIT_ALARM
        assert [(row["period"], row["alarm_state"]) for row in
                read_report((rep / "report.csv").read_text())] == [(1, "review"), (2, "review")]
        assert (rep / "report.csv").read_bytes() == (mon / "report.csv").read_bytes()
        assert load_snapshot_file(rep / "state.json").stale_pairs == 2
        assert "dropped 2 pairs that resolved after their period closed" in caplog.text

    def test_corrupt_snapshot(self, tmp_path, capsys):
        snap = tmp_path / "state.json"
        snap.write_text('{"sha256": "00", "state": {}}')
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


POLICY = ThresholdPolicy()  # the default policy every monitor call here runs


def first_pairs(lines, count, keep):
    """The lines of the first count pairs of a log in which each outcome
    line follows its event line, taking only the pairs for which
    keep(event, outcome) holds, each the JSON of its line."""
    kept = [lines[i:i + 2] for i in range(0, len(lines), 2)
            if keep(json.loads(lines[i]), json.loads(lines[i + 1]))]
    assert len(kept) >= count
    return [line for pair in kept[:count] for line in pair]


def quiet(event, outcome) -> bool:
    """Whether a pair alone in its period breaches no bound of the default
    policy: its outcome is 0, so its ece is its prob, and its cvar is its loss."""
    return (outcome["y"] == 0 and event["prob"] <= POLICY.ece_max
            and outcome["loss"] <= POLICY.cvar_max)


def missed(event, outcome) -> bool:
    """Whether a pair's outcome is 1 on a prob more than ece_max below it,
    so that any period of such pairs alone breaches the ece bound."""
    return outcome["y"] == 1 and event["prob"] < 1.0 - POLICY.ece_max


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

    def test_out_of_range_open_period_value_is_refused(self, small_lines, tmp_path,
                                                       capsys):
        # a checkpoint with a valid checksum whose first open-period outcome is 7
        part = tmp_path / "part"
        assert main(["monitor", "--in", write(tmp_path / "p.ndjson", small_lines[:900]),
                     "--out", str(part), "--no-finalize"]) == EXIT_OK
        state = json.loads((part / "state.json").read_text())["state"]
        ys = _unpack(state["acc"]["ys"], "B")
        state["acc"]["ys"] = _pack([7] + ys[1:], "B")
        canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
        (part / "state.json").write_text(json.dumps({
            "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            "state": state,
        }))
        assert main(["replay", "--snapshot", str(part / "state.json"),
                     "--in", write(tmp_path / "full.ndjson", small_lines)]) == EXIT_DATA
        assert "out of range" in capsys.readouterr().err

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
        assert not any(state["pending"].values())  # no pending column holds a value


def files(directory: Path) -> dict[str, bytes]:
    """The bytes of every file under a directory, by relative path."""
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def restore(directory: Path, contents: dict[str, bytes]) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    for name, data in contents.items():
        (directory / name).parent.mkdir(parents=True, exist_ok=True)
        (directory / name).write_bytes(data)


class DiskFull:
    """While installed, the k-th file operation raises ENOSPC: an os.replace,
    an os.fsync or a write to a file opened for writing. fired says whether
    the call under test got that far."""

    def __init__(self, k: int, monkeypatch):
        self.left, self.fired = k, False
        for name in ("replace", "fsync"):
            monkeypatch.setattr(os, name, self.step(getattr(os, name)))
        real_open = builtins.open

        def opener(file, mode="r", *args, **kwargs):
            fp = real_open(file, mode, *args, **kwargs)
            return _Writer(fp, self.step(fp.write)) if "w" in mode else fp

        monkeypatch.setattr(builtins, "open", opener)

    def step(self, fn):
        def counted(*args):
            self.left -= 1
            if self.left == 0:
                self.fired = True
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return fn(*args)
        return counted


class _Writer:
    """A file whose write is replaced; everything else is the file's."""

    def __init__(self, fp, write):
        self._fp, self.write = fp, write

    def __getattr__(self, name):
        return getattr(self._fp, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fp.__exit__(*exc)


class TestCrashInTheWriter:
    """A call that fails at any file operation exits 2 and leaves every file
    of its output directory whole, old or new, with no temp file; run again,
    it writes what an uninterrupted call writes."""

    def crash_at_each_step(self, argv: list[str], out: Path) -> int:
        """Run argv, failing at its 1st, 2nd, ... file operation until it
        gets through; returns how many operations it makes."""
        before = files(out)
        code = main(argv)
        after = files(out)
        assert after != before
        k = 1
        while True:
            restore(out, before)
            with pytest.MonkeyPatch.context() as monkeypatch:
                fault = DiskFull(k, monkeypatch)
                got = main(argv)
            if not fault.fired:
                assert got == code and files(out) == after
                return k - 1
            assert got == EXIT_DATA, k
            left = files(out)
            assert not [name for name in left if name.endswith(".tmp")], k
            for name in left.keys() | before.keys() | after.keys():
                assert left.get(name) in (before.get(name), after.get(name)), (k, name)
            assert main(argv) == code and files(out) == after, k
            k += 1

    @pytest.mark.parametrize("finalize", [True, False], ids=["finalize", "no-finalize"])
    def test_replay(self, small_lines, tmp_path, finalize):
        # a checkpoint in period 2 resumed in place over a log that has grown
        # to period 3 (no-finalize) or to its end
        out = tmp_path / "d"
        assert main(["monitor", "--in", write(tmp_path / "p.ndjson", small_lines[:900]),
                     "--out", str(out), "--no-finalize"]) == EXIT_OK
        grown = small_lines if finalize else small_lines[:1500]
        argv = ["replay", "--snapshot", str(out / "state.json"), "--out", str(out),
                "--in", write(tmp_path / "log.ndjson", grown)]
        # state.json and report.csv: a write, fsync, rename and directory fsync each
        assert self.crash_at_each_step(argv + ["--no-finalize"] * (not finalize),
                                       out) == 8

    def test_simulate(self, tmp_path):
        def config(name, patients):
            path = tmp_path / name
            path.write_text(json.dumps({"scenario": {
                "periods": 2, "patients_per_period": patients, "seed": 3}}))
            return str(path)

        out = tmp_path / "d"
        assert main(["simulate", "--scenario", config("old.json", 30), "--out", str(out),
                     "--replicates", "2"]) == EXIT_OK
        # per replicate, a write for each of 40 log lines and one for each
        # other file, and per file an fsync, a rename and a directory fsync
        assert self.crash_at_each_step(
            ["simulate", "--scenario", config("new.json", 10), "--out", str(out),
             "--replicates", "2"], out) == 2 * (40 + 3 + 3 * 4) + 4


@pytest.fixture(params=["monitor", "replay"])
def argv(request, tmp_path):
    """argv of a run over the whole log: monitor, or replay from a
    checkpoint whose 1500 lines are skipped undecoded."""
    def make(log, full):
        if request.param == "monitor":
            return ["monitor", "--in", log]
        part = tmp_path / "part"
        assert main(["monitor", "--in", write(tmp_path / "p.ndjson", full[:1500]),
                     "--out", str(part), "--no-finalize"]) == EXIT_OK
        return ["replay", "--snapshot", str(part / "state.json"), "--in", log]
    return make


def repeated_event(lines):
    return lines[:1700] + [lines[1600]] + lines[1700:]


def orphan_outcome(lines):
    return lines[:1700] + [TestLineAddressedReplay.ORPHAN] + lines[1700:]


def duplicate_outcome(lines):
    return lines[:1700] + [lines[1601]] + lines[1700:]


def out_of_range_action(lines):
    # the event on line 1701 names action 5; its outcome, line 1702, is
    # rejected when its regret is scored
    bad = lines[1700].replace('"action": 0,', '"action": 5,').replace(
        '"action": 1,', '"action": 5,')
    assert bad != lines[1700]
    return lines[:1700] + [bad] + lines[1701:]


class TestJoinRejectionLines:
    """A record the join rejects is named by its line in the whole log, as
    parse and schema errors are, also on a replay that skipped a prefix.
    Every fault sits in period 3 of the small log, after line 1700."""

    FAULTS = [
        (repeated_event, 1701, "out-of-order event"),
        (orphan_outcome, 1701, "unknown event_id"),
        (duplicate_outcome, 1701, "second outcome"),
        (out_of_range_action, 1702, "outside action set"),
    ]
    IDS = ["repeated-event", "orphan", "duplicate-outcome", "action"]

    @pytest.mark.parametrize("fault,line,fragment", FAULTS, ids=IDS)
    def test_strict_error_names_the_line(self, small_lines, tmp_path, capsys,
                                         argv, fault, line, fragment):
        full = fault(small_lines)
        run = argv(write(tmp_path / "full.ndjson", full), full)
        capsys.readouterr()
        assert main(run + ["--strict"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"error: line {line}: " in err and fragment in err

    @pytest.mark.parametrize("fault,line,fragment", FAULTS, ids=IDS)
    def test_lenient_warning_names_the_line(self, small_lines, tmp_path, caplog,
                                            argv, fault, line, fragment):
        full = fault(small_lines)
        run = argv(write(tmp_path / "full.ndjson", full), full)
        with caplog.at_level("WARNING"):
            assert main(run + ["--out", str(tmp_path / "out")]) == EXIT_OK
        skipped = [r.getMessage() for r in caplog.records
                   if r.getMessage().startswith("record for")]
        assert len(skipped) == 1
        assert f"skipped: line {line}: " in skipped[0] and fragment in skipped[0]


class TestInvalidUtf8:
    """A log line holding a byte that is not UTF-8 is a parse error on its
    line, as bad JSON is; the lines around it are read and numbered as
    before. Line 1701 of the small log's variant below is such a line."""

    # an orphan outcome but for the 0xFF byte (written as its surrogate escape)
    BAD = '{"kind": "outcome", "event_id": "ghost\udcff", "y": 0, "loss": 0.1}\n'

    def write_bytes(self, path, lines):
        path.write_bytes("".join(lines).encode("utf-8", "surrogateescape"))
        return str(path)

    def test_lenient_skips_and_names_the_line(self, small_lines, tmp_path, caplog,
                                              argv):
        full = small_lines[:1700] + [self.BAD] + small_lines[1700:]
        run = argv(self.write_bytes(tmp_path / "full.ndjson", full), full)
        out, whole = tmp_path / "out", tmp_path / "whole"
        with caplog.at_level("WARNING"):
            assert main(run + ["--out", str(out)]) == EXIT_OK
        assert "event log line 1701 skipped: invalid UTF-8" in caplog.text
        assert "1 malformed lines skipped" in caplog.text
        assert not any(r.getMessage().startswith("record for") for r in caplog.records)
        state = json.loads((out / "state.json").read_text())["state"]
        assert state["lines_consumed"] == len(full)
        assert main(["monitor", "--in", write(tmp_path / "good.ndjson", small_lines),
                     "--out", str(whole)]) == EXIT_OK
        assert (out / "report.csv").read_bytes() == (whole / "report.csv").read_bytes()

    def test_strict_exits_data_naming_the_line(self, small_lines, tmp_path, capsys,
                                               argv):
        full = small_lines[:1700] + [self.BAD] + small_lines[1700:]
        run = argv(self.write_bytes(tmp_path / "full.ndjson", full), full)
        capsys.readouterr()
        assert main(run + ["--strict"]) == EXIT_DATA
        assert "error: line 1701: invalid UTF-8" in capsys.readouterr().err

    def test_three_line_log(self, small_lines, tmp_path, capsys):
        # a quiet pair, so the lenient run's exit code is the parse's alone
        event, outcome = first_pairs(small_lines, 1, quiet)
        log = self.write_bytes(tmp_path / "three.ndjson", [event, self.BAD, outcome])
        assert main(["monitor", "--in", log]) == EXIT_OK
        assert main(["monitor", "--in", log, "--strict"]) == EXIT_DATA
        assert "line 2: invalid UTF-8" in capsys.readouterr().err

    @staticmethod
    def run_on_stdin(args, data: bytes, encoding: str) -> subprocess.CompletedProcess:
        """The CLI run in a child on a real stdin, which the in-process tests
        replace with a StringIO, under a PYTHONIOENCODING of encoding: UTF-8,
        or latin-1, which would decode any byte, each to some other character."""
        env = {k: v for k, v in os.environ.items() if k != CONFIG_ENV_VAR}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONIOENCODING"] = encoding
        return subprocess.run([sys.executable, "-m", "riskwatch.cli", *args],
                              input=data, env=env, capture_output=True, timeout=300)

    @pytest.mark.parametrize("strict, encoding", [
        (False, "utf-8:strict"), (True, "utf-8:strict"),
        (False, "latin-1"), (True, "latin-1"),
    ], ids=["lenient", "strict", "lenient-latin-1", "strict-latin-1"])
    def test_stdin(self, small_lines, strict, encoding):
        event, outcome = first_pairs(small_lines, 1, quiet)
        data = "".join([event, self.BAD, outcome])
        proc = self.run_on_stdin(["monitor", "--in", "-"] + ["--strict"] * strict,
                                 data.encode("utf-8", "surrogateescape"), encoding)
        err = proc.stderr.decode()
        if strict:
            assert proc.returncode == EXIT_DATA and "line 2: invalid UTF-8" in err
        else:
            assert proc.returncode == EXIT_OK, err
            assert "event log line 2 skipped" in err

    @pytest.mark.parametrize("encoding", ["utf-8:strict", "latin-1"])
    def test_stdin_reads_a_non_ascii_id_as_a_file_does(self, small_lines, tmp_path,
                                                       encoding):
        # every event id starts with an "é"; the last outcome is cut, so its
        # event's id stays pending in state.json
        lines = [line.replace('"event_id": "', '"event_id": "\u00e9')
                 for line in small_lines[:-1]]
        log = self.write_bytes(tmp_path / "log.ndjson", lines)
        assert main(["monitor", "--in", log, "--out", str(tmp_path / "file")]) == EXIT_OK
        proc = self.run_on_stdin(["monitor", "--in", "-", "--out", str(tmp_path / "stdin")],
                                 Path(log).read_bytes(), encoding)
        assert proc.returncode == EXIT_OK, proc.stderr.decode()
        assert files(tmp_path / "stdin") == files(tmp_path / "file")
        assert '"\\u00e9' in (tmp_path / "file" / "state.json").read_text()


def with_carriage_return(line: str) -> str:
    """The line with a "\r " between two of its JSON tokens."""
    return line.replace(", ", ",\r ", 1)


class TestLineEndings:
    """A log line ends at "\n" alone. A "\r" inside a line or before its
    end is JSON whitespace, so it neither splits the line nor changes what
    a run writes."""

    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    def test_carriage_return_inside_a_line(self, small_lines, tmp_path, argv, strict):
        full = small_lines[:1700] + [with_carriage_return(small_lines[1700])] + (
            small_lines[1701:])
        run = argv(write(tmp_path / "full.ndjson", full), full)
        out, whole = tmp_path / "out", tmp_path / "whole"
        assert main(run + ["--out", str(out)] + ["--strict"] * strict) == EXIT_OK
        assert main(["monitor", "--in", write(tmp_path / "good.ndjson", small_lines),
                     "--out", str(whole)]) == EXIT_OK
        assert files(out) == files(whole)

    def test_crlf_log_reads_as_its_lf_copy(self, small_lines, tmp_path, argv):
        crlf = [line.replace("\n", "\r\n") for line in small_lines]
        run = argv(write(tmp_path / "crlf.ndjson", crlf), crlf)
        out, whole = tmp_path / "out", tmp_path / "whole"
        assert main(run + ["--out", str(out), "--strict"]) == EXIT_OK
        assert main(["monitor", "--in", write(tmp_path / "lf.ndjson", small_lines),
                     "--out", str(whole)]) == EXIT_OK
        assert files(out) == files(whole)

    def test_stdin(self, small_lines, tmp_path):
        # a real stdin, which the in-process tests replace with a StringIO
        lines = first_pairs(small_lines, 2, missed)
        data = with_carriage_return(lines[0]) + "".join(lines[1:]).replace("\n", "\r\n")
        env = {k: v for k, v in os.environ.items() if k != CONFIG_ENV_VAR}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "riskwatch.cli", "monitor", "--in", "-", "--strict",
             "--out", str(tmp_path / "stdin")],
            input=data.encode(), env=env, capture_output=True, timeout=300,
        )
        # two pairs breach the ece bound, so both runs end in an alarm
        assert proc.returncode == EXIT_ALARM, proc.stderr.decode()
        assert main(["monitor", "--in", write(tmp_path / "lf.ndjson", lines),
                     "--out", str(tmp_path / "lf")]) == EXIT_ALARM
        assert files(tmp_path / "stdin") == files(tmp_path / "lf")


class TestReport:
    def test_reemit_json(self, sim_dir, capsys):
        assert main(["report", "--in", str(sim_dir / "state.json"),
                     "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["rows"]) == 12
        assert doc["rows"][-1]["alarm_state"] == "suspended"

    @pytest.mark.parametrize("command,state", [
        ("report", 123), ("report", {"engine_version": ENGINE_STATE_VERSION}),
        # a finished run's state with a string cumulative regret, which
        # replay once took and then failed on at its next close
        ("replay", {"regret_cumulative": "abc"}),
    ], ids=["an-integer", "version-only", "replay-regret-cumulative-str"])
    def test_malformed_state_exits_data(self, sim_dir, tmp_path, capsys, command,
                                        state):
        if command == "replay":
            state = {**json.loads((sim_dir / "state.json").read_text())["state"],
                     **state}
        canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
        snap = tmp_path / "state.json"
        snap.write_text(json.dumps({
            "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            "state": state,
        }))
        # replay's log does not exist, so it must refuse before reading a line
        argv = {"report": ["report", "--in", str(snap)],
                "replay": ["replay", "--snapshot", str(snap),
                           "--in", str(tmp_path / "unread.ndjson")]}[command]
        assert main(argv) == EXIT_DATA
        assert "engine state" in capsys.readouterr().err

    def test_version_6_document_exits_data(self, tmp_path, capsys):
        # the document layout before engine version 7, format_version included
        canonical = json.dumps({"engine_version": 6}, separators=(",", ":"))
        snap = tmp_path / "state.json"
        snap.write_text(f'{{"format_version":1,"sha256":'
                        f'"{hashlib.sha256(canonical.encode()).hexdigest()}",'
                        f'"state":{canonical}}}\n')
        assert main(["report", "--in", str(snap)]) == EXIT_DATA
        assert "engine state version 6 != supported" in capsys.readouterr().err

    def test_alarm_state_follows_edited_metrics(self, sim_dir, tmp_path, capsys):
        # the alarm history is replayed from the snapshots, so a state whose
        # period 2 cvar is edited over its bound (and re-checksummed) reports
        # the decisions those metrics give, not the ones first made
        state = json.loads((sim_dir / "state.json").read_text())["state"]
        cvar = _unpack(state["snapshots"]["cvar"], "d")
        cvar[1] = 0.5
        state["snapshots"]["cvar"] = _pack(cvar, "d")
        canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
        snap = tmp_path / "state.json"
        snap.write_text(json.dumps({
            "sha256": hashlib.sha256(canonical.encode()).hexdigest(), "state": state}))
        assert main(["report", "--in", str(snap), "--format", "json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["rows"]
        reported = [row["alarm_state"] for row in rows]
        engine = load_snapshot_file(snap)
        folded = functools.reduce(
            lambda alarm, snapshot: evaluate(alarm, snapshot, engine.policy),
            engine.snapshots, AlarmState())
        assert reported == [record.state.value for record in folded.history]
        assert reported[:4] == ["normal", "review", "review", "normal"]

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
