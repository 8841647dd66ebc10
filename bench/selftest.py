"""Self-tests of the benchmark: the oracle must catch what it claims to.

    python3 -m pytest bench/selftest.py -q

Not collected by the repository's test run (the file name does not
match test_*.py); name it explicitly as above.
"""

import contextlib
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 5


def _batch_report(tmp_path):
    """A smoke-size batch log through `riskwatch monitor`; the report's rows."""
    from riskwatch import cli

    w = workloads.SMOKE["batch-240k"]
    a = workloads.arrays(w, SEED)
    log = tmp_path / "events.ndjson"
    log.write_text("".join(workloads.log_lines(w, a, SEED)))
    assert cli.main(["monitor", "--in", str(log), "--out", str(tmp_path)]) in (0, 3)
    rows = oracle.read_csv_report((tmp_path / "report.csv").read_text())
    return oracle.reference(a), rows


def test_oracle_accepts_riskwatch_and_rejects_one_ulp(tmp_path):
    ref, rows = _batch_report(tmp_path)
    assert all(ok for _, ok, _ in oracle.compare(ref, rows, "batch"))
    row = len(rows) // 2
    for col in oracle.EXACT_COLUMNS:
        if col == "n":
            continue
        bumped = [dict(r) for r in rows]
        bumped[row][col] = math.nextafter(bumped[row][col], math.inf)
        results = oracle.compare(ref, bumped, "batch")
        failed = [name for name, ok, _ in results if not ok]
        assert failed == [f"batch: period {rows[row]['period']}"], col


def _resume(tmp_path, drop: bool):
    """The smoke resume workload, optionally losing one outcome record
    from the middle of the log as it grows; returns the run's checks."""
    w = workloads.SMOKE["resume-hourly"]
    rundir = tmp_path / f"run-{drop}"
    rundir.mkdir()
    workloads.prepare(w, SEED, str(rundir))
    lines = (rundir / "events.ndjson").read_text().splitlines(keepends=True)
    if drop:
        middle = len(lines) // 2
        lost = next(i for i in range(middle, len(lines))
                    if lines[i].startswith('{"kind": "outcome", "event_id": "ev-'))
        del lines[lost]
    outdir = str(rundir / "out-0")
    result = workloads.run_resume(w, SEED, str(rundir), outdir, None,
                                  lambda name: contextlib.nullcontext(), None,
                                  lines=lines)
    assert result["ops_failed"] == 0
    return oracle.run_checks(w, SEED, str(rundir), [outdir])


def test_oracle_rejects_a_resume_that_drops_a_record(tmp_path):
    assert all(c["ok"] for c in _resume(tmp_path, drop=False))
    checks = _resume(tmp_path, drop=True)
    failed = {c["name"] for c in checks if not c["ok"]}
    assert any("period" in name for name in failed)
    assert any("identical" in name for name in failed)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_smoke_runs_every_workload_and_check():
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                         capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    assert json.loads(out.stdout.splitlines()[-1]) == {"smoke": "ok"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "live-daily",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
