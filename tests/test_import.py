"""The import and monitor paths stay free of scipy.

Importing scipy.stats takes about a second on a 2-core VM, and every CLI
call would pay it again. Only generation (period_arrays) and
credible_interval need scipy, and each imports it when called; generation
needs scipy.special alone. The checks run in a fresh interpreter, because
this test process has loaded scipy already."""

import json
import os
import subprocess
import sys
from pathlib import Path

from riskwatch.cli import EXIT_ALARM, EXIT_OK, main
from riskwatch.eventlog import CONFIG_ENV_VAR

SRC = Path(__file__).resolve().parents[1] / "src"

# argv: log, prefix log, checkpoint dir, output dir; prints a JSON summary
CHILD = """
import json, sys

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import riskwatch, riskwatch.cli
from riskwatch.eventlog import default_config, engine_from_config

log, prefix, part, out = sys.argv[1:5]
engine_from_config(default_config())
codes = [
    riskwatch.cli.main(["monitor", "--in", prefix, "--out", part, "--no-finalize"]),
    riskwatch.cli.main(["replay", "--snapshot", part + "/state.json",
                        "--in", log, "--out", out]),
]
after_monitor = scipy_loaded()

from riskwatch.belief import BetaPosterior, credible_interval
from riskwatch.simulator import ScenarioConfig, generate_arrays

arrays = generate_arrays(ScenarioConfig(periods=2, patients_per_period=50))
print(json.dumps({
    "codes": codes,
    "after_monitor": after_monitor,
    "generated": int(arrays["y"].size),
    "interval": credible_interval(BetaPosterior(3.0, 7.0), level=0.9),
    "scipy_after_lazy_calls": "scipy" in sys.modules,
}))
"""


def run_child(code: str, *argv) -> str:
    env = {k: v for k, v in os.environ.items() if k != CONFIG_ENV_VAR}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


SIMULATE_CHILD = """
import json, sys
import riskwatch.cli

code = riskwatch.cli.main(["simulate", "--scenario", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"code": code, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def test_simulate_path_never_imports_scipy_stats(tmp_path):
    # scipy.stats adds about 44 MB of RSS, most of what streaming saves
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps({"scenario": {"periods": 2, "patients_per_period": 100}}))
    got = json.loads(run_child(SIMULATE_CHILD, cfg, tmp_path / "sim"))
    assert got["code"] == EXIT_OK
    assert "scipy.special" in got["scipy"]
    assert not any(m == "scipy.stats" or m.startswith("scipy.stats.")
                   for m in got["scipy"])


def test_monitor_path_never_imports_scipy(tmp_path):
    # the canonical scenario at 300 patients per period, simulated here
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps({"scenario": {"patients_per_period": 300}}))
    sim = tmp_path / "sim"
    main(["simulate", "--scenario", str(cfg), "--out", str(sim)])
    log = sim / "events.ndjson"
    lines = log.read_text().splitlines(True)
    prefix = tmp_path / "prefix.ndjson"
    prefix.write_text("".join(lines[: len(lines) // 2]))

    got = json.loads(run_child(CHILD, log, prefix, tmp_path / "part",
                               tmp_path / "out"))

    assert got["after_monitor"] == []
    assert got["codes"] == [EXIT_OK, EXIT_ALARM]  # the drift is caught after mid-run
    # the resumed run reproduces the in-process simulate byte for byte
    for name in ("report.csv", "state.json"):
        assert (tmp_path / "out" / name).read_bytes() == (sim / name).read_bytes()

    # the lazily importing functions still work, and do load scipy
    assert got["generated"] == 2 * 50
    lo, hi = got["interval"]
    assert 0.0 < lo < 0.3 < hi < 1.0
    assert got["scipy_after_lazy_calls"]
