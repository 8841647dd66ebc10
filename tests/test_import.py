"""Only credible_interval loads scipy; import, monitor and simulate never do.

Importing scipy.stats takes about a second on a 2-core VM, and
scipy.special alone adds about 20 MB of resident memory, which every CLI
call would pay again. credible_interval imports scipy.special when called;
nothing else in the package imports scipy, which an ast walk checks
statically. The runtime checks run in a fresh interpreter, because this
test process has loaded scipy already."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from riskwatch.cli import EXIT_ALARM, EXIT_OK, main
from riskwatch.eventlog import CONFIG_ENV_VAR

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "riskwatch"

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
after_generate = scipy_loaded()
interval = credible_interval(BetaPosterior(3.0, 7.0), level=0.9)
print(json.dumps({
    "codes": codes,
    "after_monitor": after_monitor,
    "generated": int(arrays["y"].size),
    "after_generate": after_generate,
    "interval": interval,
    "after_interval": scipy_loaded(),
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


def test_simulate_path_never_imports_scipy(tmp_path):
    # scipy.special alone adds about 20 MB of RSS to a simulate run
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps({"scenario": {"periods": 2, "patients_per_period": 100}}))
    got = json.loads(run_child(SIMULATE_CHILD, cfg, tmp_path / "sim"))
    assert got["code"] == EXIT_OK
    assert got["scipy"] == []


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

    # generation needs no scipy; credible_interval still loads it when called
    assert got["generated"] == 2 * 50
    assert got["after_generate"] == []
    lo, hi = got["interval"]
    assert 0.0 < lo < 0.3 < hi < 1.0
    assert "scipy.special" in got["after_interval"]


def scipy_import_sites(source: str) -> list[str]:
    """Where a module imports scipy: the qualified name of the enclosing
    function, or "<load>" for an import that runs when the module loads
    (at module level or in a class body)."""
    sites = []

    def visit(node, qual, in_function):
        for child in ast.iter_child_nodes(node):
            names = ([a.name for a in child.names] if isinstance(child, ast.Import)
                     else [child.module or ""] if isinstance(child, ast.ImportFrom)
                     else [])
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                sites.append(qual if in_function else "<load>")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{qual}.{child.name}" if qual else child.name,
                      in_function or not isinstance(child, ast.ClassDef))
            else:
                visit(child, qual, in_function)

    visit(ast.parse(source), "", False)
    return sites


def test_only_credible_interval_imports_scipy():
    sites = {f"{path.stem}.{site}" for path in sorted(PACKAGE.glob("*.py"))
             for site in scipy_import_sites(path.read_text(encoding="utf-8"))}
    assert sites == {"belief.credible_interval"}


def test_scipy_import_sites_checker():
    source = (
        "import os, scipy\n"
        "class A:\n"
        "    from scipy import stats\n"
        "    def m(self):\n"
        "        def inner():\n"
        "            import scipy.special as sp\n"
        "def f():\n"
        "    if True:\n"
        "        from scipy.special import ndtri\n"
        "    from scipyx import y\n"
        "    from . import scipy_like\n"
    )
    assert scipy_import_sites(source) == ["<load>", "<load>", "A.m.inner", "f"]


def acc_list_bindings(source: str) -> list[int]:
    """The lines that bind an _acc_* attribute to a list (a literal, a
    comprehension or a list() call), tuple assignments included."""
    def is_list(value):
        return (isinstance(value, (ast.List, ast.ListComp))
                or isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id == "list")

    def binds(target, value):
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
            return any(binds(t, v) for t, v in zip(target.elts, value.elts))
        return (isinstance(target, ast.Attribute) and target.attr.startswith("_acc_")
                and is_list(value))

    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None
            and any(binds(t, node.value) for t in
                    (node.targets if isinstance(node, ast.Assign) else [node.target]))]


def test_engine_accumulators_are_never_lists():
    # a list boxes every value as a float object, about 3x the typed array
    source = (PACKAGE / "monitor.py").read_text(encoding="utf-8")
    assert acc_list_bindings(source) == []


def test_acc_list_bindings_checker():
    source = (
        "self._acc_probs = []\n"
        "self._acc_ys: list[int] = [0]\n"
        "self._acc_losses = array('d')\n"
        "self._acc_regrets = list(values)\n"
        "self._acc_last_sequence = None\n"
        "a._acc_x, b = [v for v in w], []\n"
        "probs = []\n"
        "self.acc_probs = []\n"
    )
    assert acc_list_bindings(source) == [1, 2, 4, 6]
