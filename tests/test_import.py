"""Heavy modules load only where they are needed.

Importing numpy takes about 0.15 s and about 12 MB of resident memory,
and the monitor path has no use for it: every period-close metric runs
on the standard library over the engine's typed arrays. So the package,
the CLI, engine_from_config, and every monitor, replay and report call
(period closes included) run without numpy; only the simulator's draws
and the tailrisk.cvar_variational cross-check import it, when called.
Importing scipy.stats takes about a second, and scipy.special alone adds
about 20 MB, so only credible_interval imports scipy, when called.

No function of the package may touch a transcendental numpy ufunc (exp,
log, power, trig and the like): numpy picks their SIMD loops by host CPU,
and on AVX-512 those differ from libm in the last bit, so the outputs
would depend on the machine that wrote them.

One ast walk checks these rules statically, from one table of where each
heavy module may be imported and one set of banned ufuncs. The runtime
checks run in a fresh interpreter, because this test process has loaded
numpy and scipy already."""

import ast
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

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
numpy_after_monitor = "numpy" in sys.modules

from riskwatch.belief import BetaPosterior, credible_interval
from riskwatch.simulator import ScenarioConfig, generate_arrays

arrays = generate_arrays(ScenarioConfig(periods=2, patients_per_period=50))
after_generate = scipy_loaded()
interval = credible_interval(BetaPosterior(3.0, 7.0), level=0.9)
print(json.dumps({
    "codes": codes,
    "after_monitor": after_monitor,
    "numpy_after_monitor": numpy_after_monitor,
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
    assert not got["numpy_after_monitor"]  # the closes of both runs included
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


# argv: checkpoint with an open period, a log that grows it without a
# close, the full log, two output dirs; prints the outputs as JSON
NUMPY_FREE_CHILD = """
import contextlib, io, json, sys

import riskwatch, riskwatch.cli
from riskwatch.eventlog import default_config, engine_from_config

checkpoint, grown, log, out, closed = sys.argv[1:6]
engine_from_config(default_config())
codes, texts = [], []
for argv in (["--print-defaults"], ["report", "--in", checkpoint],
             ["replay", "--snapshot", checkpoint, "--in", grown, "--out", out,
              "--no-finalize"]):
    with contextlib.redirect_stdout(io.StringIO()) as text:
        codes.append(riskwatch.cli.main(argv))
    texts.append(text.getvalue())
numpy_before_close = "numpy" in sys.modules
codes.append(riskwatch.cli.main(["replay", "--snapshot", out + "/state.json",
                                 "--in", log, "--out", closed]))
print(json.dumps({"codes": codes, "texts": texts,
                  "numpy_before_close": numpy_before_close,
                  "numpy_after_close": "numpy" in sys.modules}))
"""


def test_monitor_paths_never_import_numpy(tmp_path):
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps({"scenario": {"periods": 3, "patients_per_period": 200}}))
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(cfg), "--out", str(sim)]) == EXIT_OK
    log = sim / "events.ndjson"
    lines = log.read_text().splitlines(True)  # 400 lines per period
    prefix, grown = tmp_path / "prefix.ndjson", tmp_path / "grown.ndjson"
    prefix.write_text("".join(lines[:500]))  # period 2 open
    grown.write_text("".join(lines[:700]))  # period 2 still open
    checkpoint = tmp_path / "part" / "state.json"
    assert main(["monitor", "--in", str(prefix), "--out", str(checkpoint.parent),
                 "--no-finalize"]) == EXIT_OK

    got = json.loads(run_child(NUMPY_FREE_CHILD, checkpoint, grown, log,
                               tmp_path / "child", tmp_path / "child-closed"))

    assert not got["numpy_before_close"]
    assert not got["numpy_after_close"]
    # the same calls in this process give the same codes and bytes
    codes, texts = [], []
    for argv in (["--print-defaults"], ["report", "--in", str(checkpoint)],
                 ["replay", "--snapshot", str(checkpoint), "--in", str(grown),
                  "--out", str(tmp_path / "here"), "--no-finalize"]):
        with redirect_stdout(io.StringIO()) as text:
            codes.append(main(argv))
        texts.append(text.getvalue())
    codes.append(main(["replay", "--snapshot", str(tmp_path / "here" / "state.json"),
                       "--in", str(log), "--out", str(tmp_path / "here-closed")]))
    assert got["codes"] == codes == [EXIT_OK] * 4
    assert got["texts"] == texts and texts[0] and texts[1]
    for child, here in (("child", "here"), ("child-closed", "here-closed")):
        for name in ("report.csv", "state.json"):
            assert ((tmp_path / child / name).read_bytes()
                    == (tmp_path / here / name).read_bytes())
    assert (tmp_path / "here-closed" / "report.csv").read_bytes() == (
        sim / "report.csv").read_bytes()


# where the package may import each heavy module: a test of the import
# site, "<module>.<function>", or "<module>.<load>" for an import that runs
# when the module loads
HEAVY_IMPORTS = {
    "scipy": lambda site: site == "belief.credible_interval",
    "numpy": lambda site: site == "tailrisk.cvar_variational" or (
        site.startswith("simulator.") and not site.endswith(".<load>")),
}

# numpy ufuncs whose SIMD loops need not match libm bit for bit; sqrt and
# the arithmetic ufuncs are correctly rounded under every dispatch
TRANSCENDENTAL = frozenset("""
    exp exp2 expm1 log log2 log10 log1p logaddexp logaddexp2 power pow float_power
    sin cos tan arcsin arccos arctan arctan2 asin acos atan atan2 hypot
    sinh cosh tanh arcsinh arccosh arctanh asinh acosh atanh cbrt
""".split())


def heavy_import_sites(source: str) -> list[tuple[str, str]]:
    """Where a module imports a HEAVY_IMPORTS module, or touches a
    TRANSCENDENTAL numpy ufunc (as an attribute of a name bound to numpy,
    or by name from numpy): that module, or "numpy.<ufunc>", and the
    qualified name of the enclosing function, or "<load>" for a site that
    runs when the module loads (at module level or in a class body). An
    import under `if TYPE_CHECKING:` never runs and is left out."""
    sites = []
    numpy_names = set()  # the names an import binds to the numpy module

    def visit(node, qual, in_function):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.If) and isinstance(child.test, ast.Name)
                    and child.test.id == "TYPE_CHECKING"):
                visit(ast.Module(body=child.orelse), qual, in_function)
                continue
            site = qual if in_function else "<load>"
            names = ([a.name for a in child.names] if isinstance(child, ast.Import)
                     else [child.module or ""] if isinstance(child, ast.ImportFrom)
                     and not child.level else [])
            for heavy in HEAVY_IMPORTS:
                if any(n == heavy or n.startswith(heavy + ".") for n in names):
                    sites.append((heavy, site))
            if isinstance(child, ast.Import):
                numpy_names.update(
                    a.asname or "numpy" for a in child.names if a.name == "numpy"
                    or not a.asname and a.name.startswith("numpy."))
            elif names == ["numpy"]:
                sites.extend((f"numpy.{a.name}", site) for a in child.names
                             if a.name in TRANSCENDENTAL)
            elif (isinstance(child, ast.Attribute) and child.attr in TRANSCENDENTAL
                  and isinstance(child.value, ast.Name) and child.value.id in numpy_names):
                sites.append((f"numpy.{child.attr}", site))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{qual}.{child.name}" if qual else child.name,
                      in_function or not isinstance(child, ast.ClassDef))
            else:
                visit(child, qual, in_function)

    visit(ast.parse(source), "", False)
    return sites


PACKAGE_SITES = sorted({
    (heavy, f"{path.stem}.{site}") for path in sorted(PACKAGE.glob("*.py"))
    for heavy, site in heavy_import_sites(path.read_text(encoding="utf-8"))})


@pytest.mark.parametrize("heavy", sorted(HEAVY_IMPORTS))
def test_heavy_modules_are_imported_only_where_allowed(heavy):
    sites = [site for name, site in PACKAGE_SITES if name == heavy]
    assert sites  # the walk sees the imports it polices
    assert [site for site in sites if not HEAVY_IMPORTS[heavy](site)] == []


def test_no_transcendental_numpy_ufunc_in_the_package():
    assert [(name, site) for name, site in PACKAGE_SITES
            if name.startswith("numpy.")] == []


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
    assert heavy_import_sites(source) == [
        ("scipy", "<load>"), ("scipy", "<load>"), ("scipy", "A.m.inner"), ("scipy", "f")]


def test_checker_catches_a_module_level_numpy_import():
    source = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import numpy as np\n"
        "else:\n"
        "    from numpy import ndarray\n"
        "try:\n"
        "    import numpy.linalg\n"
        "except ImportError:\n"
        "    pass\n"
        "from .numpy import x\n"
        "def f():\n"
        "    import numpy as np\n"
    )
    sites = heavy_import_sites(source)
    assert sites == [("numpy", "<load>"), ("numpy", "<load>"), ("numpy", "f")]
    assert [s for s in sites if not HEAVY_IMPORTS["numpy"]("simulator." + s[1])] == [
        ("numpy", "<load>"), ("numpy", "<load>")]


def test_checker_catches_transcendental_numpy_ufuncs():
    source = (
        "import math, numpy as np\n"
        "import numpy.linalg\n"
        "from numpy import sqrt, power as pw\n"
        "T = np.log1p\n"
        "def f(x, other):\n"
        "    y = np.exp(x) + numpy.sin(x) + np.sqrt(x) + math.exp(x)\n"
        "    return other.log(y) + np.random.power(2.0) + pw(x, 2)\n"
        "class A:\n"
        "    def g(self, x):\n"
        "        import numpy as xp\n"
        "        return xp.tanh(x)\n"
    )
    assert [s for s in heavy_import_sites(source) if s[0] != "numpy"] == [
        ("numpy.power", "<load>"), ("numpy.log1p", "<load>"),
        ("numpy.exp", "f"), ("numpy.sin", "f"), ("numpy.tanh", "A.g")]


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
