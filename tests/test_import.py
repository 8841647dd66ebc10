"""The package keeps its static rules, and runs without its extras.

The standard library is riskwatch's only requirement. numpy is the one
extra, `simulate`: only generate_arrays, which hands the scenario draw out
as numpy arrays, imports it, when called. scipy is no extra: the package
imports it nowhere, and only the tests use it, as an oracle. Importing
numpy takes about 0.15 s and about 12 MB of resident memory, and
scipy.special alone adds about 20 MB, so the package, the CLI,
engine_from_config and every simulate, monitor, replay and report call
(period closes included) load neither.

One ast walk over each module finds every site of nine static rules, and
one table (RULES) says where each may stand:
- a heavy import: numpy only at the site above, scipy nowhere; fractions
  and statistics (each loads decimal, about 3 ms) only inside a function,
  never at load; hashlib (it loads OpenSSL, about 3.6 MB) only as
  eventlog's fallback where CPython's builtin sha256 is missing;
- a transcendental numpy ufunc (exp, log, power, trig and the like):
  nowhere, because numpy picks their SIMD loops by host CPU, and on
  AVX-512 those differ from libm in the last bit, so the outputs would
  depend on the machine that wrote them;
- an unused import: only in __init__.py, which imports to re-export, so
  there the names its imports bind must be its __all__;
- a write to lines_consumed: only in the log intake (eventlog) and the
  engine that creates and restores the count (monitor);
- an _acc_* attribute bound to a list: nowhere, since a list boxes every
  value as a float object, about 3x the engine's typed arrays;
- a file operation (open, os.replace, os.fsync, os.remove and the like,
  or sys.stdin): only in eventlog, so one opener decodes every log and one
  atomic writer writes every output;
- an int type test (type(x) is int, type(x) is not int, isinstance with
  int): only in core, which states the integer and number rules once;
- a float type test (type(x) is float, type(x) is not float, isinstance
  with float): only in core too, for the same reason;
- a bool type test (the same with bool): only in core, whose check_fields
  states the bool rule of every settings class once.

The runtime checks run in a fresh interpreter whose import system refuses
numpy, scipy or both, as on an install without them: the CLI must give
the same exit codes and bytes there as in this process, and the call that
needs the extra must name it."""

import ast
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from typing import NamedTuple

import pytest

import riskwatch
from riskwatch.cli import EXIT_ALARM, EXIT_OK, main
from riskwatch.eventlog import CONFIG_ENV_VAR
from riskwatch.tailrisk import cvar_variational

SRC = Path(__file__).resolve().parents[1] / "src"
BENCH = SRC.parent / "bench"
PACKAGE = SRC / "riskwatch"
INIT = PACKAGE / "__init__.py"
MODULES = sorted(PACKAGE.glob("*.py"))

# where the package may import each heavy module: a test of the import
# site, "<module>.<function>", or "<module>.<load>" for an import that runs
# when the module loads
HEAVY_IMPORTS = {
    "scipy": lambda site: False,
    "numpy": lambda site: site == "simulator.generate_arrays",
    # the exact sums past the float range, and the simulator's normal
    # quantiles: each loads decimal, so never at load
    **dict.fromkeys(("fractions", "statistics"), lambda site: not site.endswith(".<load>")),
    # the state checksum's fallback, where CPython's builtin sha256 is missing
    "hashlib": lambda site: site == "eventlog.<load>",
}

TYPE_TEST_RULES = ("int type test", "float type test", "bool type test")

# where a finding of each rule may stand, by the same sites
RULES = {
    **HEAVY_IMPORTS,
    "transcendental ufunc": lambda site: False,
    "unused import": lambda site: site.startswith("__init__."),
    "lines_consumed write": lambda site: site.startswith(("eventlog.", "monitor.")),
    "_acc_* list": lambda site: False,
    "file operation": lambda site: site.startswith("eventlog."),
    **{rule: lambda site: site.startswith("core.") for rule in TYPE_TEST_RULES},
}

# the calls the "file operation" rule finds, besides any use of sys.stdin
FILE_CALLS = frozenset({"open", "os.open", "os.replace", "os.rename", "os.fsync",
                        "os.remove", "os.unlink"})

# numpy ufuncs whose SIMD loops need not match libm bit for bit; sqrt and
# the arithmetic ufuncs are correctly rounded under every dispatch
TRANSCENDENTAL = frozenset("""
    exp exp2 expm1 log log2 log10 log1p logaddexp logaddexp2 power pow float_power
    sin cos tan arcsin arccos arctan arctan2 asin acos atan atan2 hypot
    sinh cosh tanh arcsinh arccosh arctanh asinh acosh atanh cbrt
""".split())


class Finding(NamedTuple):
    rule: str
    site: str  # the enclosing function's qualified name, or "<load>"
    line: int
    name: str  # what the rule found: a module, "numpy.<ufunc>", a bound name


def findings(source: str) -> list[Finding]:
    """Every place the source meets a rule of RULES, in one walk:

    - "numpy", "scipy": an import of that module or a submodule;
    - "transcendental ufunc": a TRANSCENDENTAL numpy ufunc, as an attribute
      of a name bound to numpy or imported by name from numpy;
    - "unused import": a name an import binds that appears nowhere else in
      the module, a quoted annotation included, unless the import line
      carries `# noqa: F401` (as in flake8);
    - "lines_consumed write": an assignment to an attribute lines_consumed,
      by =, += or setattr;
    - "_acc_* list": an _acc_* attribute bound to a list (a literal, a
      comprehension or a list() call), tuple assignments included;
    - "file operation": a call to one of FILE_CALLS, or sys.stdin;
    - "int type test": type(x) is int, type(x) is not int, or an isinstance
      call whose type, or a member of its tuple of types, is int;
    - "float type test", "bool type test": the same with float, with bool.

    The site is "<load>" for code that runs when the module loads (at
    module level or in a class body). Code under `if TYPE_CHECKING:` never
    runs: its imports count only for the unused-import rule."""
    lines = source.splitlines()
    found, imports, used = [], [], set()
    numpy_names = set()  # the names an import binds to the numpy module

    def check(node, site, runs):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in _annotations(node):
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    # a quoted annotation such as "MonitorEngine"
                    quoted = ast.parse(sub.value, mode="eval")
                    used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
        if (isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            noqa = "noqa: F401" in lines[line - 1]
            imports.extend((alias.asname or alias.name.split(".")[0], site, alias.lineno)
                           for alias in node.names
                           if not noqa and "noqa: F401" not in lines[alias.lineno - 1])
        for target in _targets(node):
            if any(isinstance(sub, ast.Attribute) and sub.attr == "lines_consumed"
                   for sub in ast.walk(target)):
                found.append(Finding("lines_consumed write", site, line, "lines_consumed"))
            if not isinstance(node, ast.AugAssign):
                found.extend(Finding("_acc_* list", site, line, attr)
                             for attr in _acc_lists(target, node.value))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "setattr" and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == "lines_consumed"):
            found.append(Finding("lines_consumed write", site, line, "lines_consumed"))
        found.extend(Finding(f"{kind} type test", site, line, kind)
                     for kind in ("int", "float", "bool") if _tests_for(node, kind))
        if not runs:
            return
        if isinstance(node, ast.Call) and _dotted(node.func) in FILE_CALLS:
            found.append(Finding("file operation", site, line, _dotted(node.func)))
        elif isinstance(node, ast.Attribute) and _dotted(node) == "sys.stdin":
            found.append(Finding("file operation", site, line, "sys.stdin"))
        modules = ([a.name for a in node.names] if isinstance(node, ast.Import)
                   else [node.module or ""] if isinstance(node, ast.ImportFrom)
                   and not node.level else [])
        for heavy in HEAVY_IMPORTS:
            found.extend(Finding(heavy, site, line, m) for m in modules
                         if m == heavy or m.startswith(heavy + "."))
        if isinstance(node, ast.Import):
            numpy_names.update(
                a.asname or "numpy" for a in node.names if a.name == "numpy"
                or not a.asname and a.name.startswith("numpy."))
        elif modules == ["numpy"]:
            found.extend(Finding("transcendental ufunc", site, line, f"numpy.{a.name}")
                         for a in node.names if a.name in TRANSCENDENTAL)
        elif (isinstance(node, ast.Attribute) and node.attr in TRANSCENDENTAL
              and isinstance(node.value, ast.Name) and node.value.id in numpy_names):
            found.append(Finding("transcendental ufunc", site, line, f"numpy.{node.attr}"))

    def visit(node, qual, in_function, runs):
        never = (node.body if isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                 and node.test.id == "TYPE_CHECKING" else [])
        for child in ast.iter_child_nodes(node):
            child_runs = runs and all(child is not stmt for stmt in never)
            check(child, qual if in_function else "<load>", child_runs)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{qual}.{child.name}" if qual else child.name,
                      in_function or not isinstance(child, ast.ClassDef), child_runs)
            else:
                visit(child, qual, in_function, child_runs)

    visit(ast.parse(source), "", False, True)
    return found + [Finding("unused import", site, line, name)
                    for name, site, line in imports if name not in used]


def _dotted(node) -> str | None:
    """name or module.name for a Name or an attribute of one, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    return None


def _tests_for(node, kind: str) -> bool:
    """Whether the node is type(x) is (not) kind, or isinstance(x, kind) or
    with a tuple of types holding kind ("int", "float" or "bool")."""
    if isinstance(node, ast.Compare):
        return (isinstance(node.left, ast.Call) and _dotted(node.left.func) == "type"
                and all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                and any(_dotted(c) == kind for c in node.comparators))
    if isinstance(node, ast.Call) and _dotted(node.func) == "isinstance" and len(node.args) == 2:
        kinds = node.args[1]
        return any(_dotted(k) == kind
                   for k in (kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]))
    return False


def _annotations(node):
    if isinstance(node, ast.arg) and node.annotation is not None:
        yield node.annotation
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
        yield node.returns
    elif isinstance(node, ast.AnnAssign):
        yield node.annotation


def _targets(node):
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def _acc_lists(target, value):
    """The _acc_* attributes the target binds to a list."""
    if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
        return [attr for t, v in zip(target.elts, value.elts) for attr in _acc_lists(t, v)]
    is_list = (isinstance(value, (ast.List, ast.ListComp))
               or isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
               and value.func.id == "list")
    return ([target.attr] if is_list and isinstance(target, ast.Attribute)
            and target.attr.startswith("_acc_") else [])


PACKAGE_FINDINGS = [
    f._replace(site=f"{path.stem}.{f.site}") for path in MODULES
    for f in findings(path.read_text(encoding="utf-8"))]


def violations(rule: str, path: Path | None = None) -> list[Finding]:
    return [f for f in PACKAGE_FINDINGS if f.rule == rule and not RULES[rule](f.site)
            and (path is None or f.site.startswith(path.stem + "."))]


def modules_under(rule: str) -> list[Path]:
    """The modules in which a rule allows no site."""
    return [p for p in MODULES if not RULES[rule](f"{p.stem}.<load>")]


@pytest.mark.parametrize("heavy", sorted(HEAVY_IMPORTS))
def test_heavy_modules_are_imported_only_where_allowed(heavy):
    # the walk sees what it polices; scipy, allowed nowhere, is found only
    # where test_scipy_import_sites_checker plants it
    assert [f for f in PACKAGE_FINDINGS if f.rule == heavy] or heavy == "scipy"
    assert violations(heavy) == []


def test_no_transcendental_numpy_ufunc_in_the_package():
    assert violations("transcendental ufunc") == []


@pytest.mark.parametrize("path", modules_under("unused import"), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert violations("unused import", path) == []


def export_gaps(source: str, exported) -> tuple[set[str], set[str]]:
    """The names the module-level imports of a package's __init__ source
    bind that exported leaves out, and the names in exported, __version__
    aside, that no import binds."""
    imported = {alias.asname or alias.name.split(".")[0] for node in ast.parse(source).body
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    exported = set(exported) - {"__version__"}
    return imported - exported, exported - imported


def test_init_exports_what_it_imports():
    # the unused-import rule spares __init__.py, so this check stands in for it
    assert export_gaps(INIT.read_text(encoding="utf-8"), riskwatch.__all__) == (set(), set())


def test_export_check_flags_a_planted_import_and_an_export_with_no_import():
    source = INIT.read_text(encoding="utf-8") + "from .core import Joiner\n"
    assert export_gaps(source, riskwatch.__all__) == ({"Joiner"}, set())
    assert export_gaps(source, [*riskwatch.__all__, "Joiner", "Ghost"]) == (set(), {"Ghost"})


@pytest.mark.parametrize("path", modules_under("lines_consumed write"), ids=lambda p: p.name)
def test_only_the_log_intake_counts_lines(path):
    assert violations("lines_consumed write", path) == []


@pytest.mark.parametrize("path", modules_under("file operation"), ids=lambda p: p.name)
def test_only_eventlog_touches_files(path):
    assert [f for f in PACKAGE_FINDINGS if f.rule == "file operation"]  # eventlog's
    assert violations("file operation", path) == []


@pytest.mark.parametrize("rule, path", [
    pytest.param(rule, path, id=f"{rule.split()[0]}-{path.name}")
    for rule in TYPE_TEST_RULES for path in modules_under(rule)])
def test_only_core_tests_for_a_type(rule, path):
    assert [f for f in PACKAGE_FINDINGS if f.rule == rule]  # core's
    assert violations(rule, path) == []


def test_engine_accumulators_are_never_lists():
    assert [f for f in PACKAGE_FINDINGS if f.rule == "_acc_* list"] == []


def sites(source: str, rule: str) -> list[tuple[str, str]]:
    return [(f.rule, f.site) for f in findings(source) if f.rule == rule]


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
    assert sites(source, "scipy") == [
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
        "def generate_arrays():\n"
        "    import numpy as np\n"
        "def scenario_pairs():\n"
        "    import numpy as np\n"
    )
    found = sites(source, "numpy")
    assert found == [("numpy", "<load>"), ("numpy", "<load>"), ("numpy", "generate_arrays"),
                     ("numpy", "scenario_pairs")]
    assert [s for s in found if not HEAVY_IMPORTS["numpy"]("simulator." + s[1])] == [
        ("numpy", "<load>"), ("numpy", "<load>"), ("numpy", "scenario_pairs")]


def test_checker_catches_a_module_level_statistics_import():
    source = (
        "import statistics\n"
        "from statistics import NormalDist\n"
        "def draw():\n"
        "    from statistics import NormalDist\n"
    )
    found = sites(source, "statistics")
    assert found == [("statistics", "<load>"), ("statistics", "<load>"), ("statistics", "draw")]
    assert [s for s in found if not HEAVY_IMPORTS["statistics"]("simulator." + s[1])] == [
        ("statistics", "<load>"), ("statistics", "<load>")]


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
    assert [(f.name, f.site) for f in findings(source)
            if f.rule == "transcendental ufunc"] == [
        ("numpy.power", "<load>"), ("numpy.log1p", "<load>"),
        ("numpy.exp", "f"), ("numpy.sin", "f"), ("numpy.tanh", "A.g")]


def test_checker_flags_an_unused_name_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Iterable, Sequence\n"
        "from .x import kept  # noqa: F401\n"
        "def f(a: Sequence[int]) -> 'os.PathLike':\n"
        "    return a\n"
    )
    assert sorted(f"{f.name} (line {f.line})" for f in findings(source)
                  if f.rule == "unused import") == ["Iterable (line 3)", "sys (line 2)"]


def test_checker_flags_every_kind_of_write():
    source = (
        "engine.lines_consumed += 2\n"
        "engine.lines_consumed = 0\n"
        "a, engine.lines_consumed = 1, 2\n"
        "setattr(engine, 'lines_consumed', 3)\n"
        "n = engine.lines_consumed + 1\n"
    )
    assert sorted(f.line for f in findings(source)
                  if f.rule == "lines_consumed write") == [1, 2, 3, 4]


# each type-test rule's checker test: a source whose lines 2, 4, 5 and 6
# test for the type and whose lines 7 and 8 do not, and the module outside
# core in which a planted copy of that source breaks the rule
TYPE_TEST_SOURCES = {
    "int": ((
        "def check(n):\n"
        "    if type(n) is not int or n < 1:\n"
        "        raise ValueError(n)\n"
        "ok = type(n) is int\n"
        "isinstance(n, int)\n"
        "isinstance(n, (float, int))\n"
        "isinstance(n, float)\n"
        "type(n) is float or int(n)\n"
    ), "calibration"),
    "float": ((
        "def check(x):\n"
        "    if type(x) is not float or x < 0:\n"
        "        raise ValueError(x)\n"
        "ok = type(x) is float\n"
        "isinstance(x, float)\n"
        "isinstance(x, (int, float))\n"
        "isinstance(x, int)\n"
        "type(x) is int or float(x)\n"
    ), "calibration"),
    "bool": ((
        "def check(b):\n"
        "    if type(b) is not bool:\n"
        "        raise ValueError(b)\n"
        "ok = type(b) is bool\n"
        "isinstance(b, bool)\n"
        "isinstance(b, (int, bool))\n"
        "isinstance(b, int)\n"
        "bool(b)\n"
    ), "alarms"),
}


@pytest.mark.parametrize("kind", TYPE_TEST_SOURCES)
def test_checker_flags_every_type_test(kind):
    source, module = TYPE_TEST_SOURCES[kind]
    rule = f"{kind} type test"
    assert [(f.line, f.site) for f in findings(source) if f.rule == rule] == [
        (2, "check"), (4, "<load>"), (5, "<load>"), (6, "<load>")]
    # a copy of core's rule for the type planted outside core breaks the rule
    planted = findings((PACKAGE / f"{module}.py").read_text(encoding="utf-8") + source)
    assert [f.line for f in planted if f.rule == rule and not RULES[rule](f"{module}.{f.site}")]


def test_file_operations_checker():
    source = (
        "import os, sys\n"
        "def f(path, eventlog):\n"
        "    with open(path, 'w') as fp:\n"
        "        os.replace(path, path + '.old')\n"
        "    os.fsync(fp.fileno())\n"
        "    eventlog.open_log(path).read()\n"
        "    os.path.join(path, 'x')\n"
        "    return sys.stdin.reconfigure\n"
        "os.remove('x')\n"
        "fp.open(os.replace)\n"
    )
    assert [(f.name, f.site) for f in findings(source) if f.rule == "file operation"] == [
        ("open", "f"), ("os.replace", "f"), ("os.fsync", "f"), ("sys.stdin", "f"),
        ("os.remove", "<load>")]


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
    assert sorted(f.line for f in findings(source) if f.rule == "_acc_* list") == [1, 2, 4, 6]


# argv: the top-level modules to refuse, comma-separated; a JSON list of
# CLI argvs; a JSON list of losses. Prints as JSON the refused modules the
# imports asked for; each call's exit code, stdout, stderr and the refused
# modules it asked for; cvar_variational of the losses and what it asked
# for; the dtype of a small generate_arrays draw's y, or what it raises
BLOCKED_CHILD = """
import contextlib, io, json, sys

REFUSED = set(sys.argv[1].split(","))
asked = []

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in REFUSED:
            asked.append(name)
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

def took():
    names = sorted(set(asked))
    del asked[:]
    return names

sys.meta_path.insert(0, Refuse())
import riskwatch.cli
from riskwatch.simulator import ScenarioConfig, generate_arrays
from riskwatch.tailrisk import cvar_variational

at_import = took()
calls = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()) as out, \\
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = riskwatch.cli.main(argv)
    calls.append([code, out.getvalue(), err.getvalue(), took()])
cvar = [cvar_variational(json.loads(sys.argv[3]), 0.9), took()]
try:
    arrays = str(generate_arrays(ScenarioConfig(periods=1, patients_per_period=10))["y"].dtype)
except Exception as exc:
    arrays = [type(exc).__name__, str(exc)]
print(json.dumps({"at_import": at_import, "calls": calls, "cvar": cvar,
                  "arrays": arrays}))
"""

LOSSES = [(i * 7919 % 1000) / 37.0 for i in range(2000)]  # ties included


def calls(log, prefix, cfg, out):
    """CLI calls over a simulated log, each writing under out."""
    return [
        ["--print-defaults"],
        ["monitor", "--in", log, "--out", f"{out}/monitor"],
        ["monitor", "--in", prefix, "--out", f"{out}/part", "--no-finalize"],
        ["replay", "--snapshot", f"{out}/part/state.json", "--in", log,
         "--out", f"{out}/replay"],
        ["report", "--in", f"{out}/replay/state.json"],
        ["report", "--in", f"{out}/replay/state.json", "--format", "json"],
        ["simulate", "--scenario", cfg, "--out", f"{out}/simulate"],
    ]


def run_refusing(refused: str, tmp_path: Path, monkeypatch) -> tuple[dict, list]:
    """The calls in a child refusing those modules, and here: the child's
    result, and the exit code and stdout of each call here."""
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    # the canonical scenario at 300 patients per period, simulated here
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps({"scenario": {"patients_per_period": 300}}))
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(cfg), "--out", str(sim)]) == EXIT_OK
    log = sim / "events.ndjson"
    lines = log.read_text().splitlines(True)
    prefix = tmp_path / "prefix.ndjson"
    prefix.write_text("".join(lines[: len(lines) // 2]))
    paths = (str(log), str(prefix), str(cfg))

    env = {k: v for k, v in os.environ.items() if k != CONFIG_ENV_VAR}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKED_CHILD, refused,
         json.dumps(calls(*paths, tmp_path / "child")), json.dumps(LOSSES)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    here = []
    for argv in calls(*paths, tmp_path / "here"):
        with redirect_stdout(io.StringIO()) as out:
            here.append([main(argv), out.getvalue()])
    return json.loads(proc.stdout.splitlines()[-1]), here


def same_files(tmp_path: Path, name: str) -> bool:
    child, here = tmp_path / "child" / name, tmp_path / "here" / name
    names = sorted(p.name for p in here.iterdir())
    return names == sorted(p.name for p in child.iterdir()) and all(
        (child / n).read_bytes() == (here / n).read_bytes() for n in names)


def asked_for(top: str, names: list[str]) -> list[str]:
    return [n for n in names if n.partition(".")[0] == top]


@pytest.fixture(scope="module")
def refusing_both(tmp_path_factory):
    """run_refusing("numpy,scipy"), run once for the two tests that read it:
    the directory the calls wrote under, the child's result and here's."""
    tmp_path = tmp_path_factory.mktemp("refusing-both")
    with pytest.MonkeyPatch.context() as monkeypatch:
        got, here = run_refusing("numpy,scipy", tmp_path, monkeypatch)
    return tmp_path, got, here


def test_cli_paths_never_import_numpy(refusing_both):
    tmp_path, got, here = refusing_both

    # every call, simulate included, runs without numpy, never asks for it
    # and gives the codes and bytes it gives here
    assert [c[0] for c in got["calls"]] == [c[0] for c in here] == [
        EXIT_OK, EXIT_ALARM, EXIT_OK, EXIT_ALARM, EXIT_OK, EXIT_OK, EXIT_OK]
    assert [c[1] for c in got["calls"]] == [c[1] for c in here]
    assert got["calls"][0][1] and got["calls"][4][1] and got["calls"][5][1]
    assert asked_for("numpy", got["at_import"]) == []
    assert [asked_for("numpy", c[3]) for c in got["calls"]] == [[]] * 7
    for name in ("monitor", "part", "replay", "simulate"):
        assert same_files(tmp_path, name)
    assert got["cvar"] == [cvar_variational(LOSSES, 0.9), []]

    # generate_arrays, which hands the draw out as numpy arrays, needs the
    # extra and names it
    assert got["arrays"][0] == "MissingExtra"
    assert "pip install 'riskwatch[simulate]'" in got["arrays"][1]


def test_monitor_path_never_imports_scipy(refusing_both):
    tmp_path, got, here = refusing_both

    # no import and no call asks for scipy, simulate included
    assert asked_for("scipy", got["at_import"]) == []
    assert [asked_for("scipy", c[3]) for c in got["calls"]] == [[]] * 7
    # the drift is caught after mid-run: the prefix closes quietly, the
    # resumed run alarms
    assert [c[0] for c in got["calls"][2:4]] == [EXIT_OK, EXIT_ALARM]
    # the resumed run reproduces the in-process simulate byte for byte
    for name in ("report.csv", "state.json"):
        assert (tmp_path / "child" / "replay" / name).read_bytes() == (
            tmp_path / "sim" / name).read_bytes()


def test_simulate_path_never_imports_scipy(tmp_path, monkeypatch):
    # scipy.special alone adds about 20 MB of RSS to a simulate run
    got, here = run_refusing("scipy", tmp_path, monkeypatch)

    assert [c[:2] for c in got["calls"]] == here
    assert got["at_import"] == [] and [c[3] for c in got["calls"]] == [[]] * 7
    for name in ("monitor", "part", "replay", "simulate"):
        assert same_files(tmp_path, name)
    assert got["arrays"] == "int64"


# runs CLI calls in a fresh interpreter, then prints which of the named
# modules are loaded
LOADED_CHILD = """
import contextlib, io, json, sys
import riskwatch.cli

for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        riskwatch.cli.main(argv)
print(json.dumps(sorted(set(json.loads(sys.argv[2])) & sys.modules.keys())))
"""


def loaded_by(argvs: list[list[str]], modules: list[str]) -> list[str]:
    """Those of the modules that the CLI calls leave loaded in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != CONFIG_ENV_VAR}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", LOADED_CHILD, json.dumps(argvs),
                           json.dumps(modules)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def small_simulate(tmp_path: Path) -> list[str]:
    """A simulate call of the canonical scenario at 300 patients per period."""
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps({"scenario": {"patients_per_period": 300}}))
    return ["simulate", "--scenario", str(cfg), "--out", str(tmp_path / "sim")]


CPYTHON_ONLY = pytest.mark.skipif(sys.implementation.name != "cpython",
                                  reason="a builtin module of CPython")


@CPYTHON_ONLY
def test_the_state_checksum_is_the_builtin_sha256():
    # CPython 3.10 and 3.11 name the module _sha256, 3.12 on _sha2; a silent
    # fallback to hashlib's would show only as the memory OpenSSL takes
    from riskwatch import eventlog

    assert eventlog.sha256.__module__ == ("_sha256" if sys.version_info < (3, 12) else "_sha2")


@CPYTHON_ONLY
def test_snapshots_save_and_load_without_openssl(tmp_path):
    log, part = tmp_path / "sim" / "events.ndjson", tmp_path / "part"
    argvs = [small_simulate(tmp_path),
             ["monitor", "--in", str(log), "--out", str(part), "--no-finalize"],
             ["replay", "--snapshot", str(part / "state.json"), "--in", str(log),
              "--out", str(tmp_path / "replay")]]
    assert loaded_by(argvs, ["_hashlib", "hashlib"]) == []
    assert (tmp_path / "replay" / "state.json").is_file()


@CPYTHON_ONLY
def test_simulate_loads_no_decimal(tmp_path):
    # the draw's normal quantiles call the C function statistics wraps
    assert loaded_by([small_simulate(tmp_path)], ["decimal", "fractions", "statistics"]) == []
    assert (tmp_path / "sim" / "state.json").is_file()


def test_the_benchmark_finds_every_name_it_wraps():
    # bench/spans.py wraps riskwatch's layer boundaries by attribute name and
    # bench/workloads.py patches MonitorEngine._close_period, in untraced runs
    # too; a refactor that drops one of those names fails here, in a fresh
    # interpreter, since both patch the modules they reach
    child = ("import sys\n"
             "sys.path[:0] = sys.argv[1:]\n"
             "import spans, workloads\n"
             "spans.instrument(spans.Tracer())\n"
             "with workloads.close_timer():\n"
             "    pass\n")
    proc = subprocess.run([sys.executable, "-c", child, str(BENCH), str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
