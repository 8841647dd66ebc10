"""Only the log intake counts log lines.

An ast walk over each module of the package: only monitor.py (which
creates and restores the count) and eventlog.py (whose ingest_log and
log_pairs count the lines they read or write) may assign to an attribute
named lines_consumed, by =, += or setattr.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "riskwatch"
MODULES = sorted(PACKAGE.glob("*.py"))
OWNERS = {"monitor.py", "eventlog.py"}


def _targets(node: ast.AST):
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def count_writes(source: str) -> list[int]:
    """Line numbers of the assignments to an attribute lines_consumed."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        for target in _targets(node):
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and sub.attr == "lines_consumed":
                    lines.append(node.lineno)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "setattr" and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == "lines_consumed"):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in OWNERS],
                         ids=lambda p: p.name)
def test_only_the_log_intake_counts_lines(path):
    assert count_writes(path.read_text(encoding="utf-8")) == []


def test_checker_flags_every_kind_of_write():
    source = (
        "engine.lines_consumed += 2\n"
        "engine.lines_consumed = 0\n"
        "a, engine.lines_consumed = 1, 2\n"
        "setattr(engine, 'lines_consumed', 3)\n"
        "n = engine.lines_consumed + 1\n"
    )
    assert count_writes(source) == [1, 2, 3, 4]
