"""Every name a module imports is used in that module.

An ast walk over each module of the package except __init__.py (which
imports in order to re-export). A name counts as used when it appears
anywhere in the module, in a quoted annotation too. An import line that
carries `# noqa: F401` is exempt, as in flake8.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "riskwatch"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Name bound by each import -> its line, leaving out noqa'd lines."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            line = alias.lineno
            if "noqa: F401" in lines[line - 1] or "noqa: F401" in lines[node.lineno - 1]:
                continue
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = line
    return bound


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                # a quoted annotation such as "MonitorEngine"
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = imported_names(tree, source.splitlines())
    used = used_names(tree)
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_name_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Iterable, Sequence\n"
        "from .x import kept  # noqa: F401\n"
        "def f(a: Sequence[int]) -> 'os.PathLike':\n"
        "    return a\n"
    )
    assert unused_imports(source) == ["Iterable (line 3)", "sys (line 2)"]
