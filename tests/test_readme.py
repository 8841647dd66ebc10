"""The examples a reader copies: every python block of README.md and the
package docstring's usage example run as written."""

import contextlib
import io
import re
from pathlib import Path

import pytest

import riskwatch

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def run(source: str) -> str:
    """What the code prints when run alone, as a script."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "<example>", "exec"), {"__name__": "__main__"})
    return out.getvalue()


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    printed = run(source)
    if "emit_report" in source:  # the tour
        assert printed.splitlines()[0] == "suspended"


def test_readme_blocks_are_found():
    # the tour and the offline metrics at least, so a changed fence fails
    assert len(BLOCKS) >= 2 and any("emit_report" in block for block in BLOCKS)


def test_package_docstring_example_runs():
    doc = riskwatch.__doc__
    example = doc.split("Typical use::\n", 1)[1]
    printed = run(re.sub(r"^    ", "", example, flags=re.M))
    assert len(printed.splitlines()) == 12  # one line per canonical period
