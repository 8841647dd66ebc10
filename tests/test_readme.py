"""The examples a reader copies: every python block of README.md, every
line of its CLI block and the package docstring's usage example run as
written, the state sizes (canonical and daily) and version README quotes
are those the code writes, its key table lists the keys the log layout
has, and its config paragraph the range of every scenario setting."""

import contextlib
import dataclasses
import io
import json
import math
import re
import shlex
import sys
from pathlib import Path

import pytest

import riskwatch
from riskwatch import eventlog
from riskwatch.cli import EXIT_OK, main
from riskwatch.monitor import ENGINE_STATE_VERSION
from riskwatch.simulator import _RANGES, ScenarioConfig

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
CLI_BLOCK = re.search(r"^## CLI\n\n```bash\n(.*?)^```$", README.read_text(), re.M | re.S)[1]


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


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    # each riskwatch line in order, in one directory, with its < and >
    # redirects; RISKWATCH_CONFIG cuts the scenario to 3 periods of 100,
    # which every line but the preset's reads, so 20 replicates are quick
    monkeypatch.chdir(tmp_path)
    Path("small.json").write_text(json.dumps(
        {"scenario": {"periods": 3, "patients_per_period": 100}}))
    monkeypatch.setenv(eventlog.CONFIG_ENV_VAR, "small.json")
    printed, codes = [], []
    for line in CLI_BLOCK.splitlines():
        argv = shlex.split(line, comments=True)
        if not argv:
            continue
        assert argv.pop(0) == "riskwatch"
        redirect = {}
        for op in "<>":
            if op in argv:
                at = argv.index(op)
                redirect[op] = argv[at + 1]
                del argv[at:at + 2]
        if "partial.ndjson" in argv:  # the first 1.5 periods of the run's log
            lines = Path("run/events.ndjson").read_text().splitlines(keepends=True)
            Path("partial.ndjson").write_text("".join(lines[:300]))
        if "<" in redirect:
            monkeypatch.setattr(sys, "stdin", io.StringIO(Path(redirect["<"]).read_text()))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes.append(main(argv))
        if ">" in redirect:
            Path(redirect[">"]).write_text(out.getvalue())
        printed.append(out.getvalue())
    # simulate x 3, monitor x 2, the interrupted monitor and its replay,
    # report, --print-defaults; the small canonical run stays normal
    assert codes == [EXIT_OK] * 9
    assert Path("run/events.ndjson").read_text().count("\n") == 600
    assert Path("run-tail/events.ndjson").read_text().count("\n") == 48_000
    assert sorted(p.name for p in Path("sweep").iterdir()) == sorted(
        [f"seed-{seed}" for seed in range(42, 62)] + ["summary.json"])
    assert printed[4] and printed[4] == printed[7]  # the stdin JSON report is the report's
    assert Path("done/report.csv").read_bytes() == Path("run-mon/report.csv").read_bytes()
    assert json.loads(Path("myconfig.json").read_text()) == eventlog.default_config()


def test_package_docstring_example_runs():
    doc = riskwatch.__doc__
    example = doc.split("Typical use::\n", 1)[1]
    printed = run(re.sub(r"^    ", "", example, flags=re.M))
    assert len(printed.splitlines()) == 12  # one line per canonical period


def test_quoted_state_size_and_version_are_the_codes(tmp_path):
    # the canonical simulate's state.json, as the CLI block's first line
    # writes it
    text = README.read_text()
    size = re.search(r"about ([\d.]+) KB\s+\(([\d,]+) B for the\s+canonical `simulate`\)",
                     text)
    version = re.search(r"`engine_version` (\d+)\.", text)
    assert size and version, "README no longer quotes the state size or version"
    assert main(["simulate", "--out", str(tmp_path / "run")]) == EXIT_OK
    state = tmp_path / "run" / "state.json"
    assert state.stat().st_size == int(size[2].replace(",", ""))
    assert round(state.stat().st_size / 1000, 1) == float(size[1])
    assert int(version[1]) == ENGINE_STATE_VERSION
    assert json.loads(state.read_text())["state"]["engine_version"] == ENGINE_STATE_VERSION


def test_quoted_daily_state_size_is_the_codes(tmp_path):
    # 365 daily periods of 60 patients, the drift starting a third of the way in
    size = re.search(r"one with 365 daily periods is\s+about (\d+) KB", README.read_text())
    assert size, "README no longer quotes the daily state size"
    config = tmp_path / "daily.json"
    config.write_text(json.dumps({"scenario": {
        "periods": 365, "patients_per_period": 60, "drift_start_period": 122}}))
    assert main(["simulate", "--scenario", str(config), "--out", str(tmp_path / "run")]) == EXIT_OK
    assert round((tmp_path / "run" / "state.json").stat().st_size / 1000) == int(size[1])


def test_key_table_lists_the_layouts_keys():
    # (line, key) per row; a key of every kind's line is listed as "both"
    table = README.read_text().split("| Line | Key | Accepts |\n", 1)[1].split("\n\n")[0]
    listed = re.findall(r"^\| (\w+) \| `(\w+)` \|", table, re.M)
    keys = {kind: set(layout) for kind, (_, layout) in eventlog._LAYOUT.items()}
    both = set.intersection(*keys.values()) | {eventlog._KIND}
    expected = [("both", key) for key in both] + [
        (kind, key) for kind, kind_keys in keys.items() for key in kind_keys - both]
    assert sorted(listed) == sorted(expected)


def interval(least: float, most: float) -> str:
    """A closed float range in README's notation: an end beside a whole
    number is that number's open end, and the largest float is max."""
    def end(value: float, inward: float) -> tuple[bool, str]:
        if abs(value) == sys.float_info.max:
            return False, "max" if value > 0 else "-max"
        whole = float(round(value))
        assert value in (whole, math.nextafter(whole, inward)), value
        return value != whole, f"{whole:g}"

    (low_open, low), (high_open, high) = end(least, math.inf), end(most, -math.inf)
    return f"{'(' if low_open else '['}{low}, {high}{')' if high_open else ']'}"


def test_config_paragraph_lists_each_scenario_range():
    # "`a`, `b` and `c` lie in (0, 1)", "`d` in [0, max]", one range per
    # group of settings; "are integers >= 1", "`seed` >= 0" for the ints
    text = " ".join(README.read_text().split())
    text = text.split("In `scenario`, ", 1)[1].split("A config that breaks", 1)[0]
    listed = {}
    for names, notation in re.findall(r"((?:`\w+`(?:, | and )?)+) (?:lie )?in ([\[(][^])]*[])])",
                                      text):
        listed.update(dict.fromkeys(re.findall(r"`(\w+)`", names), notation))
    for names, least in re.findall(r"((?:`\w+`(?:, | and )?)+) (?:are integers )?>= (\d+)", text):
        listed.update(dict.fromkeys(re.findall(r"`(\w+)`", names), int(least)))
    finite = (-sys.float_info.max, sys.float_info.max)  # a float's range by default
    expected = {f.name: _RANGES.get(f.name, 1) if f.type == "int"
                else interval(*_RANGES.get(f.name, finite))
                for f in dataclasses.fields(ScenarioConfig)}
    assert listed == expected
