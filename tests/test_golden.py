"""Byte identity of every CLI output, pinned by digest.

One table, GOLDEN, maps each case to the sha256 of every file it writes
and to its exit code:
- simulate of each preset at 200 patients per period, through a config
  file, in csv and json;
- monitor over a small committed fixture log, lenient and --strict. The
  log (data/faults.ndjson) holds bad JSON, a schema error, an orphan, a
  duplicate outcome, a CRLF line and an unterminated last line;
- a --no-finalize checkpoint over the log's first lines, then a replay
  of the whole log from it;
- report from the lenient monitor's saved state.

A change that moves a byte of any output fails here. If the change is
meant, print the new table with `PYTHONPATH=src python tests/test_golden.py`
and state each old and new digest, and why, in CHANGES.md."""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from riskwatch.cli import main
from riskwatch.eventlog import CONFIG_ENV_VAR
from riskwatch.simulator import preset, preset_names

FIXTURE = Path(__file__).resolve().parent / "data" / "faults.ndjson"
SPLIT_AT = 40  # the lines of the fixture the checkpoint reads


def _simulate(name, fmt):
    def run(out, tmp):
        config = tmp / "config.json"
        config.write_text(json.dumps(
            {"scenario": {**asdict(preset(name)), "patients_per_period": 200}}))
        return main(["simulate", "--scenario", str(config), "--out", str(out),
                     "--format", fmt])
    return run


def _monitor(*options):
    def run(out, tmp):
        return main(["monitor", "--in", str(FIXTURE), "--out", str(out), *options])
    return run


def _split(out, tmp):
    prefix = tmp / "prefix.ndjson"
    prefix.write_bytes(b"".join(FIXTURE.read_bytes().splitlines(True)[:SPLIT_AT]))
    code = main(["monitor", "--in", str(prefix), "--out", str(out / "checkpoint"),
                 "--no-finalize"])
    return code, main(["replay", "--snapshot", str(out / "checkpoint" / "state.json"),
                       "--in", str(FIXTURE), "--out", str(out / "replay")])


def _report(fmt):
    def run(out, tmp):
        assert main(["monitor", "--in", str(FIXTURE), "--out", str(tmp)]) == 3
        return main(["report", "--in", str(tmp / "state.json"), "--format", fmt,
                     "--out", str(out / f"report.{fmt}")])
    return run


CASES = {
    **{f"simulate-{name}-{fmt}": _simulate(name, fmt)
       for name in preset_names() for fmt in ("csv", "json")},
    "monitor-lenient-csv": _monitor(),
    "monitor-lenient-json": _monitor("--format", "json"),
    "monitor-strict": _monitor("--strict"),
    "checkpoint-replay": _split,
    "report-csv": _report("csv"),
    "report-json": _report("json"),
}


def outputs(case: str, root: Path) -> tuple[dict[str, str], object]:
    """The sha256 of each file the case writes, by path, and its exit code."""
    out, tmp = root / "out", root / "tmp"
    out.mkdir()
    tmp.mkdir()
    code = CASES[case](out, tmp)
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}, code


# computed with the fixture and presets above; see the module docstring
GOLDEN = {
    "checkpoint-replay": ({
        "checkpoint/report.csv":
            "153b9a9bb5d5ee06d778abbdde93f415860ef348e6a54614cf2bc13c5fc71a43",
        "checkpoint/state.json":
            "c908d2661a3b3d33e80c3ff85a00235839822c2196eca770b04994332ce276ca",
        "replay/report.csv":
            "bfa474a8aaee7fe5c47a0e23b146c26512232516a3811f1d4a8a3722e9c7cf76",
        "replay/state.json":
            "2d55f3b6bbb011a79638a54d34c4831b50a6f2a601bbd96caa6a54d4ccb31dfc",
    }, (3, 3)),
    "monitor-lenient-csv": ({
        "report.csv":
            "bfa474a8aaee7fe5c47a0e23b146c26512232516a3811f1d4a8a3722e9c7cf76",
        "state.json":
            "2d55f3b6bbb011a79638a54d34c4831b50a6f2a601bbd96caa6a54d4ccb31dfc",
    }, 3),
    "monitor-lenient-json": ({
        "report.json":
            "87ce4dcd976907949a59ffc7ffe7fddb50657c0242a5059228fce53d02d050a9",
        "state.json":
            "2d55f3b6bbb011a79638a54d34c4831b50a6f2a601bbd96caa6a54d4ccb31dfc",
    }, 3),
    "monitor-strict": ({}, 2),
    "report-csv": ({
        "report.csv":
            "bfa474a8aaee7fe5c47a0e23b146c26512232516a3811f1d4a8a3722e9c7cf76",
    }, 0),
    "report-json": ({
        "report.json":
            "87ce4dcd976907949a59ffc7ffe7fddb50657c0242a5059228fce53d02d050a9",
    }, 0),
    "simulate-icu_tail-csv": ({
        "config.json":
            "1b25cb941087df6e3f693ab4a31df8374fe173f155c12a7f33ab4b5c9b93f437",
        "events.ndjson":
            "3a3b818cb9efafe5c54a1fbf87fa2ddea160e5f3bc681785760ee0457a3939e1",
        "report.csv":
            "a5855eb6801f6f84aeb217e990e6ff160fe0c6a9bfa1de1a5d78e0b820f2590a",
        "state.json":
            "d81a87de0f943a706a05981f6cf7f7b583da9dec8d53aad4ff0cbe0539072e72",
    }, 0),
    "simulate-icu_tail-json": ({
        "config.json":
            "1b25cb941087df6e3f693ab4a31df8374fe173f155c12a7f33ab4b5c9b93f437",
        "events.ndjson":
            "3a3b818cb9efafe5c54a1fbf87fa2ddea160e5f3bc681785760ee0457a3939e1",
        "report.json":
            "c4442301811a5fc50c1ebe132388c552b099ef33e7f741c3a73741a6e7f6db97",
        "state.json":
            "d81a87de0f943a706a05981f6cf7f7b583da9dec8d53aad4ff0cbe0539072e72",
    }, 0),
    "simulate-oncology_regret-csv": ({
        "config.json":
            "a7a9121cf9467dd47360fbfab948e969bbea7fe81982e8678b37b5318c629af5",
        "events.ndjson":
            "19a69bd466c7fd2e8286df879c2f3cabd96d5c63ff8d50d8ffbf2c6c6367a60b",
        "report.csv":
            "9918b4b5cdb4dbedce5026fc3edcc0eeb0168fe0eeeec02b97b33988eb81a42d",
        "state.json":
            "d1a0512866a24e2fef170faf6aab50f4de138fcf6c57b05e02fef59f136dd14b",
    }, 0),
    "simulate-oncology_regret-json": ({
        "config.json":
            "a7a9121cf9467dd47360fbfab948e969bbea7fe81982e8678b37b5318c629af5",
        "events.ndjson":
            "19a69bd466c7fd2e8286df879c2f3cabd96d5c63ff8d50d8ffbf2c6c6367a60b",
        "report.json":
            "37cf24a1c635d0f53075c779b42647f7a746633b01761134b4d32531ed20c5c3",
        "state.json":
            "d1a0512866a24e2fef170faf6aab50f4de138fcf6c57b05e02fef59f136dd14b",
    }, 0),
    "simulate-sepsis_drift-csv": ({
        "config.json":
            "9cfb7796c42826993dd392081f46bf974f457d215699eb23f0075ea863db2201",
        "events.ndjson":
            "17bbb0f72af69f8158249989b57577f9327315694de75aef9b6865d713042abf",
        "report.csv":
            "a51efdd24dce488b8fbcbbeb9116c9faff7d4317cd30f641770b3b52eac1833a",
        "state.json":
            "ce186e73b83aa659a3df165a570bbb451a9cc9518b204859b61f344350a6ce09",
    }, 0),
    "simulate-sepsis_drift-json": ({
        "config.json":
            "9cfb7796c42826993dd392081f46bf974f457d215699eb23f0075ea863db2201",
        "events.ndjson":
            "17bbb0f72af69f8158249989b57577f9327315694de75aef9b6865d713042abf",
        "report.json":
            "d936178e8fbb01c6f96ea7b36e3e49f326862b0185d41281d887ddfd69619428",
        "state.json":
            "ce186e73b83aa659a3df165a570bbb451a9cc9518b204859b61f344350a6ce09",
    }, 0),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_are_the_pinned_bytes(case, tmp_path, monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    assert outputs(case, tmp_path) == GOLDEN[case]


def test_the_table_pins_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


if __name__ == "__main__":
    import tempfile

    print("GOLDEN = {")
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            digests, code = outputs(case, Path(scratch))
        print(f"    {json.dumps(case)}: ({{" + "".join(
            f"\n        {json.dumps(path)}:\n            {json.dumps(digest)}," for path, digest in digests.items())
            + ("\n    " if digests else "") + f"}}, {code!r}),")
    print("}")
