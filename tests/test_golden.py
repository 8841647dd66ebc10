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
            "1bd11e79ec436588a549c4784bd50f5776be84667ff3c223bf8eb9587e4774c0",
        "report.csv":
            "39b4c72cdc15064408049d72586a8aa73d76633d4e79ad43ded61ce9fd57babd",
        "state.json":
            "42ed39055f4ba622a30574bf3f4709f26c20c77a020a85f86859f0b3421291c5",
    }, 0),
    "simulate-icu_tail-json": ({
        "config.json":
            "1b25cb941087df6e3f693ab4a31df8374fe173f155c12a7f33ab4b5c9b93f437",
        "events.ndjson":
            "1bd11e79ec436588a549c4784bd50f5776be84667ff3c223bf8eb9587e4774c0",
        "report.json":
            "5796a4801eb3517d5119b3b76a23c748378d40c4d9ea2f61ca27827196dee0ce",
        "state.json":
            "42ed39055f4ba622a30574bf3f4709f26c20c77a020a85f86859f0b3421291c5",
    }, 0),
    "simulate-oncology_regret-csv": ({
        "config.json":
            "a7a9121cf9467dd47360fbfab948e969bbea7fe81982e8678b37b5318c629af5",
        "events.ndjson":
            "b5431664214f1b9a42f0d8b6b7c5117cb1e4a8794593173f80b972440553c82f",
        "report.csv":
            "d47b5eac695c3667c77a33212bcbed2481ea2435664d634ec5a2f1ed0a8a06d8",
        "state.json":
            "c0d5b8fce81acf07648a7890e77beca121162f28a7eea35da1f387374ef34694",
    }, 0),
    "simulate-oncology_regret-json": ({
        "config.json":
            "a7a9121cf9467dd47360fbfab948e969bbea7fe81982e8678b37b5318c629af5",
        "events.ndjson":
            "b5431664214f1b9a42f0d8b6b7c5117cb1e4a8794593173f80b972440553c82f",
        "report.json":
            "8f8eed98bba437a54e39f4bb89983d269f7060d56b8b1610c5aed430813c2f50",
        "state.json":
            "c0d5b8fce81acf07648a7890e77beca121162f28a7eea35da1f387374ef34694",
    }, 0),
    "simulate-sepsis_drift-csv": ({
        "config.json":
            "9cfb7796c42826993dd392081f46bf974f457d215699eb23f0075ea863db2201",
        "events.ndjson":
            "31bf8600bb1204150522483d6bb25ff52be4f319772254065565c3a40ee5fac4",
        "report.csv":
            "066f95280919bf7debd1c00bdcca6ae40c60fc3b89804f5d6d24701a71368c25",
        "state.json":
            "904041d6912e097373591d4df36699c081c890edf54dd9035fb35b8a382035a5",
    }, 0),
    "simulate-sepsis_drift-json": ({
        "config.json":
            "9cfb7796c42826993dd392081f46bf974f457d215699eb23f0075ea863db2201",
        "events.ndjson":
            "31bf8600bb1204150522483d6bb25ff52be4f319772254065565c3a40ee5fac4",
        "report.json":
            "d55c767a87b707da2b56a71990af52239ea4d5fc991b1381018fa59c54687f9d",
        "state.json":
            "904041d6912e097373591d4df36699c081c890edf54dd9035fb35b8a382035a5",
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
