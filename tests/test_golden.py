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
            "e31f1939035294307aad0d9f3f2617b1c0a013a62d4a506a64cd6dd480bbc208",
        "report.csv":
            "ad702a9079ce039562d07a5718e75889316870e9d080cf1278d2bd19400a2e9e",
        "state.json":
            "2156d1fd7795a87ed8625e8698acbc3bfa8161a58507029448b35e0a3c5e1bcd",
    }, 0),
    "simulate-icu_tail-json": ({
        "config.json":
            "1b25cb941087df6e3f693ab4a31df8374fe173f155c12a7f33ab4b5c9b93f437",
        "events.ndjson":
            "e31f1939035294307aad0d9f3f2617b1c0a013a62d4a506a64cd6dd480bbc208",
        "report.json":
            "092ecfaeee1391d480a79474a572628ade670156ff119a0b6b89be80c3947a97",
        "state.json":
            "2156d1fd7795a87ed8625e8698acbc3bfa8161a58507029448b35e0a3c5e1bcd",
    }, 0),
    "simulate-oncology_regret-csv": ({
        "config.json":
            "a7a9121cf9467dd47360fbfab948e969bbea7fe81982e8678b37b5318c629af5",
        "events.ndjson":
            "57c2145ccf401e2b0f9c8fb190ae1dca494617cae07242241f0fef78ffe4b57f",
        "report.csv":
            "b64e0d2216082d73ff316413ddf0d38b897884d877a3a0c77127b6723fded5cf",
        "state.json":
            "d4745ab8fe060861348ec4747b64eb079d669aaa9ea7b95ec94a68feae577b15",
    }, 0),
    "simulate-oncology_regret-json": ({
        "config.json":
            "a7a9121cf9467dd47360fbfab948e969bbea7fe81982e8678b37b5318c629af5",
        "events.ndjson":
            "57c2145ccf401e2b0f9c8fb190ae1dca494617cae07242241f0fef78ffe4b57f",
        "report.json":
            "55e9d94a0f063c1456bbcec4d8acb5ca573eed86071f7ec0e3a06b0e61b01c7d",
        "state.json":
            "d4745ab8fe060861348ec4747b64eb079d669aaa9ea7b95ec94a68feae577b15",
    }, 0),
    "simulate-sepsis_drift-csv": ({
        "config.json":
            "9cfb7796c42826993dd392081f46bf974f457d215699eb23f0075ea863db2201",
        "events.ndjson":
            "75efb2d87320cba6037308e9736a5903df62835e55270eb726413f68fb528609",
        "report.csv":
            "b29ecf93e2cb40964aedf01d824b9be1513b72cc3fc0a23bc2b3008afb37b33b",
        "state.json":
            "ba06e6eb802ea1bf2a733adc8f5f60d34f2322ac8f337ab606dae3578da1a1cd",
    }, 0),
    "simulate-sepsis_drift-json": ({
        "config.json":
            "9cfb7796c42826993dd392081f46bf974f457d215699eb23f0075ea863db2201",
        "events.ndjson":
            "75efb2d87320cba6037308e9736a5903df62835e55270eb726413f68fb528609",
        "report.json":
            "f23046ea2091d2e5a97dd96526c6592fc59fb0b3b519807d9a043c247d0e1fee",
        "state.json":
            "ba06e6eb802ea1bf2a733adc8f5f60d34f2322ac8f337ab606dae3578da1a1cd",
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
