"""One benchmark child process: prepare inputs, run a workload, or check.

    python3 bench/child.py <spec.json>

The parent process (run.py) starts one child at a time and reads its
result from the file the spec names. A "run" child times its own set-up
(importing riskwatch and building an engine from the default config)
before the workload, so only the standard library may be imported above
main().
"""

import contextlib
import json
import os
import sys
import time


def _check_origin(riskwatch, root: str) -> None:
    """Refuse to measure a riskwatch that is not the checkout's own."""
    expected = os.path.realpath(os.path.join(root, "src", "riskwatch"))
    found = os.path.realpath(os.path.dirname(riskwatch.__file__))
    if found != expected:
        raise SystemExit(f"riskwatch imported from {found}, expected {expected}")


def _no_span(name):
    return contextlib.nullcontext()


def run(spec: dict) -> dict:
    t0 = time.perf_counter()
    import riskwatch
    import riskwatch.cli  # noqa: F401  (part of the measured set-up)
    from riskwatch import eventlog

    engine = eventlog.engine_from_config(eventlog.default_config())
    setup_s = time.perf_counter() - t0
    _check_origin(riskwatch, spec["root"])
    if spec["mode"] == "setup":
        return {"setup_s": setup_s}

    import workloads

    w = workloads.Workload(**spec["workload"])
    outdir = os.path.join(spec["rundir"], f"out-{spec['index']}")
    tracer, span = None, _no_span
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer)
        span = tracer.span
    result = workloads.RUNNERS[w.kind](w, spec["seed"], spec["rundir"], outdir,
                                       engine, span, tracer)
    result["setup_s"] = setup_s
    result["outdir"] = outdir
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        result["module_self_s"] = spans.module_self_times(tracer)
        tracer.save(os.path.join(spec["spandir"], f"{w.name}.npz"))
    return result


def prepare(spec: dict) -> dict:
    import riskwatch

    _check_origin(riskwatch, spec["root"])
    import workloads

    w = workloads.Workload(**spec["workload"])
    return workloads.prepare(w, spec["seed"], spec["rundir"])


def check(spec: dict) -> dict:
    import riskwatch

    _check_origin(riskwatch, spec["root"])
    import oracle
    import workloads

    w = workloads.Workload(**spec["workload"])
    return {"checks": oracle.run_checks(w, spec["seed"], spec["rundir"],
                                        spec["outdirs"]),
            "open_window": workloads.open_window_probe(w, spec["seed"],
                                                       spec["rundir"])}


MODES = {"run": run, "setup": run, "prepare": prepare, "check": check}


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fp:
        spec = json.load(fp)
    result = MODES[spec["mode"]](spec)
    with open(spec["result"], "w", encoding="utf-8") as fp:
        json.dump(result, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
