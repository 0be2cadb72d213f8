"""One benchmark client process: set up, then run whole rounds of operations.

Started by run.py with the matrange sources on PYTHONPATH and the BLAS
thread count fixed in its environment.  `--mode setup` imports, loads the
workload's input files and exits; `--mode run` then issues the operations
of the manifest's rounds back to back through `matrange.cli.run`,
serialises each report with `_jsonutil.dumps`, checks it with checks.py
(outside the timed part), and goes on with whole rounds until `--seconds`
of operation time have passed.
Prints one JSON object on stdout.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
from matrange import _jsonutil, cli  # noqa: E402

IMPORT_S = time.monotonic() - T_START

import checks  # noqa: E402


def environment() -> dict:
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_version = "unknown"
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "default"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
    }


def load_inputs(work: str, manifest: dict) -> dict:
    """Every input tuple of the pool, parsed into arrays for the checks."""
    arrays = {}
    for ops in manifest["rounds"]:
        for op in ops:
            for name in op["args"].values():
                if name not in arrays:
                    with open(os.path.join(work, name)) as fh:
                        arrays[name] = checks.tuple_mats(json.load(fh))
    return arrays


# operation errors kept for the record, at most
KEEP = 20


def run_rounds(pool, work, arrays, seconds, tracer=None) -> dict:
    """Issue whole rounds, the pool's in turn, until `seconds` of operation
    time have passed."""
    config = cli.RunConfig()
    latencies, reference, errors, bad = [], [], [], []
    attempted = failed = rounds = report_bytes = 0
    busy = 0.0
    while rounds == 0 or busy < seconds:
        for op in pool[rounds % len(pool)]:
            paths = {k: os.path.join(work, v) for k, v in op["args"].items()}
            attempted += 1
            t0 = time.perf_counter()
            try:
                code, report = cli.run(op["command"], paths, config)
                if tracer is None:
                    text = _jsonutil.dumps(report)
                else:
                    with tracer.span("cli.encode"):
                        text = _jsonutil.dumps(report)
            except Exception as exc:  # the operation failed; count it, go on
                busy += time.perf_counter() - t0
                failed += 1
                if len(errors) < KEEP:
                    errors.append({"op": op["id"], "round": rounds,
                                   "error": f"{type(exc).__name__}: {exc}"})
                continue
            dt = time.perf_counter() - t0
            busy += dt
            latencies.append(dt)
            if op["reference"]:
                reference.append(dt)
            report_bytes += len(text)
            inputs = {k: arrays[v] for k, v in op["args"].items()}
            try:
                checks.check_report(op, code, json.loads(text), inputs)
            except checks.CheckError as exc:
                bad.append({"op": op["id"], "round": rounds, "error": str(exc)})
        rounds += 1
    return {"attempted": attempted, "failed": failed, "rounds": rounds,
            "busy_s": busy, "latencies": latencies,
            "reference_latencies": reference, "errors": errors,
            "check_failures": bad, "report_bytes": report_bytes}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--work", required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() in the parent at spawn")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args()

    with open(os.path.join(ns.work, "manifest.json")) as fh:
        manifest = json.load(fh)
    arrays = load_inputs(ns.work, manifest)
    out = {"setup_s": time.monotonic() - ns.spawned, "import_s": IMPORT_S}
    if ns.mode == "run":
        tracer, pool = None, manifest["rounds"]
        if ns.trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
            # every traced round is the first one, so that per-round counts
            # do not depend on how many rounds the run got through
            pool = pool[:1]
        out.update(run_rounds(pool, ns.work, arrays, ns.seconds, tracer))
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = tracer.layer_metrics(out["rounds"],
                                                 out["report_bytes"])
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["environment"] = environment()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
