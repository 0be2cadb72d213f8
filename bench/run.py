"""Benchmark entry point: one closed-loop run of one workload.

    python3 bench/run.py --workload minimize --seed 1 --seconds 30 --trace 0

Run from the root of a matrange checkout.  It writes the seeded inputs
under .bench_out/, starts the client (bench/client.py) as child processes
with one BLAS thread set in their environment, and prints as its last
stdout line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
client wraps matrange's layers in spans and the metrics are per layer,
per round of operations.  A fuller record, with the environment and every
latency, goes to .bench_out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import generate

HERE = os.path.dirname(os.path.abspath(__file__))
# set-up is sampled in this many extra children before the measured one
SETUP_SAMPLES = 6
CHILD_TIMEOUT_S = 120


def _child(root, work, env, mode, seconds=0.0, trace=0) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "client.py"), "--work", work,
           "--mode", mode, "--seconds", repr(seconds), "--trace", str(trace),
           "--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"client exited with {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def child_env(blas_threads: str) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if blas_threads == "default":
            env.pop(var, None)
        else:
            env[var] = blas_threads
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=generate.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", default="1",
                        help="BLAS threads per child, or 'default' to leave "
                             "the library's own choice (reference figures)")
    ns = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "matrange", "cli.py")):
        sys.stderr.write("run from the root of a matrange checkout: "
                         "src/matrange/cli.py not found\n")
        return 2

    out_dir = os.path.join(root, ".bench_out")
    work = os.path.join(out_dir, f"work-{ns.workload}-{ns.seed}-{os.getpid()}")
    try:
        manifest = generate.generate(ns.workload, ns.seed, work)
        env = child_env(ns.blas_threads)
        setups = [_child(root, work, env, "setup")
                  for _ in range(SETUP_SAMPLES)]
        res = _child(root, work, env, "run", ns.seconds, ns.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(res)

    correct = not res["check_failures"]
    completed = res["attempted"] - res["failed"]
    if ns.trace:
        metrics = dict(res["layers"])
        metrics["process.import_s"] = {
            "value": statistics.median(s["import_s"] for s in setups),
            "unit": "s"}
    else:
        metrics = {
            "throughput_ops_s": {"value": completed / res["busy_s"],
                                 "unit": "1/s"},
            "latency_p50_s": {
                "value": statistics.median(res["reference_latencies"]),
                "unit": "s"},
            "setup_s": {"value": statistics.median(s["setup_s"]
                                                   for s in setups),
                        "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": correct, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}

    record = dict(result, workload=ns.workload, seed=ns.seed,
                  seconds=ns.seconds, trace=ns.trace, rounds=res["rounds"],
                  busy_s=res["busy_s"],
                  ops_per_round=len(manifest["rounds"][0]),
                  environment=res["environment"],
                  setup_samples=[s["setup_s"] for s in setups],
                  latencies=res["latencies"],
                  reference_latencies=res["reference_latencies"],
                  errors=res["errors"],
                  check_failures=res["check_failures"])
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    name = f"{ns.workload}-seed{ns.seed}-trace{ns.trace}-blas{ns.blas_threads}.json"
    with open(os.path.join(out_dir, "results", name), "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"environment": res["environment"],
                      "rounds": res["rounds"],
                      "ops_per_round": len(manifest["rounds"][0]),
                      "reference_samples": len(res["reference_latencies"]),
                      "errors": res["errors"],
                      "check_failures": res["check_failures"][:5]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
