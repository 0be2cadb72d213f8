"""Run every operation of benchmark pools on two checkouts and compare them.

    python3 tools/compare_pools.py --base ../parent --workload member \
        --seeds 401 402 503

For each (workload, seed), bench/generate.py of this checkout writes the
pool's input files once; then each checkout runs every operation of every
round through `matrange.cli.run` in a child process of its own, with its
own `src/` on PYTHONPATH and one BLAS thread, as bench/run.py sets.
Reports are serialised with that checkout's `_jsonutil.dumps`, and each is
checked with bench/checks.py against the pool's constructed expectation.

Printed: every operation whose exit code or status differs, or that raised
on one side only; then one JSON summary line per pool with the counts of
operations, exit-code and status mismatches, byte-identical reports,
reports that differ in floating-point values only, and per side the Choi
solves and IPM iterations run over the pool, the operations that raised
and the reports that failed their check.  The exit status is 1 when any
exit code or status differs, else 0.  The script only reads bench/; it
changes nothing there.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
# one BLAS thread, as bench/run.py sets for its clients, so that each
# report is computed as the benchmark computes it
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# mismatches printed per pool, at most
SHOW = 20


def same_but_floats(x, y) -> bool:
    """Whether two parsed reports differ in floating-point values only.

    format_float writes integral floats as integers ("0", "1"), so a
    number that is a float on either side may differ; two integers must
    be equal, as must keys, list lengths, strings, booleans and nulls."""
    if isinstance(x, float) or isinstance(y, float):
        return isinstance(x, (int, float)) and isinstance(y, (int, float)) \
            and not isinstance(x, bool) and not isinstance(y, bool)
    if type(x) is not type(y):
        return False
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(same_but_floats(x[k], y[k]) for k in x)
    if isinstance(x, list):
        return len(x) == len(y) and all(map(same_but_floats, x, y))
    return x == y


def run_pool(work: str) -> list[dict]:
    """Child side: every operation of the manifest in work, in order, with
    the Choi solves and IPM iterations it ran, counted by wrapping
    `sdp._ipm`, which each solve runs once."""
    from matrange import _jsonutil, cli, sdp

    solves = iterations = 0
    ipm = sdp._ipm

    def counted(*args):
        nonlocal solves, iterations
        res = ipm(*args)
        solves += 1
        iterations += res.iterations + 1
        return res

    sdp._ipm = counted
    with open(os.path.join(work, "manifest.json")) as fh:
        manifest = json.load(fh)
    out = []
    for round_no, ops in enumerate(manifest["rounds"]):
        for op in ops:
            paths = {k: os.path.join(work, v) for k, v in op["args"].items()}
            solves = iterations = 0
            rec = {"id": op["id"], "round": round_no}
            try:
                code, report = cli.run(op["command"], paths, cli.RunConfig())
                rec.update(code=code, status=report.get("status"),
                           text=_jsonutil.dumps(report))
            except Exception as exc:  # recorded and compared, not fatal
                rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["choi_solves"] = solves
            rec["ipm_iterations"] = iterations
            out.append(rec)
    return out


def side(checkout: str, work: str) -> list[dict]:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(os.path.abspath(checkout), "src")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", work],
        env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: child exited with {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout)


def check_failures(records: list[dict], manifest: dict, work: str) -> int:
    import checks

    ops = {op["id"]: op for ops in manifest["rounds"] for op in ops}
    arrays: dict = {}
    bad = 0
    for rec in records:
        if "error" in rec:
            continue
        op = ops[rec["id"]]
        for name in op["args"].values():
            if name not in arrays:
                with open(os.path.join(work, name)) as fh:
                    arrays[name] = checks.tuple_mats(json.load(fh))
        inputs = {k: arrays[v] for k, v in op["args"].items()}
        try:
            checks.check_report(op, rec["code"], json.loads(rec["text"]), inputs)
        except checks.CheckError:
            bad += 1
    return bad


def compare(workload: str, seed: int, base: str, change: str,
            scratch: str) -> bool:
    import generate

    work = os.path.join(scratch, f"{workload}-{seed}")
    manifest = generate.generate(workload, seed, work)
    runs = {"base": side(base, work), "change": side(change, work)}
    summary = {"workload": workload, "seed": seed,
               "operations": len(runs["base"]), "exit_code_mismatches": 0,
               "status_mismatches": 0, "raised_on_one_side": 0,
               "byte_identical": 0, "same_but_floats": 0}
    shown = 0
    for b, c in zip(runs["base"], runs["change"]):
        what = []
        if ("error" in b) != ("error" in c):
            summary["raised_on_one_side"] += 1
            what.append(f"raised: base {b.get('error')!r}, "
                        f"change {c.get('error')!r}")
        elif "error" not in b:
            if b["code"] != c["code"]:
                summary["exit_code_mismatches"] += 1
                what.append(f"exit code {b['code']} -> {c['code']}")
            if b["status"] != c["status"]:
                summary["status_mismatches"] += 1
                what.append(f"status {b['status']!r} -> {c['status']!r}")
            summary["byte_identical"] += b["text"] == c["text"]
            summary["same_but_floats"] += same_but_floats(
                json.loads(b["text"]), json.loads(c["text"]))
        if what and shown < SHOW:
            shown += 1
            print(f"{workload} seed {seed} op {b['id']} (round {b['round']}): "
                  + "; ".join(what))
    for name, records in runs.items():
        for count in ("choi_solves", "ipm_iterations"):
            summary[f"{name}_{count}"] = sum(r[count] for r in records)
        summary[f"{name}_raised"] = sum("error" in r for r in records)
        summary[f"{name}_check_failures"] = check_failures(records, manifest, work)
    print(json.dumps(summary))
    return not (summary["exit_code_mismatches"] or summary["status_mismatches"]
                or summary["raised_on_one_side"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="checkout to compare against")
    parser.add_argument("--change", default=ROOT,
                        help="checkout under test (default: this one)")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--seeds", type=int, nargs="+", default=[401, 402, 503])
    parser.add_argument("--child", metavar="WORK", help=argparse.SUPPRESS)
    ns = parser.parse_args(argv)
    if ns.child:
        json.dump(run_pool(ns.child), sys.stdout)
        return 0
    if not ns.base:
        parser.error("--base is required")
    sys.path.insert(0, BENCH)
    import generate

    same = True
    with tempfile.TemporaryDirectory(prefix="compare_pools-") as scratch:
        for workload in ns.workload or generate.WORKLOADS:
            for seed in ns.seeds:
                same &= compare(workload, seed, ns.base, ns.change, scratch)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
