"""Command-line front end.

Subcommands wrap the public operations one-to-one and print a single JSON
(or text) report to stdout.  Exit codes: 0 affirmative, 1 negative,
2 marginal or indeterminate, 3 error (any exception).  Flags --tol/--seed/
--format/--boundary may also come from the environment (MATRANGE_TOL,
MATRANGE_SEED, MATRANGE_FORMAT, MATRANGE_BOUNDARY); explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import dataclass

from . import _jsonutil
from .convexity import (
    FEAS_TOL,
    MARGINAL,
    membership,
    polytope_from_dict,
    separating_pencil,
    wmax_membership,
    wmin_membership,
)
from .decomp import irreducible_decomposition
from .errors import (
    IndeterminateError,
    MatrangeError,
    NotEquivalentError,
    NotSeparableError,
    ParseError,
)
from .extreme import is_fully_compressed, minimal_presentation, recover_unitary
from .matcore import MatrixTuple, tuple_from_dict

EXIT_YES = 0
EXIT_NO = 1
EXIT_MARGINAL = 2
EXIT_ERROR = 3

ENV_PREFIX = "MATRANGE_"


@dataclass(frozen=True)
class RunConfig:
    feas_tol: float = FEAS_TOL
    seed: int = 0
    output_format: str = "json"
    boundary_policy: str = "in"

    def __post_init__(self):
        if self.feas_tol <= 0:
            raise ParseError("tolerance must be positive")
        if self.output_format not in ("json", "text"):
            raise ParseError("format must be json or text")
        if self.boundary_policy not in ("in", "marginal"):
            raise ParseError("boundary policy must be in or marginal")


def _load_json(path: str):
    try:
        with open(path, "r") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc


def load_tuple(path: str) -> MatrixTuple:
    """Load and validate a tuple file; Hermitian structure is recomputed,
    never trusted from the file."""
    return tuple_from_dict(_load_json(path))


def load_polytope(path: str):
    doc = _load_json(path)
    try:
        return polytope_from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: not a polytope document: {exc}") from exc


def _verdict_exit(status: str) -> int:
    return {"in": EXIT_YES, "out": EXIT_NO, "marginal": EXIT_MARGINAL}[status]


def run(command: str, args: dict, config: RunConfig) -> tuple[int, dict]:
    """Dispatch one subcommand; returns (exit_code, report)."""
    if command == "decompose":
        dec = irreducible_decomposition(load_tuple(args["tuple"]),
                                        seed=config.seed)
        report = {"command": command, "status": "ok"}
        report.update(dec.to_dict())
        return EXIT_YES, report

    if command == "minimize":
        try:
            rep = minimal_presentation(load_tuple(args["tuple"]),
                                       seed=config.seed,
                                       feas_tol=config.feas_tol,
                                       boundary=config.boundary_policy)
        except IndeterminateError as exc:
            return EXIT_MARGINAL, {"command": command, "status": "indeterminate",
                                   "message": str(exc)}
        report = {"command": command, "status": "ok"}
        report.update(rep.to_dict())
        return EXIT_YES, report

    if command == "member":
        verdict = membership(load_tuple(args["point"]),
                             load_tuple(args["range"]),
                             feas_tol=config.feas_tol,
                             boundary=config.boundary_policy)
        report = {"command": command}
        report.update(verdict.to_dict())
        return _verdict_exit(verdict.status), report

    if command == "include":
        verdict = membership(load_tuple(args["inner"]),
                             load_tuple(args["outer"]),
                             feas_tol=config.feas_tol,
                             boundary=config.boundary_policy)
        report = {"command": command}
        report.update(verdict.to_dict())
        return _verdict_exit(verdict.status), report

    if command == "separate":
        try:
            pencil, margin = separating_pencil(load_tuple(args["range"]),
                                               load_tuple(args["point"]),
                                               feas_tol=config.feas_tol)
        except NotSeparableError as exc:
            code = EXIT_MARGINAL if exc.status == MARGINAL else EXIT_NO
            return code, {"command": command, "status": "not_separable",
                          "message": str(exc)}
        return EXIT_YES, {"command": command, "status": "ok",
                          "margin": float(margin), "separator": pencil.to_dict()}

    if command == "equiv":
        try:
            witness = recover_unitary(load_tuple(args["left"]),
                                      load_tuple(args["right"]),
                                      seed=config.seed,
                                      feas_tol=config.feas_tol)
        except NotEquivalentError as exc:
            report = {"command": command, "status": "not_equivalent",
                      "message": str(exc)}
            if exc.separator is not None:
                report["separator"] = exc.separator.to_dict()
            return EXIT_NO, report
        except IndeterminateError as exc:
            return EXIT_MARGINAL, {"command": command, "status": "indeterminate",
                                   "message": str(exc)}
        return EXIT_YES, {"command": command, "status": "equivalent",
                          "residual": float(witness.residual),
                          "block_permutation": list(witness.block_permutation),
                          "unitary": _jsonutil.complex_rows(witness.unitary)}

    if command == "wmin":
        verdict = wmin_membership(load_tuple(args["point"]),
                                  load_polytope(args["polytope"]),
                                  feas_tol=config.feas_tol,
                                  boundary=config.boundary_policy)
        report = {"command": command}
        report.update(verdict.to_dict())
        return _verdict_exit(verdict.status), report

    if command == "wmax":
        verdict = wmax_membership(load_tuple(args["point"]),
                                  load_polytope(args["polytope"]),
                                  feas_tol=config.feas_tol,
                                  boundary=config.boundary_policy)
        report = {"command": command}
        report.update(verdict.to_dict())
        return _verdict_exit(verdict.status), report

    if command == "fully-compressed":
        try:
            ok, rep = is_fully_compressed(load_tuple(args["tuple"]),
                                          seed=config.seed,
                                          feas_tol=config.feas_tol)
        except IndeterminateError as exc:
            return EXIT_MARGINAL, {"command": command, "status": "indeterminate",
                                   "message": str(exc)}
        report = {"command": command,
                  "status": "fully_compressed" if ok else "not_fully_compressed"}
        report.update(rep.to_dict())
        return (EXIT_YES if ok else EXIT_NO), report

    raise ParseError(f"unknown command {command!r}")


def render_text(report: dict) -> str:
    """Lossy human rendering: one line per top-level fact, certificates
    summarized by size."""
    lines = []
    for key, val in report.items():
        if key in ("witness", "separator", "unitary", "blocks", "minimal",
                   "summands"):
            if key == "summands":
                for s in val:
                    gap = s.get("exposing_gap")
                    gap_txt = f" gap={gap:.3g}" if gap is not None else ""
                    lines.append(
                        f"  summand n={s['size']} {s['status']}"
                        f" margin={s['margin']:.3g}{gap_txt}")
            elif key == "blocks":
                for blk in val:
                    lines.append(
                        f"  block n={blk['tuple']['n']} x{blk['multiplicity']}")
            else:
                lines.append(f"{key}: <{type(val).__name__}>")
        else:
            lines.append(f"{key}: {val}")
    return "\n".join(lines) + "\n"


def _env_default(name: str, fallback):
    """The environment's string for a flag, or the fallback; argparse
    converts a string default with the flag's type and reports a malformed
    one as a usage error."""
    return os.environ.get(ENV_PREFIX + name, fallback)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matrange",
        description="matrix ranges, membership SDPs, minimal presentations")
    parser.add_argument("--tol", type=float,
                        default=_env_default("TOL", FEAS_TOL),
                        help=f"feasibility tolerance (default {FEAS_TOL:g})")
    parser.add_argument("--seed", type=int,
                        default=_env_default("SEED", 0),
                        help="seed for randomized decompositions")
    parser.add_argument("--format", choices=("json", "text"),
                        default=_env_default("FORMAT", "json"),
                        help="report format")
    parser.add_argument("--boundary", choices=("in", "marginal"),
                        default=_env_default("BOUNDARY", "in"),
                        help="how to resolve boundary-of-range verdicts")
    sub = parser.add_subparsers(dest="command")

    for name in ("decompose", "minimize", "fully-compressed"):
        p = sub.add_parser(name)
        p.add_argument("--tuple", required=True)
    p = sub.add_parser("member")
    p.add_argument("--point", required=True)
    p.add_argument("--range", required=True)
    p = sub.add_parser("include")
    p.add_argument("--inner", required=True)
    p.add_argument("--outer", required=True)
    p = sub.add_parser("separate")
    p.add_argument("--range", required=True)
    p.add_argument("--point", required=True)
    p = sub.add_parser("equiv")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    for name in ("wmin", "wmax"):
        p = sub.add_parser(name)
        p.add_argument("--point", required=True)
        p.add_argument("--polytope", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else 0
    if ns.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_ERROR
    try:
        config = RunConfig(feas_tol=ns.tol, seed=ns.seed,
                           output_format=ns.format,
                           boundary_policy=ns.boundary)
        args = {k: v for k, v in vars(ns).items()
                if k not in ("command", "tol", "seed", "format", "boundary")}
        code, report = run(ns.command, args, config)
    except MatrangeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except Exception as exc:
        # a fault, which must not read as "negative": traceback, then type
        traceback.print_exc()
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_ERROR
    if config.output_format == "json":
        sys.stdout.write(_jsonutil.dumps(report) + "\n")
    else:
        sys.stdout.write(render_text(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
