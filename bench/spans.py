"""In-memory spans around matrange's public functions, and the per-layer
metrics computed from them.

`Tracer.install()` replaces each traced function at the module attribute
its callers look it up by (for example `convexity.solve_feasibility`, which
`membership` calls), records a span per call (name, start, end, parent) and
a few counts read from the returned values, and `uninstall()` puts the
originals back.  Spans stay in memory until `layer_metrics()` reduces them.
A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.

IPM iterations are counted where `sdp._ipm` builds its per-iteration
`IpmResult` snapshot, once per pass of its loop: the returned
`IpmResult.iterations` is the index of the best iterate, not the number of
iterations run, and a solve that stalls runs to `max_iter` past it.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

from matrange import cli, convexity, decomp, extreme, sdp

# (module, attribute, span name); the span name says which layer it is
TRACED = (
    (cli, "run", "cli.run"),
    (cli, "load_tuple", "cli.load_tuple"),
    (cli, "irreducible_decomposition", "decomp.irreducible_decomposition"),
    (cli, "minimal_presentation", "extreme.minimal_presentation"),
    (cli, "recover_unitary", "extreme.recover_unitary"),
    (cli, "membership", "convexity.membership"),
    (cli, "separating_pencil", "convexity.separating_pencil"),
    (extreme, "irreducible_decomposition", "decomp.irreducible_decomposition"),
    (extreme, "is_fully_compressed", "extreme.is_fully_compressed"),
    (extreme, "minimal_presentation", "extreme.minimal_presentation"),
    (extreme, "classify_crucial", "extreme.classify_crucial"),
    (extreme, "membership", "convexity.membership"),
    (extreme, "exposing_pencil", "convexity.exposing_pencil"),
    (extreme, "validate_witness", "convexity.validate_witness"),
    (extreme, "unitary_equivalent", "decomp.unitary_equivalent"),
    (convexity, "membership", "convexity.membership"),
    (convexity, "separating_pencil", "convexity.separating_pencil"),
    (convexity, "validate_witness", "convexity.validate_witness"),
    (convexity, "validate_separator", "convexity.validate_separator"),
    (convexity, "solve_feasibility", "sdp.solve_feasibility"),
    (convexity, "irreducible_decomposition", "decomp.irreducible_decomposition"),
    (decomp, "commutant_basis", "decomp.commutant_basis"),
    (decomp, "unitary_equivalent", "decomp.unitary_equivalent"),
)

EXTREME = ("extreme.minimal_presentation", "extreme.recover_unitary",
           "extreme.is_fully_compressed", "extreme.classify_crucial")
MEMBERSHIP = ("convexity.membership", "convexity.separating_pencil",
              "convexity.exposing_pencil")
VALIDATE = ("convexity.validate_witness", "convexity.validate_separator")
SHORTCUT_KEYS = ("relation_violation", "witness_path")

PER_LAYER = (
    ("sdp.solves", "count"), ("sdp.ipm_iterations", "count"),
    ("sdp.unconverged", "count"), ("sdp.solve_s", "s"),
    ("sdp.s_per_iteration", "s"),
    ("extreme.classify_calls", "count"), ("extreme.self_s", "s"),
    ("extreme.solves_per_summand", "ratio"),
    ("convexity.membership_calls", "count"), ("convexity.choi_decided", "count"),
    ("convexity.shortcut_decided", "count"),
    ("convexity.exposing_calls", "count"),
    ("convexity.membership_self_s", "s"), ("convexity.validate_s", "s"),
    ("decomp.decompositions", "count"), ("decomp.commutant_calls", "count"),
    ("decomp.equivalence_calls", "count"), ("decomp.decompose_s", "s"),
    ("decomp.commutant_s", "s"), ("decomp.equivalence_s", "s"),
    ("cli.load_s", "s"), ("cli.encode_s", "s"), ("cli.self_s", "s"),
    ("cli.report_bytes", "bytes"),
)


def _membership_path(verdict) -> str:
    detail = verdict.detail
    if "out_summand_size" in detail or detail.get("witness_path") == "point_split":
        return "split"
    if any(k in detail for k in SHORTCUT_KEYS):
        return "shortcut"
    return "choi"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        # distinct summands that extreme decomposed, by span index
        self.summands: dict[int, int] = {}

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield idx
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _record(self, name: str, idx: int, result) -> None:
        """Counts read from a traced call's returned value."""
        if name == "sdp.solve_feasibility" and result.ipm is not None:
            self.counts["unconverged"] += not result.ipm.converged
        elif name == "convexity.membership":
            self.counts["membership." + _membership_path(result)] += 1
        elif name == "decomp.irreducible_decomposition":
            self.summands[idx] = len(result.blocks)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as idx:
                result = fn(*args, **kwargs)
            self._record(name, idx, result)
            return result
        return traced

    def _count_iterations(self, cls):
        def snapshot(*args, **kwargs):
            self.counts["ipm_iterations"] += 1
            return cls(*args, **kwargs)
        return snapshot

    def install(self) -> None:
        self._undo.append((sdp, "IpmResult", sdp.IpmResult))
        sdp.IpmResult = self._count_iterations(sdp.IpmResult)
        for module, attr, name in TRACED:
            fn = getattr(module, attr)
            self._undo.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    def _under(self, idx: int, names) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_metrics(self, rounds: int, report_bytes: int) -> dict:
        """Per-round per-layer values from the recorded spans (all but
        process.import_s, which the parent takes from every child)."""
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        calls: Counter = Counter()
        total: Counter = Counter()
        selfs: Counter = Counter()
        for i, (name, _, _, parent) in enumerate(self.spans):
            calls[name] += 1
            total[name] += dur[i]
            if parent >= 0:
                child[parent] += dur[i]
        for i, (name, _, _, _) in enumerate(self.spans):
            selfs[name] += dur[i] - child[i]

        def tot(names):
            return sum(total[n] for n in names)

        def own(names):
            return sum(selfs[n] for n in names)

        solves = calls["sdp.solve_feasibility"]
        solve_s = total["sdp.solve_feasibility"]
        iters = self.counts["ipm_iterations"]
        extreme_solves = sum(1 for i, s in enumerate(self.spans)
                             if s[0] == "sdp.solve_feasibility"
                             and self._under(i, EXTREME))
        extreme_summands = sum(k for i, k in self.summands.items()
                               if self._under(i, EXTREME))
        values = {
            "sdp.solves": solves,
            "sdp.ipm_iterations": iters,
            "sdp.unconverged": self.counts["unconverged"],
            "sdp.solve_s": solve_s,
            "extreme.classify_calls": calls["extreme.classify_crucial"],
            "extreme.self_s": own(EXTREME),
            "convexity.membership_calls": calls["convexity.membership"],
            "convexity.choi_decided": self.counts["membership.choi"],
            "convexity.shortcut_decided": self.counts["membership.shortcut"],
            "convexity.exposing_calls": calls["convexity.exposing_pencil"],
            "convexity.membership_self_s": own(MEMBERSHIP),
            "convexity.validate_s": tot(VALIDATE),
            "decomp.decompositions": calls["decomp.irreducible_decomposition"],
            "decomp.commutant_calls": calls["decomp.commutant_basis"],
            "decomp.equivalence_calls": calls["decomp.unitary_equivalent"],
            "decomp.decompose_s": total["decomp.irreducible_decomposition"],
            "decomp.commutant_s": total["decomp.commutant_basis"],
            "decomp.equivalence_s": total["decomp.unitary_equivalent"],
            "cli.load_s": total["cli.load_tuple"],
            "cli.encode_s": total["cli.encode"],
            "cli.self_s": selfs["cli.run"],
            "cli.report_bytes": report_bytes,
        }
        values = {k: v / rounds for k, v in values.items()}
        # ratios are taken over the same rounds, so they need no division
        values["sdp.s_per_iteration"] = solve_s / iters if iters else 0.0
        values["extreme.solves_per_summand"] = (
            extreme_solves / extreme_summands if extreme_summands else 0.0)
        return {name: {"value": values[name], "unit": unit}
                for name, unit in PER_LAYER}
