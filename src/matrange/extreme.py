"""Minimal presentations, crucial summand classification, and uniqueness.

A matrix tuple is minimal exactly when it is multiplicity-free and every
irreducible summand is crucial: outside the matrix range generated by the
other summands.  One pass classifies each distinct summand once, in
canonical order, against the summands still kept and absorbs a redundant
one at its turn; UCP maps compose, so its witness is carried onto the
minimal tuple without another solve.  Minimal presentations of the same
range are unitarily equivalent; the unitary is recovered by intertwiners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .convexity import (
    BOUNDARY_IN,
    FEAS_TOL,
    ChoiCertificate,
    MembershipVerdict,
    Pencil,
    PolytopeBody,
    _expose,
    assemble_output_blocks,
    choi_of_compression,
    exposing_pencil,  # unused here; bench/spans.py wraps it at this name
    membership,
    validate_witness,
    vertex_tuple,
)
from .decomp import (
    EQUIV_TOL,
    BlockDecomposition,
    _intertwiner,
    irreducible_decomposition,
    unitary_equivalent,  # unused here; bench/spans.py wraps it at this name
)
from .errors import (
    CertificateError,
    DimensionError,
    IndeterminateError,
    NoGapError,
    NotEquivalentError,
    NotMinimalError,
)
from .matcore import (
    MatrixTuple,
    conjugate,
    direct_sum_all,
    frob,
    tuple_to_dict,
)

CRUCIAL = "crucial"
REDUNDANT = "redundant"
REDUNDANT_DUPLICATE = "redundant_duplicate"
REDUNDANT_ABSORBED = "redundant_absorbed"


@dataclass(frozen=True)
class SummandReport:
    summand: MatrixTuple
    status: str
    exposing_gap: Optional[float] = None
    witness: Optional[ChoiCertificate] = None
    separator: Optional[Pencil] = None
    margin: float = 0.0

    def to_dict(self) -> dict:
        margin = float(self.margin)
        doc = {"size": self.summand.n, "status": self.status,
               "margin": margin if np.isfinite(margin) else None,
               "tuple": tuple_to_dict(self.summand)}
        if self.exposing_gap is not None:
            doc["exposing_gap"] = float(self.exposing_gap)
        if self.witness is not None:
            doc["witness"] = self.witness.to_dict()
        if self.separator is not None:
            doc["separator"] = self.separator.to_dict()
        return doc


@dataclass(frozen=True)
class MinimalReport:
    input: MatrixTuple
    minimal: MatrixTuple
    summands: tuple  # of SummandReport, crucial ones first in canonical order
    verified: bool
    decomposition: BlockDecomposition
    inclusion_witnesses: tuple = ()  # (input-in-minimal, minimal-in-input)

    @property
    def crucial(self) -> list[MatrixTuple]:
        return [s.summand for s in self.summands if s.status == CRUCIAL]

    @property
    def removed(self) -> list[SummandReport]:
        return [s for s in self.summands if s.status != CRUCIAL]

    def is_trivial(self) -> bool:
        """No duplicate and no absorbed summand was removed."""
        return not self.removed

    def to_dict(self) -> dict:
        return {
            "input_n": self.input.n,
            "minimal": tuple_to_dict(self.minimal),
            "summands": [s.to_dict() for s in self.summands],
            "verified": self.verified,
        }


@dataclass(frozen=True)
class EquivalenceWitness:
    unitary: np.ndarray
    block_permutation: tuple
    residual: float


def classify_crucial(index: int, summands: Sequence[MatrixTuple], *,
                     feas_tol: float = FEAS_TOL,
                     boundary: str = BOUNDARY_IN) -> tuple[str, MembershipVerdict]:
    """Crucial iff the summand lies outside the matrix range of the direct
    sum of the others.  Marginal verdicts raise IndeterminateError with the
    near-certificates attached."""
    if not 0 <= index < len(summands):
        raise DimensionError("summand index out of range")
    others = [s for i, s in enumerate(summands) if i != index]
    if not others:
        verdict = MembershipVerdict(status="out", margin=np.inf,
                                    detail={"lone_summand": True})
        return CRUCIAL, verdict
    verdict = membership(summands[index], direct_sum_all(others),
                         feas_tol=feas_tol, boundary=boundary)
    if verdict.is_marginal:
        raise IndeterminateError(
            "summand classification is marginal at feas_tol",
            near_certificates={"verdict": verdict})
    return (CRUCIAL if verdict.is_out else REDUNDANT), verdict


def minimal_presentation(t: MatrixTuple, seed: int = 0, *,
                         feas_tol: float = FEAS_TOL,
                         boundary: str = BOUNDARY_IN) -> MinimalReport:
    """Decompose, strip multiplicities and classify each distinct summand
    once, in canonical order, against the summands still kept, absorbing it
    at once when it lies in their range.  A summand outside the range of
    the summands kept at its turn is outside that of any subset, so its one
    verdict certifies it against the result.  Absorbed witnesses are
    composed onto the minimal tuple, and the mutual inclusion of input and
    minimal tuple is validated from those maps."""
    dec = irreducible_decomposition(t, seed=seed)
    blocks = [blk for blk, _ in dec.blocks]

    # Absorb in canonical order, not by margin: a certified margin is a bound
    # from whichever iterate settled the verdict, and that iterate turns on
    # rounding.  Of two near-equivalent summands, each in the other's range,
    # the first is absorbed and the second is classified without it.
    kept = list(range(len(blocks)))
    verdicts = []
    sources: dict[int, list[int]] = {}  # absorbed: the summands it lies over
    for i in range(len(blocks)):
        verdicts.append(classify_crucial(
            kept.index(i), [blocks[k] for k in kept], feas_tol=feas_tol,
            boundary=boundary)[1])
        if verdicts[i].is_in:
            kept.remove(i)
            sources[i] = list(kept)
    minimal = direct_sum_all([blocks[k] for k in kept])

    # maps[i]: a UCP map from the minimal tuple onto summand i, a slot
    # projection when kept; an absorbed witness runs from the summands
    # kept at its turn, whose maps exist once the later absorptions have
    # been composed
    maps = dict(zip(kept, map(choi_of_compression,
                              _slots([blocks[k].n for k in kept]))))
    for i in reversed(sources):
        sizes = [blocks[k].n for k in sources[i]]
        inner = assemble_output_blocks(
            minimal.n, sum(sizes),
            list(zip([maps[k] for k in sources[i]], _slots(sizes))))
        maps[i] = verdicts[i].witness.compose(inner)
        try:
            validate_witness(maps[i], minimal.mats, blocks[i].mats,
                             feas_tol=feas_tol)
        except CertificateError as exc:
            raise IndeterminateError(
                "absorbed summand's witness, composed onto the minimal "
                f"tuple, fails validation: {exc}") from exc

    summand_reports: list[SummandReport] = []
    for k in kept:
        others = [blocks[j] for j in kept if j != k]
        try:
            gap = _expose(verdicts[k].separator, blocks[k], others,
                          feas_tol)[1] if others else 1.0
        except NoGapError:
            gap = None
        summand_reports.append(SummandReport(
            summand=blocks[k], status=CRUCIAL, exposing_gap=gap,
            separator=verdicts[k].separator, margin=verdicts[k].margin))
    duplicates = [SummandReport(summand=blk, status=REDUNDANT_DUPLICATE)
                  for blk, mult in dec.blocks for _ in range(mult - 1)]
    absorbed = [SummandReport(summand=blocks[i], status=REDUNDANT_ABSORBED,
                              witness=maps[i], margin=verdicts[i].margin)
                for i in sources]

    # W(input) <= W(minimal): the input reassembles from the maps of its
    # slots.  W(minimal) <= W(input): the minimal tuple compresses the input
    # onto the first copy of each kept class.
    slots = list(dec.slots())
    first = dict(reversed(slots))  # each class's first copy
    witnesses = (assemble_output_blocks(minimal.n, t.n,
                                        [(maps[c], w) for c, w in slots]),
                 choi_of_compression(np.hstack([first[k] for k in kept])))
    try:
        validate_witness(witnesses[0], minimal.mats, t.mats, feas_tol=feas_tol)
        validate_witness(witnesses[1], t.mats, minimal.mats, feas_tol=feas_tol)
    except CertificateError:
        witnesses = ()

    return MinimalReport(
        input=t, minimal=minimal,
        summands=tuple(summand_reports + duplicates + absorbed),
        verified=bool(witnesses), decomposition=dec,
        inclusion_witnesses=witnesses)


def _slots(sizes: list[int]) -> list[np.ndarray]:
    """Isometries onto the consecutive slots of a direct sum of the sizes."""
    eye = np.eye(sum(sizes), dtype=complex)
    offsets = np.cumsum([0] + sizes)
    return [eye[:, a:b] for a, b in zip(offsets, offsets[1:])]


def is_fully_compressed(t: MatrixTuple, seed: int = 0, *,
                        feas_tol: float = FEAS_TOL) -> tuple[bool, MinimalReport]:
    """A block-diagonalizable tuple is fully compressed iff its minimal
    presentation keeps every summand: it is multiplicity-free, and when each
    distinct summand is classified once, none is absorbed."""
    report = minimal_presentation(t, seed=seed, feas_tol=feas_tol)
    return report.is_trivial(), report


def _fix_phase(w: np.ndarray) -> np.ndarray:
    flat = np.argmax(np.abs(w))
    entry = w.reshape(-1)[flat]
    if abs(entry) < 1e-300:
        return w
    return w * (abs(entry) / entry)


def recover_unitary(s: MatrixTuple, t: MatrixTuple, seed: int = 0, *,
                    feas_tol: float = FEAS_TOL,
                    equiv_tol: float = EQUIV_TOL) -> EquivalenceWitness:
    """Unitary U with U* S U = T for minimal tuples with equal matrix range.

    Matches the irreducible summands pairwise through intertwiners and
    conjugates the block permutation back through both decompositions.
    Raises NotMinimalError when an input is not fully compressed and
    NotEquivalentError (with a separating certificate) when the ranges
    differ.
    """
    if s.d != t.d:
        raise DimensionError("tuples must share the coordinate count")
    ok_s, rep_s = is_fully_compressed(s, seed=seed, feas_tol=feas_tol)
    if not ok_s:
        raise NotMinimalError("first tuple is not minimal")
    # a tuple unitarily equivalent to a fully compressed one is fully
    # compressed, so t is classified only when its summands do not match
    dec_t = irreducible_decomposition(t, seed=seed)
    blocks_s = rep_s.crucial
    blocks_t = [blk for blk, _ in dec_t.blocks]
    perm: list[int] = []
    intertwiners: list[np.ndarray] = []
    matched = len(blocks_s) == len(blocks_t) \
        and all(mult == 1 for _, mult in dec_t.blocks)
    if matched:
        for bs in blocks_s:
            # leaves of both decompositions, which the dense system already
            # found irreducible; blocks of different sizes have error inf
            for j, bt in enumerate(blocks_t):
                if j in perm:
                    continue
                w, err = _intertwiner(bs, bt)
                if err <= equiv_tol:
                    perm.append(j)
                    intertwiners.append(_fix_phase(w))
                    break
            else:
                matched = False
                break
    if not matched:
        ok_t, rep_t = is_fully_compressed(t, seed=seed, feas_tol=feas_tol)
        if not ok_t:
            raise NotMinimalError("second tuple is not minimal")
        _raise_not_equivalent(blocks_s, rep_t.crucial, s, t, feas_tol)

    u_s = rep_s.decomposition.unitary
    u_t = dec_t.unitary
    sizes_s = [b.n for b in blocks_s]
    sizes_t = [b.n for b in blocks_t]
    off_s = np.concatenate([[0], np.cumsum(sizes_s)])
    off_t = np.concatenate([[0], np.cumsum(sizes_t)])
    n = s.n
    bd = np.zeros((n, n), dtype=complex)
    p = np.zeros((n, n), dtype=complex)
    for k, (w, j) in enumerate(zip(intertwiners, perm)):
        bd[off_s[k] : off_s[k + 1], off_s[k] : off_s[k + 1]] = w
        p[off_s[k] : off_s[k + 1], off_t[j] : off_t[j + 1]] = np.eye(sizes_s[k])
    u = u_s @ bd @ p @ u_t.conj().T

    conjugated = conjugate(s, u)
    residual = max(frob(conjugated.mats[j] - t.mats[j]) for j in range(t.d))
    if residual > equiv_tol * max(1.0, s.scale()):
        raise NotEquivalentError(
            f"assembled unitary has residual {residual} above equiv_tol")
    return EquivalenceWitness(unitary=u, block_permutation=tuple(perm),
                              residual=residual)


def _raise_not_equivalent(blocks_s, blocks_t, s: MatrixTuple, t: MatrixTuple,
                          feas_tol: float):
    """Summand matching failed, so the ranges should differ: scan both
    summand lists for one separated from the other tuple's range."""
    for block, other in [(b, t) for b in blocks_s] + [(b, s) for b in blocks_t]:
        verdict = membership(block, other, feas_tol=feas_tol,
                             boundary="marginal")
        if verdict.is_out:
            raise NotEquivalentError(
                "matrix ranges differ: a crucial summand of one tuple is "
                "separated from the other tuple's range",
                separator=verdict.separator)
    raise IndeterminateError(
        "summand matching failed but no separating certificate was found")


def wmin_minimal_tuple(k: PolytopeBody) -> tuple[MatrixTuple, list]:
    """The fully compressed tuple for Wmin(K) and the extreme points of K.

    The crucial summands of the vertex tuple's minimal presentation are the
    extreme points; each is returned as the input vertex nearest to it,
    sorted, with the diagonal tuple over them.  An unverified presentation
    raises IndeterminateError, as does a Marginal classification."""
    report = minimal_presentation(vertex_tuple(k))
    if not report.verified:
        raise IndeterminateError(
            "the vertex tuple's minimal presentation is not verified")
    verts = sorted(min(k.vertices, key=lambda v: np.linalg.norm(
                       np.subtract(v, s.mats[:, 0, 0].real)))
                   for s in report.crucial)
    return vertex_tuple(PolytopeBody(dim=k.dim, vertices=tuple(verts))), verts
