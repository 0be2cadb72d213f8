"""Matrix-range membership, inclusion, separation, and polytope bodies.

Membership of a point tuple B in the matrix range of A is the existence of
a unital completely positive map sending the coordinates of A to those of
B.  That existence is a semidefinite feasibility problem on the Choi matrix
of the map, with unitality and interpolation constraints on the Hermitian
coordinates.  An infeasibility certificate converts into a separating
linear pencil, reported at the level of B and valid on the whole range
because pencil inequalities are preserved by UCP maps.

Choi convention (locked by a golden test): the Choi matrix of a map
Phi: M_n -> M_m is C = sum_{ii'} E_ii' (x) Phi(E_ii') of side n*m in
input (x) output order, and Phi(X) = Tr_in[(X^T (x) I) C].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import _jsonutil
from .decomp import commutant_dim, irreducible_decomposition
from .errors import (
    CertificateError,
    DimensionError,
    NoGapError,
    NotSeparableError,
)
from .matcore import MatrixTuple, direct_sum_all, frob, herm_split
from .sdp import RANK_TOL, BlockProgram, _basis_rows, solve_feasibility

FEAS_TOL = 1e-7
# A Choi solve ends on an Out verdict only once its certified bracket
# [lo, hi] on t* is this narrow relative to |hi|, or at most feas_tol wide:
# the first pencil that validates can be shallow (the level-2
# square-against-Pauli separator violates by 0.4015 there, against 0.4142
# at the optimum), and exposing gaps are rescaled from these separators.
# Near the boundary the relative width may never be met.
SEPARATOR_WIDTH = 1e-3

IN = "in"
OUT = "out"
MARGINAL = "marginal"

BOUNDARY_IN = "in"
BOUNDARY_MARGINAL = "marginal"


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChoiCertificate:
    """PSD Choi matrix of a UCP map, side n_in * m_out, input (x) output."""

    choi: np.ndarray
    map_dims: tuple  # (n_in, m_out)

    @property
    def n_in(self) -> int:
        return self.map_dims[0]

    @property
    def m_out(self) -> int:
        return self.map_dims[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        n, m = self.map_dims
        c4 = self.choi.reshape(n, m, n, m)
        return np.einsum("ij,irjs->rs", np.asarray(x, dtype=complex), c4)

    def compose(self, inner: "ChoiCertificate") -> "ChoiCertificate":
        """Choi of self after inner: (self o inner)(E_ab) sums
        inner(E_ab)[c, d] self(E_cd) over c, d."""
        n, k = inner.map_dims
        m = self.m_out
        c4 = np.einsum("acbd,crds->arbs", inner.choi.reshape(n, k, n, k),
                       self.choi.reshape(k, m, k, m))
        return ChoiCertificate(choi=c4.reshape(n * m, n * m), map_dims=(n, m))

    def unitality_residual(self) -> float:
        return frob(self.apply(np.eye(self.n_in)) - np.eye(self.m_out))

    def min_eig(self) -> float:
        c = (self.choi + self.choi.conj().T) / 2.0
        return float(np.linalg.eigvalsh(c)[0])

    def to_dict(self) -> dict:
        return {"map_dims": [self.n_in, self.m_out],
                "choi": _jsonutil.complex_rows(self.choi)}


def choi_of_compression(v: np.ndarray) -> ChoiCertificate:
    """Choi matrix of X -> V* X V for an isometry V (n x m)."""
    v = np.asarray(v, dtype=complex)
    if v.ndim == 1:
        v = v.reshape(-1, 1)
    n, m = v.shape
    w = v.conj().reshape(-1)  # w[(i,r)] = conj(V[i,r]), input-major
    return ChoiCertificate(choi=np.outer(w, w.conj()), map_dims=(n, m))


def assemble_output_blocks(n_in: int, m_out: int,
                           pieces: Sequence[tuple]) -> ChoiCertificate:
    """Choi of Phi(X) = sum_b W_b Phi_b(X) W_b* from per-block certificates.

    pieces: (ChoiCertificate for Phi_b, W_b) with W_b an m_out x m_b isometry
    onto the b-th output slot.
    """
    c = np.zeros((n_in * m_out, n_in * m_out), dtype=complex)
    eye = np.eye(n_in, dtype=complex)
    for cert, w in pieces:
        lift = np.kron(eye, np.asarray(w, dtype=complex))
        c += lift @ cert.choi @ lift.conj().T
    return ChoiCertificate(choi=c, map_dims=(n_in, m_out))


@dataclass(frozen=True)
class Pencil:
    """Affine matrix pencil L(X) = sum_j G_j (x) X_j + offset (x) I.

    Coefficients act on the Hermitian coordinates of a tuple (raw
    coordinates when the tuple is Hermitian, interleaved real/imaginary
    parts otherwise).  The defining inequalities are lambda_max(L) <= 1 on
    the range side and > 1 at the separated point.  A zero offset is the
    plain form sum G_j (x) X_j <= I; a nonzero offset records the interior
    point translation in original coordinates.
    """

    coeffs: np.ndarray  # (D, k, k)
    offset: np.ndarray  # (k, k)
    level: int
    hermitian_input: bool = True

    @property
    def d(self) -> int:
        return self.coeffs.shape[0]

    def coordinates_of(self, t: MatrixTuple) -> np.ndarray:
        coords = t.mats if self.hermitian_input else t.herm_form
        if coords.shape[0] != self.d:
            raise DimensionError(
                f"pencil consumes {self.d} coordinates, tuple offers "
                f"{coords.shape[0]}")
        return coords

    def evaluate(self, t: MatrixTuple) -> np.ndarray:
        coords = self.coordinates_of(t)
        k, n = self.level, t.n
        # offset (x) I + sum_j G_j (x) X_j, entry ((a, i), (b, c))
        g = np.concatenate([self.offset[None], self.coeffs])
        x = np.concatenate([np.eye(n)[None], coords])
        return np.einsum("jab,jic->aibc", g, x).reshape(k * n, k * n)

    def max_eig(self, t: MatrixTuple) -> float:
        m = self.evaluate(t)
        return float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[-1])

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "d": int(self.d),
            "hermitian_input": self.hermitian_input,
            "coeffs": [_jsonutil.complex_rows(g) for g in self.coeffs],
            "offset": _jsonutil.complex_rows(self.offset),
        }


@dataclass(frozen=True)
class MembershipVerdict:
    status: str
    margin: float
    witness: Optional[ChoiCertificate] = None
    separator: Optional[Pencil] = None
    separator_violation: Optional[float] = None
    detail: dict = field(default_factory=dict)

    @property
    def is_in(self) -> bool:
        return self.status == IN

    @property
    def is_out(self) -> bool:
        return self.status == OUT

    @property
    def is_marginal(self) -> bool:
        return self.status == MARGINAL

    def to_dict(self) -> dict:
        margin = float(self.margin)
        doc = {"status": self.status,
               "margin": margin if np.isfinite(margin) else None}
        if self.witness is not None:
            doc["witness"] = self.witness.to_dict()
        if self.separator is not None:
            doc["separator"] = self.separator.to_dict()
            doc["violation"] = float(self.separator_violation)
        return doc


# ---------------------------------------------------------------------------
# Coordinate hygiene: shared Hermitian coordinates, affine relations,
# interior translation
# ---------------------------------------------------------------------------

def _shared_coords(point: MatrixTuple, rng_t: MatrixTuple):
    """Hermitian coordinate arrays for both tuples, split consistently."""
    if point.d != rng_t.d:
        raise DimensionError(
            f"coordinate counts differ: point d={point.d}, range d={rng_t.d}")
    if point.is_hermitian and rng_t.is_hermitian:
        return point.mats, rng_t.mats, True
    return herm_split(point).mats, herm_split(rng_t).mats, False


@dataclass(frozen=True)
class CoordinateFrame:
    """Kept coordinate indices, interior translation, and dropped relations."""

    total: int
    kept: tuple
    center: np.ndarray  # length total; zero on dropped coordinates
    relations: tuple    # of (alpha over all coords, beta)
    hermitian_input: bool


def build_frame(range_coords: np.ndarray, hermitian_input: bool) -> CoordinateFrame:
    """Affine relations sum_j alpha_j H_j = beta I of the range, with
    |alpha| = 1, and the coordinates kept once one is dropped per relation.

    The Choi program's Gram matrix is n (+) G, for G the Gram matrix of the
    centered coordinates H_j - c_j I, c_j = tr H_j / n.  An eigenvector of G
    is a relation, with beta = alpha.c, when its eigenvalue is at most
    RANK_TOL max(n, lambda_max(G)), the bound at which solve_feasibility
    refuses dependent rows.  Each relation drops its coordinate of largest
    |alpha_j|, which is eliminated from the later relations."""
    dd, n, _ = range_coords.shape
    center = np.trace(range_coords, axis1=1, axis2=2).real / n
    centered = (range_coords - center[:, None, None] * np.eye(n)).reshape(dd, n * n)
    evals, evecs = np.linalg.eigh((centered.conj() @ centered.T).real)
    null = evecs[:, evals <= RANK_TOL * max(n, evals[-1])]
    relations: list[tuple] = []
    dropped: list[int] = []
    for i in range(null.shape[1]):
        alpha = null[:, i] / np.linalg.norm(null[:, i])
        # zero on the coordinates dropped before
        j = int(np.argmax(np.abs(alpha)))
        null[:, i + 1:] -= np.outer(alpha / alpha[j], null[j, i + 1:])
        null[j, i + 1:] = 0.0
        relations.append((alpha, float(alpha @ center)))
        dropped.append(j)
    center[dropped] = 0.0
    return CoordinateFrame(total=dd,
                           kept=tuple(j for j in range(dd) if j not in dropped),
                           center=center, relations=tuple(relations),
                           hermitian_input=hermitian_input)


def _relation_pencil(frame: CoordinateFrame, alpha: np.ndarray, beta: float,
                     violation: np.ndarray, level: int) -> tuple[Pencil, float]:
    """Level-`level` pencil from a violated affine relation of the range."""
    evals = np.linalg.eigvalsh((violation + violation.conj().T) / 2.0)
    lam = float(evals[-1]) if abs(evals[-1]) >= abs(evals[0]) else float(evals[0])
    gamma = 2.0 / lam  # signed so the violated side evaluates to 2
    eye = np.eye(level, dtype=complex)
    coeffs = np.stack([gamma * alpha[j] * eye for j in range(frame.total)])
    offset = -gamma * beta * eye
    pencil = Pencil(coeffs=coeffs, offset=offset, level=level,
                    hermitian_input=frame.hermitian_input)
    return pencil, 1.0


# ---------------------------------------------------------------------------
# Choi feasibility program
# ---------------------------------------------------------------------------

def _choi_program(range_coords: np.ndarray, point_coords: np.ndarray,
                  frame: CoordinateFrame) -> BlockProgram:
    """Feasibility program for a UCP map interpolating the kept coordinates,
    over its Choi matrix: row (j, p) is C_j (x) E_p with C_0 = I and
    C_j = H_j^T, over the basis E_p of hermitian_basis(m).  A range with a
    block-diagonal support needs no split: pinching a feasible Choi matrix
    to the blocks keeps it feasible and does not lower lambda_min."""
    n = range_coords.shape[1]
    m = point_coords.shape[1]
    kept = list(frame.kept)
    shifted_range = [range_coords[j] - frame.center[j] * np.eye(n) for j in kept]
    shifted_point = [point_coords[j] - frame.center[j] * np.eye(m) for j in kept]
    basis = _basis_rows(m).reshape(-1, m, m)
    targets = np.stack([np.eye(m)] + shifted_point)
    return BlockProgram(
        F=np.stack([np.eye(n)] + [h.T for h in shifted_range]).astype(complex),
        b=np.einsum("pac,jac->jp", basis.conj(), targets).real.ravel(),
        level=m,
    )


def _farkas_pencil(farkas_y: np.ndarray, frame: CoordinateFrame, m: int,
                   t_star: float) -> Pencil:
    """Convert the Farkas certificate of the Choi program into a pencil.

    The multipliers regroup into Hermitian Z_0 (unitality block) and Z_j
    (one per kept coordinate) with I (x) Z_0 + sum_j H_j^T (x) Z_j PSD on
    the range and a strictly negative value at the point.  Conjugating and
    swapping tensor factors turns this into the affine pencil
    Q (x) I + sum_j conj(Z_j) (x) X_j >= 0 around the translated origin,
    and Q > 0 because the translated origin is interior; normalizing by
    Q^{-1/2} yields the lambda_max form.
    """
    z = (farkas_y.reshape(-1, m * m) @ _basis_rows(m)).reshape(-1, m, m)
    q = z[0].conj()
    zbar = z[1:].conj()
    # regularize the joint kernel so Q is strictly positive definite
    evals, evecs = np.linalg.eigh((q + q.conj().T) / 2.0)
    qscale = max(float(evals[-1]), 1e-30)
    small = evals < 1e-12 * qscale
    if np.any(small):
        budget = abs(t_star) / (4.0 * max(1, int(small.sum())))
        delta = min(budget, 1e-6 * qscale) if t_star < 0 else 1e-12 * qscale
        delta = max(delta, 1e-30)
        proj = evecs[:, small] @ evecs[:, small].conj().T
        q = q + delta * proj
        evals, evecs = np.linalg.eigh((q + q.conj().T) / 2.0)
    inv_sqrt = evecs @ np.diag(1.0 / np.sqrt(np.maximum(evals, 1e-300))) \
        @ evecs.conj().T

    coeffs = np.zeros((frame.total, m, m), dtype=complex)
    for r, j in enumerate(frame.kept):
        g = -inv_sqrt @ zbar[r] @ inv_sqrt
        coeffs[j] = (g + g.conj().T) / 2.0
    # back to original coordinates: the translation folds into the offset
    offset = np.zeros((m, m), dtype=complex)
    for j in frame.kept:
        offset -= frame.center[j] * coeffs[j]
    return Pencil(coeffs=coeffs, offset=(offset + offset.conj().T) / 2.0,
                  level=m, hermitian_input=frame.hermitian_input)


def _pad_pencil(p: Pencil, level: int) -> Pencil:
    """Zero-pad coefficients to a larger level; max-eigenvalue bounds keep."""
    if p.level == level:
        return p
    if p.level > level:
        raise DimensionError("cannot shrink a pencil")
    coeffs = np.zeros((p.d, level, level), dtype=complex)
    coeffs[:, : p.level, : p.level] = p.coeffs
    offset = np.zeros((level, level), dtype=complex)
    offset[: p.level, : p.level] = p.offset
    return Pencil(coeffs=coeffs, offset=offset, level=level,
                  hermitian_input=p.hermitian_input)


# ---------------------------------------------------------------------------
# Certificate validation (independent of the solve path; raises on failure)
# ---------------------------------------------------------------------------

def validate_witness(cert: ChoiCertificate, range_coords: np.ndarray,
                     point_coords: np.ndarray, feas_tol: float = FEAS_TOL) -> None:
    """Raise CertificateError unless the Choi matrix is PSD within feas_tol,
    unital and interpolating within feas_tol times the data scale: a witness
    of a point that membership calls Out fails.  lambda_min may fall below
    -feas_tol only by N eps ||C||_F for side N, a bound on its rounding
    error."""
    scale = max(1.0, float(np.abs(range_coords).max()),
                float(np.abs(point_coords).max()))
    lam = cert.min_eig()
    rounding = len(cert.choi) * np.finfo(float).eps * frob(cert.choi)
    if lam < -feas_tol - rounding:
        raise CertificateError(f"Choi witness has eigenvalue {lam}")
    if cert.unitality_residual() > feas_tol * scale:
        raise CertificateError("Choi witness is not unital within tolerance")
    for h, k in zip(range_coords, point_coords):
        resid = frob(cert.apply(h) - k)
        if resid > feas_tol * scale:
            raise CertificateError(
                f"Choi witness interpolation residual {resid} exceeds tolerance")


def validate_separator(pencil: Pencil, range_tuple: MatrixTuple,
                       point: MatrixTuple, feas_tol: float = FEAS_TOL
                       ) -> tuple[float, float]:
    """Check lambda_max <= 1 + feas_tol on the range and > 1 + FEAS_TOL at
    the point, with the point above the range by more than FEAS_TOL times
    the larger of 1 and the two values: a pencil near 1 on both separates
    nothing."""
    on_range = pencil.max_eig(range_tuple)
    at_point = pencil.max_eig(point)
    if on_range > 1.0 + feas_tol:
        raise CertificateError(
            f"separator exceeds 1 on the range: lambda_max = {on_range}")
    if at_point <= 1.0 + FEAS_TOL:
        raise CertificateError(
            f"separator does not violate at the point: lambda_max = {at_point}")
    margin = FEAS_TOL * max(1.0, abs(on_range), abs(at_point))
    if at_point - on_range <= margin:
        raise CertificateError(
            f"separator does not separate: lambda_max = {at_point} at the "
            f"point against {on_range} on the range")
    return on_range, at_point


# ---------------------------------------------------------------------------
# Membership / inclusion
# ---------------------------------------------------------------------------

def detect_blocks(mats: Sequence[np.ndarray], n: int) -> list[np.ndarray]:
    """Partition indices into connected components of the union support, in
    the order of their smallest index."""
    adj = np.eye(n, dtype=bool)
    for mat in mats:
        scale = float(np.abs(mat).max(initial=0.0))
        if scale > 0:
            adj |= np.abs(mat) > 1e-14 * scale
    # square the reachability relation until it is closed
    reach = adj | adj.T
    while True:
        step = (reach.astype(np.int32) @ reach.astype(np.int32)) > 0
        if (step == reach).all():
            break
        reach = step
    comps, seen = [], np.zeros(n, dtype=bool)
    for i in range(n):
        if not seen[i]:
            comps.append(np.flatnonzero(reach[i]))
            seen |= reach[i]
    return comps


def _fast_subblock_witness(point: MatrixTuple, rng_t: MatrixTuple,
                           tol: float = 1e-12) -> Optional[ChoiCertificate]:
    """Witness when the point literally equals a block of the range."""
    n, m = rng_t.n, point.n
    if m > n:
        return None
    scale = max(1.0, float(np.abs(rng_t.mats).max()),
                float(np.abs(point.mats).max()))
    candidates: list[np.ndarray] = []
    if m == n:
        candidates.append(np.arange(n))
    comps = detect_blocks(list(rng_t.mats) + [m_.conj().T for m_ in rng_t.mats], n)
    candidates.extend(idx for idx in comps if len(idx) == m)
    for idx in candidates:
        sub = rng_t.mats[:, idx[:, None], idx[None, :]]
        if float(np.abs(sub - point.mats).max()) <= tol * scale:
            v = np.zeros((n, m), dtype=complex)
            v[idx, np.arange(m)] = 1.0
            return choi_of_compression(v)
    return None


def membership(point: MatrixTuple, rng_t: MatrixTuple, *,
               feas_tol: float = FEAS_TOL,
               boundary: str = BOUNDARY_IN) -> MembershipVerdict:
    """Is the point tuple in the matrix range of rng_t?

    In-verdicts carry a validated Choi witness, Out-verdicts a validated
    separating pencil at the level of the point; boundary cases within
    feas_tol resolve to In under boundary="in" (ranges are closed) and to
    Marginal under boundary="marginal".

    A Choi solve decides from the certified bracket [lo, hi] on t* of an
    iterate and the certificates built from it: In when lo > feas_tol and
    the Choi witness validates (`margin` lo), Out when hi < -feas_tol and
    the pencil validates (`margin` -hi), and under boundary="in" also In
    when lo >= -feas_tol and the witness validates.  The solve ends at the
    first iterate that settles In or Out, where an Out bracket must also be
    SEPARATOR_WIDTH-narrow, or at the first bracket within +-feas_tol
    (stop "band"), where no later bracket can settle.  The returned iterate,
    the last one bracketed, decides the rest.  A Marginal verdict's
    `margin` is the bracket's midpoint, and its `detail` holds the bracket
    and the solver's stop reason.
    """
    point_coords, range_coords, hermitian_input = _shared_coords(point, rng_t)

    # a literal block of the range satisfies every relation of the range,
    # also one that holds only within RANK_TOL
    if boundary == BOUNDARY_IN:
        fast = _fast_subblock_witness(point, rng_t)
        if fast is not None:
            validate_witness(fast, range_coords, point_coords,
                             feas_tol=feas_tol)
            return MembershipVerdict(status=IN, margin=0.0, witness=fast,
                                     detail={"witness_path": "subblock"})

    # range-side affine relations must be satisfied by any member
    frame = build_frame(range_coords, hermitian_input)
    scale = max(1.0, float(np.abs(range_coords).max()),
                float(np.abs(point_coords).max()))
    for alpha, beta in frame.relations:
        viol = sum(alpha[j] * point_coords[j] for j in range(frame.total)) \
            - beta * np.eye(point.n)
        vnorm = frob(viol)
        if vnorm > feas_tol * scale:
            pencil, violation = _relation_pencil(frame, alpha, beta, viol, point.n)
            validate_separator(pencil, rng_t, point, feas_tol=feas_tol)
            return MembershipVerdict(status=OUT, margin=vnorm, separator=pencil,
                                     separator_violation=violation,
                                     detail={"relation_violation": vnorm})

    if point.n > 1 and commutant_dim(point) > 1:
        return _membership_split_point(point, rng_t, point_coords, range_coords,
                                       feas_tol, boundary)

    m = point.n
    prog = _choi_program(range_coords, point_coords, frame)

    def decide(X, y, lo, hi, early: bool) -> Optional[MembershipVerdict]:
        """The verdict that (X, y', lo, hi) certifies, if any."""
        if lo > feas_tol or (not early and boundary == BOUNDARY_IN
                             and lo >= -feas_tol):
            cert = ChoiCertificate(choi=X, map_dims=(rng_t.n, m))
            try:
                validate_witness(cert, range_coords, point_coords,
                                 feas_tol=feas_tol)
            except CertificateError:
                return None
            return MembershipVerdict(status=IN, margin=lo, witness=cert)
        width = max(SEPARATOR_WIDTH * abs(hi), feas_tol) if early else np.inf
        if hi < -feas_tol and hi - lo <= width:
            pencil = _farkas_pencil(y, frame, m, hi)
            try:
                _, at_point = validate_separator(pencil, rng_t, point,
                                                 feas_tol=feas_tol)
            except CertificateError:
                return None
            return MembershipVerdict(status=OUT, margin=-hi, separator=pencil,
                                     separator_violation=at_point - 1.0)
        return None

    settled = []

    def settle(X, y, lo, hi) -> Optional[bool]:
        """None once the bracket lies within +-feas_tol: lo <= t* <= hi, so
        no later bracket leaves that band."""
        if -feas_tol <= lo and hi <= feas_tol:
            return None
        verdict = decide(X, y, lo, hi, early=True)
        if verdict is not None:
            settled.append(verdict)
        return verdict is not None

    feas = solve_feasibility(prog, settle)
    if settled:
        return settled[0]
    lo, hi = feas.bracket
    verdict = decide(feas.X, feas.farkas_y, lo, hi, early=False)
    if verdict is not None:
        return verdict
    return MembershipVerdict(status=MARGINAL, margin=(lo + hi) / 2.0,
                             detail={"bracket": [lo, hi],
                                     "stop": feas.ipm.stop})


def _membership_split_point(point, rng_t, point_coords, range_coords,
                            feas_tol, boundary) -> MembershipVerdict:
    """Reduce a reducible point to its irreducible summands.

    The point lies in the range exactly when every summand does; witnesses
    reassemble through the decomposition unitary and separators lift by
    zero padding.
    """
    dec = irreducible_decomposition(point, seed=7)
    # leaves are irreducible at DECOMP_TOL, the tolerance commutant_dim uses,
    # so membership does not split them again
    witnesses = []
    worst = np.inf
    for blk, _ in dec.blocks:
        sub = membership(blk, rng_t, feas_tol=feas_tol, boundary=boundary)
        if sub.is_out:
            lifted = _pad_pencil(sub.separator, point.n)
            _, at_point = validate_separator(lifted, rng_t, point,
                                             feas_tol=feas_tol)
            return MembershipVerdict(status=OUT, margin=sub.margin,
                                     separator=lifted,
                                     separator_violation=at_point - 1.0,
                                     detail={"out_summand_size": blk.n})
        if sub.is_marginal:
            return MembershipVerdict(status=MARGINAL, margin=sub.margin,
                                     detail=sub.detail)
        worst = min(worst, sub.margin)
        witnesses.append(sub.witness)
    cert = assemble_output_blocks(rng_t.n, point.n,
                                  [(witnesses[c], w) for c, w in dec.slots()])
    validate_witness(cert, range_coords, point_coords, feas_tol=feas_tol)
    return MembershipVerdict(status=IN, margin=worst, witness=cert,
                             detail={"witness_path": "point_split"})


def inclusion(a: MatrixTuple, b: MatrixTuple, **kwargs) -> MembershipVerdict:
    """W(a) subseteq W(b), decided as membership of a in W(b) at level a.n."""
    return membership(a, b, **kwargs)


def separating_pencil(rng_t: MatrixTuple, point: MatrixTuple, *,
                      feas_tol: float = FEAS_TOL) -> tuple[Pencil, float]:
    """Pencil at the point's level with lambda_max <= 1 on W(rng_t) and
    >= 1 + margin at the point.  Raises NotSeparableError unless the
    membership verdict is Out."""
    verdict = membership(point, rng_t, feas_tol=feas_tol,
                         boundary=BOUNDARY_MARGINAL)
    if not verdict.is_out:
        raise NotSeparableError(
            f"membership verdict is '{verdict.status}', not out", verdict.status)
    return verdict.separator, verdict.separator_violation


def exposing_pencil(summands: Sequence[MatrixTuple], index: int, *,
                    feas_tol: float = FEAS_TOL) -> tuple[Pencil, float]:
    """Pencil touching the chosen summand at 1 while every other summand
    stays below 1 - eps; returns (pencil, eps).

    Raises NoGapError when the chosen summand is not separated from the
    others at feas_tol, which is the numerical signature of a redundant
    (non-crucial) summand.
    """
    if not 0 <= index < len(summands):
        raise DimensionError("summand index out of range")
    y = summands[index]
    others = [s for i, s in enumerate(summands) if i != index]
    if not others:
        return _lone_exposing_pencil(y), 1.0
    rest = direct_sum_all(others)
    try:
        pencil, _ = separating_pencil(rest, y, feas_tol=feas_tol)
    except NotSeparableError as exc:
        raise NoGapError(
            "no exposing gap: summand is inside the hull of the others "
            f"({exc})") from exc
    return _expose(pencil, y, others, feas_tol)


def _expose(pencil, y, others, feas_tol) -> tuple[Pencil, float]:
    """Rescale a separator of y from the others to touch y at 1: (pencil, eps)."""
    lam_y = pencil.max_eig(y)
    scaled = Pencil(coeffs=pencil.coeffs / lam_y, offset=pencil.offset / lam_y,
                    level=pencil.level, hermitian_input=pencil.hermitian_input)
    eps = 1.0 - max(scaled.max_eig(x) for x in others)
    if eps <= feas_tol:
        raise NoGapError(f"exposing gap {eps} is below tolerance {feas_tol}")
    touch = scaled.max_eig(y)
    if abs(touch - 1.0) > feas_tol:
        raise CertificateError(f"exposing pencil touch value {touch} != 1")
    return scaled, eps


def _lone_exposing_pencil(y: MatrixTuple) -> Pencil:
    """Touching pencil for a single summand: coefficients proportional to the
    centered coordinates themselves."""
    coords = y.mats if y.is_hermitian else y.herm_form
    dd, m, _ = coords.shape
    centered = np.stack([h - (np.trace(h).real / m) * np.eye(m) for h in coords])
    if frob(centered) < 1e-12:
        # the summand is a multiple of the identity in every coordinate;
        # expose with the unitality direction
        coeffs = np.zeros((dd, m, m), dtype=complex)
        return Pencil(coeffs=coeffs, offset=np.eye(m, dtype=complex), level=m,
                      hermitian_input=y.is_hermitian)
    raw = Pencil(coeffs=np.stack([h.conj() for h in centered]),
                 offset=np.zeros((m, m), dtype=complex), level=m,
                 hermitian_input=y.is_hermitian)
    lam = raw.max_eig(y)
    if lam <= 0:
        raise NoGapError("could not orient a touching pencil")
    return Pencil(coeffs=raw.coeffs / lam, offset=raw.offset / lam, level=m,
                  hermitian_input=y.is_hermitian)


# ---------------------------------------------------------------------------
# Polytope bodies, Wmin and Wmax
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolytopeBody:
    """Convex polytope in R^dim, by vertices and/or halfspaces a.x <= b."""

    dim: int
    vertices: tuple = ()
    halfspaces: tuple = ()

    def __post_init__(self):
        vs = tuple(tuple(float(c) for c in v) for v in self.vertices)
        if any(len(v) != self.dim for v in vs):
            raise DimensionError("vertex dimension mismatch")
        hs = tuple((tuple(float(c) for c in a), float(b))
                   for a, b in self.halfspaces)
        if any(len(a) != self.dim for a, _ in hs):
            raise DimensionError("halfspace dimension mismatch")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "halfspaces", hs)

    def require_vertices(self):
        if not self.vertices:
            raise DimensionError("polytope has no vertex representation")

    def require_halfspaces(self):
        if not self.halfspaces:
            raise DimensionError("empty H-representation")

    def to_dict(self) -> dict:
        doc: dict = {"dim": self.dim}
        if self.vertices:
            doc["vertices"] = [list(v) for v in self.vertices]
        if self.halfspaces:
            doc["halfspaces"] = [{"a": list(a), "b": b} for a, b in self.halfspaces]
        return doc


def polytope_from_dict(doc: dict) -> PolytopeBody:
    return PolytopeBody(
        dim=int(doc["dim"]),
        vertices=tuple(tuple(v) for v in doc.get("vertices", [])),
        halfspaces=tuple((tuple(h["a"]), float(h["b"]))
                         for h in doc.get("halfspaces", [])),
    )


def vertex_tuple(k: PolytopeBody) -> MatrixTuple:
    """Diagonal tuple over the vertices of K; its matrix range is Wmin(K)."""
    k.require_vertices()
    vs = sorted(k.vertices)
    mats = [np.diag([complex(v[j]) for v in vs]) for j in range(k.dim)]
    return MatrixTuple.from_mats(mats)


def wmin_membership(x: MatrixTuple, k: PolytopeBody, **kwargs) -> MembershipVerdict:
    """Membership in Wmin(K): a positive spectral decomposition over the
    vertices, decided through the vertex-diagonal tuple."""
    if x.d != k.dim:
        raise DimensionError(f"tuple has d={x.d} but polytope dim={k.dim}")
    if not x.is_hermitian:
        raise DimensionError("wmin membership needs Hermitian coordinates")
    return membership(x, vertex_tuple(k), **kwargs)


def wmax_membership(x: MatrixTuple, k: PolytopeBody, *,
                    feas_tol: float = FEAS_TOL,
                    boundary: str = BOUNDARY_IN) -> MembershipVerdict:
    """Membership in Wmax(K): every halfspace a.x <= b of K holds as the
    operator inequality sum_j a_j X_j <= b I."""
    if x.d != k.dim:
        raise DimensionError(f"tuple has d={x.d} but polytope dim={k.dim}")
    if not x.is_hermitian:
        raise DimensionError("wmax membership needs Hermitian coordinates")
    k.require_halfspaces()
    scale = max(1.0, float(np.abs(x.mats).max()))
    slacks = []
    worst = (np.inf, None)
    for a, b in k.halfspaces:
        mat = sum(aj * x.mats[j] for j, aj in enumerate(a))
        lam = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[-1])
        slack = b - lam
        slacks.append(slack)
        if slack < worst[0]:
            worst = (slack, (a, b, lam))
    margin = min(slacks)
    if margin > feas_tol * scale or (boundary == BOUNDARY_IN
                                     and margin >= -feas_tol * scale):
        return MembershipVerdict(status=IN, margin=margin,
                                 detail={"halfspace_slacks": slacks})
    if abs(margin) <= feas_tol * scale:
        return MembershipVerdict(status=MARGINAL, margin=margin,
                                 detail={"halfspace_slacks": slacks})
    a, b, lam = worst[1]
    pencil = _halfspace_pencil(np.array(a), b, k)
    validate_separator(pencil, vertex_tuple(k) if k.vertices else _wmax_probe(k),
                       x, feas_tol=feas_tol)
    return MembershipVerdict(status=OUT, margin=-margin, separator=pencil,
                             separator_violation=pencil.max_eig(x) - 1.0,
                             detail={"violated_halfspace": {"a": list(a), "b": b}})


def _wmax_probe(k: PolytopeBody) -> MatrixTuple:
    """A scalar tuple inside K, for separator validation when no vertices
    are stored."""
    c = _chebyshev_center(k)
    return MatrixTuple.scalar_point(c)


def _halfspace_pencil(a: np.ndarray, b: float, k: PolytopeBody) -> Pencil:
    """a.x <= b as (a.x - a.c) / (b - a.c) <= 1 around an interior point c:
    the origin when b > 0, else the Chebyshev centre of K."""
    c = np.zeros(len(a)) if b > 0 else _chebyshev_center(k)
    bprime = b - float(a @ c)
    if bprime <= 0:
        raise CertificateError("halfspace does not contain the interior point")
    return Pencil(coeffs=(a / bprime).reshape(-1, 1, 1).astype(complex),
                  offset=np.array([[complex(-(a @ c) / bprime)]]), level=1,
                  hermitian_input=True)


def _chebyshev_center(k: PolytopeBody) -> np.ndarray:
    if k.vertices:
        return np.mean(np.array(k.vertices), axis=0)
    # imported here: only a polytope without vertices reaches a linear
    # program, and nothing else needs scipy, which loads a second BLAS library
    from scipy.optimize import linprog

    k.require_halfspaces()
    a_ub = []
    b_ub = []
    for a, b in k.halfspaces:
        arr = np.asarray(a)
        a_ub.append(np.concatenate([arr, [float(np.linalg.norm(arr))]]))
        b_ub.append(b)
    c = np.zeros(k.dim + 1)
    c[-1] = -1.0
    res = linprog(c=c, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                  bounds=[(None, None)] * k.dim + [(0, None)], method="highs")
    if res.status != 0:
        raise CertificateError("could not locate an interior point of K")
    return res.x[: k.dim]
