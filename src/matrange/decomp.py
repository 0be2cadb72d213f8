"""Commutant computation and irreducible block decomposition of tuples.

The commutant of a tuple is the *-algebra of matrices commuting with every
coordinate and its adjoint; its dimension is 1 exactly when the tuple is
irreducible.  Being *-closed, it is spanned by its Hermitian elements, and
those are solved for alone, in real arithmetic, through the R factor of
the system.  Decomposition splits a tuple on the eigenspaces of a seeded
random Hermitian commutant element and recurses, then groups the blocks
into unitary equivalence classes with multiplicities (Murota, Kanno,
Kojima and Kojima, "A numerical algorithm for block-diagonal decomposition
of matrix *-algebras", 2010).  Each split solves the commutant on the
eigenspaces of a random real combination of the Hermitian coordinates
(Maehara and Murota, "Algorithm for error-controlled simultaneous
block-diagonalization of matrices", 2011), and the dense system confirms
each leaf.  The result is checked to reassemble the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    DimensionError,
    NonIrreducibleInputError,
)
from . import _jsonutil
from .matcore import MatrixTuple, conjugate, direct_sum_all, frob, tuple_to_dict

DECOMP_TOL = 1e-8
EQUIV_TOL = 1e-6
# borderline zone for the decomp open question: pairs whose intertwiner
# residual lands between the strict and loose thresholds are kept separate
# but flagged marginal instead of silently merged
MARGINAL_FACTOR = 10.0


def _commutant_system(a: MatrixTuple, b: MatrixTuple) -> np.ndarray:
    """Coefficient matrix of {X : X B_j = A_j X, X B_j* = A_j* X}.

    X maps the space of B into the space of A, so X is a.n-by-b.n.  The
    unknowns are the entries of X in column-major vec order.  Rows are
    the column-major vec of each residual X B - A X, for the coordinates
    A_1, A_1*, A_2, A_2*, ...
    """
    q, p = np.divmod(np.arange(a.n * b.n), a.n)
    am, bm = (np.stack([m.mats, m.mats.conj().transpose(0, 2, 1)], axis=1)
              .reshape(-1, m.n, m.n) for m in (a, b))
    cols = np.arange(len(p))
    # axes (coordinate, residual column s, residual row r, unknown)
    k = np.zeros((len(am), b.n, a.n, len(p)), dtype=complex)
    # (E_pq B)[r, s] = [r = p] B[q, s] and (A E_pq)[r, s] = A[r, p] [s = q]
    k[:, :, p, cols] = bm[:, q, :].transpose(0, 2, 1)
    k[:, q, :, cols] -= am[:, :, p].transpose(2, 0, 1)
    return k.reshape(-1, len(p))


@lru_cache(maxsize=None)
def _full_support(n: int) -> tuple:
    """Entry indices (P, Q) of the unknowns of an n x n Hermitian matrix:
    the diagonal, then each (p, q) with p < q, then each (q, p) in that
    order.  A selection closed under transposition stays paired."""
    d, (p, q) = np.arange(n), np.triu_indices(n, 1)
    P, Q = np.concatenate([d, p, q]), np.concatenate([d, q, p])
    P.flags.writeable = Q.flags.writeable = False
    return P, Q


def _hermitian_system(mats: np.ndarray, support: tuple) -> np.ndarray:
    """Real coefficient matrix of X -> (sqrt2 [X, A_j])_j for the (d, n, n)
    coordinates mats, on the Hermitian X supported on entries (P, Q) kept
    from _full_support, in the Frobenius-orthonormal basis E_pp,
    (E_pq + E_qp)/sqrt2, i(E_pq - E_qp)/sqrt2.  Rows are the real and
    imaginary parts of the residuals.  As [X, A_j*] = -[X, A_j]* for
    Hermitian X, this has the singular values of _commutant_system(t, t),
    with half its real rows and unknowns."""
    P, Q = support
    d, n = mats.shape[:2]
    m, no = len(P), (len(P) - n) // 2
    u = np.arange(m)
    # residual E_PQ A - A E_PQ of each entry unknown: row P of E_PQ A is
    # row Q of A, and column Q of A E_PQ is column P of A
    c = np.zeros((m, d, n, n), dtype=complex)
    c[u, :, P, :] = mats[:, Q, :].transpose(1, 0, 2)
    c[u, :, :, Q] -= mats[:, :, P].transpose(2, 0, 1)
    a, b = c[n: n + no], c[n + no:]
    z = np.concatenate([2 ** 0.5 * c[:n], a + b, 1j * (a - b)])
    return z.view(float).reshape(m, -1).T


def _hermitian_commutant(mats: np.ndarray, support: tuple,
                         rtol: float) -> np.ndarray:
    """Frobenius-orthonormal Hermitian matrices, as a (count, n, n) array,
    spanning the null space of _hermitian_system.  The commutant is
    *-closed, so count is the complex dimension of its part on support."""
    k = _hermitian_system(mats, support)
    # the SVD of R = qr(k) gives k's singular values and right factor without
    # building k's (rows x cols) left factor.  On one BLAS thread the QR call
    # costs more than it saves up to a measured crossover of 2,000-2,500
    # entries (64 x 16: SVD 72 us, QR and SVD 77 us; 256 x 64: 1.12 and
    # 0.80 ms), and QR on every system made commutant_basis at n = 1-3,
    # d = 2 slower than the complex SVD it replaces
    _, s, vh = np.linalg.svd(np.linalg.qr(k, mode="r") if k.size > 2048 else k,
                             full_matrices=False)
    # floored at 1 like every tolerance here: a scalar tuple's system is zero
    # up to rounding, and its noise must not set the scale
    coef = vh[s <= rtol * max(1.0, float(s[0]))]
    (P, Q), n = support, mats.shape[1]
    no = (len(P) - n) // 2
    z = (coef[:, n: n + no] + 1j * coef[:, n + no:]) * 2 ** -0.5
    x = np.zeros((len(coef), n, n), dtype=complex)
    x[:, P, Q] = np.concatenate([coef[:, :n], z, z.conj()], axis=1)
    return x


def commutant_basis(a: MatrixTuple, rtol: float = DECOMP_TOL) -> list[np.ndarray]:
    """Frobenius-orthonormal basis of the commutant's Hermitian part, whose
    length is the commutant's complex dimension; its span holds I."""
    return list(_hermitian_commutant(a.mats, _full_support(a.n), rtol))


def commutant_dim(a: MatrixTuple, rtol: float = DECOMP_TOL) -> int:
    return len(commutant_basis(a, rtol))


def is_irreducible(a: MatrixTuple, rtol: float = DECOMP_TOL) -> bool:
    return commutant_dim(a, rtol) == 1


def canonical_key(t: MatrixTuple) -> tuple:
    """Ordering key (size, trace moments to 8 decimals) that is invariant
    under conjugation."""
    h = t.herm_form
    m1 = [round(float(np.trace(h[j]).real), 8) for j in range(h.shape[0])]
    m2 = []
    for j in range(h.shape[0]):
        for k in range(j, h.shape[0]):
            m2.append(round(float(np.trace(h[j] @ h[k]).real), 8))
    return (t.n, tuple(m1), tuple(m2))


def unitary_equivalent(a: MatrixTuple, b: MatrixTuple,
                       equiv_tol: float = EQUIV_TOL,
                       decomp_tol: float = DECOMP_TOL) -> Optional[np.ndarray]:
    """U with U* A_j U = B_j for all j, or None.

    Both tuples must be irreducible at decomp_tol; the intertwiner space
    {X : A_j X = X B_j} is then 0- or 1-dimensional and a nonzero solution
    rescales to a unitary.
    """
    if a.d != b.d:
        raise DimensionError("unitary_equivalent needs tuples with equal d")
    if not is_irreducible(a, decomp_tol):
        raise NonIrreducibleInputError("first tuple has commutant dimension > 1")
    if not is_irreducible(b, decomp_tol):
        raise NonIrreducibleInputError("second tuple has commutant dimension > 1")
    uu, err = _intertwiner(a, b)
    return uu if err <= equiv_tol else None


def _intertwiner(a: MatrixTuple, b: MatrixTuple) -> tuple[Optional[np.ndarray], float]:
    """The candidate unitary for irreducible a and b, and its error.

    The error is the larger of the intertwiner system's smallest singular
    value and the candidate's residual max_j ||U* A_j U - B_j||, over
    max(1, scale(a) scale(b)); it is inf when no candidate exists.
    """
    if a.n != b.n:
        return None, np.inf
    k = _commutant_system(a, b)
    _, s, vh = np.linalg.svd(k, full_matrices=False)
    x = vh[-1].conj().reshape(a.n, a.n).T
    # Schur: X*X lies in the commutant of B, hence is a positive scalar
    c = float(np.trace(x.conj().T @ x).real) / a.n
    if c <= 0:
        return None, np.inf
    uu = x / np.sqrt(c)
    resid = max(frob(uu.conj().T @ a.mats[j] @ uu - b.mats[j]) for j in range(a.d))
    return uu, max(float(s[-1]), resid) / max(1.0, a.scale() * b.scale())


def dedup(blocks: Sequence[MatrixTuple],
          equiv_tol: float = EQUIV_TOL) -> list[MatrixTuple]:
    """Maximal sublist of pairwise inequivalent tuples, first kept, in
    canonical order."""
    ordered = sorted(blocks, key=canonical_key)
    kept: list[MatrixTuple] = []
    for t in ordered:
        if all(unitary_equivalent(t, r, equiv_tol) is None
               for r in kept if r.n == t.n):
            kept.append(t)
    return kept


@dataclass(frozen=True)
class BlockDecomposition:
    """base conjugated by unitary equals the direct sum of blocks, each
    repeated multiplicity times, in listed order."""

    base: MatrixTuple
    unitary: np.ndarray
    blocks: tuple  # of (MatrixTuple, multiplicity)
    marginal_pairs: tuple = field(default_factory=tuple)

    def assembled(self) -> MatrixTuple:
        parts = []
        for b, mult in self.blocks:
            parts.extend([b] * mult)
        return direct_sum_all(parts)

    def reassembly_residual(self) -> float:
        rotated = conjugate(self.base, self.unitary)
        return frob(rotated.mats - self.assembled().mats)

    def total_size(self) -> int:
        return sum(b.n * m for b, m in self.blocks)

    def slots(self):
        """(class index, columns of unitary) for every copy, in listed
        order: the columns W with W* base W the class's block."""
        offset = 0
        for c, (blk, mult) in enumerate(self.blocks):
            for _ in range(mult):
                yield c, self.unitary[:, offset: offset + blk.n]
                offset += blk.n

    def to_dict(self) -> dict:
        return {
            "unitary": _jsonutil.complex_rows(self.unitary),
            "blocks": [{"tuple": tuple_to_dict(b), "multiplicity": m}
                       for b, m in self.blocks],
        }


def _cluster_labels(vals: np.ndarray, gap: float) -> np.ndarray:
    """Cluster index of each ascending eigenvalue; a new cluster starts
    wherever neighbours lie more than gap apart."""
    return np.concatenate([[0], np.cumsum(np.diff(vals) > gap)])


def _eigenspace_commutant(t: MatrixTuple, rng: np.random.Generator,
                          decomp_tol: float) -> np.ndarray:
    """Hermitian basis of the commutant solved on the eigenspaces of a
    random real combination H of the Hermitian coordinates.

    Every commutant element commutes with H, so it is block diagonal on
    H's eigenspaces, and only those blocks are unknowns: sum k_i^2 columns
    in place of n^2.  The rows are those of the dense system in H's
    eigenbasis, a unitary change, so by interlacing this never finds more
    elements than commutant_basis, and each commutes within its bound.
    """
    g = np.tensordot(rng.standard_normal(2 * t.d), t.herm_form, axes=1)
    vals, v = np.linalg.eigh(g)
    label = _cluster_labels(vals, decomp_tol * max(1.0, frob(g)))
    P, Q = _full_support(t.n)
    keep = label[P] == label[Q]
    x = _hermitian_commutant(v.conj().T @ t.mats @ v, (P[keep], Q[keep]), decomp_tol)
    return v @ x @ v.conj().T


def _split_once(t: MatrixTuple, rng: np.random.Generator,
                decomp_tol: float) -> Optional[list[np.ndarray]]:
    """Isometries onto the eigenspaces of one random Hermitian commutant
    element, or None if the tuple is irreducible.

    The commutant is first solved on the eigenspaces of a random
    coordinate combination; when that finds no element beyond the
    identity, the dense system confirms it, so a tuple is a leaf exactly
    when commutant_basis calls it irreducible.
    """
    basis = _eigenspace_commutant(t, rng, decomp_tol)
    if len(basis) <= 1:
        basis = commutant_basis(t, decomp_tol)
        if len(basis) <= 1:
            return None
    for _ in range(8):
        e = np.tensordot(rng.standard_normal(len(basis)), basis, axes=1)
        e = (e + e.conj().T) / 2.0
        nrm = frob(e)
        if nrm < 1e-12:
            continue
        vals, vecs = np.linalg.eigh(e)
        label = _cluster_labels(vals, decomp_tol * max(1.0, nrm))
        if label[-1] > 0:
            return [vecs[:, label == i] for i in range(label[-1] + 1)]
    raise DegenerateSpectrumError(
        "commutant is nontrivial but no eigenvalue split resolved at decomp_tol")


def irreducible_decomposition(t: MatrixTuple, seed: int = 0,
                              decomp_tol: float = DECOMP_TOL,
                              equiv_tol: float = EQUIV_TOL) -> BlockDecomposition:
    """Decompose into irreducible blocks with multiplicities.

    Deterministic for a fixed seed.  Postcondition: the returned
    decomposition reassembles the input, reassembly_residual() <=
    decomp_tol * max(1, ||t||) with ||t|| the Frobenius norm of all
    coordinates.  When a decomposition misses that bound it is drawn once
    more from the same seeded generator; if the retry misses it too,
    DegenerateSpectrumError is raised.  The same error signals numerically
    coincident eigenvalues unresolved at decomp_tol (no eigenvalue split
    found, or the eigenspace recursion exceeding n levels).  Postcondition:
    the classes are listed in non-decreasing canonical_key order, each
    represented by the first of its leaves in that order.
    """
    rng = np.random.default_rng(seed)
    bound = _reassembly_bound(t, decomp_tol)
    for _ in range(2):
        dec = _decompose_once(t, rng, decomp_tol, equiv_tol)
        resid = dec.reassembly_residual()
        if resid <= bound:
            return dec
    raise DegenerateSpectrumError(
        f"blocks do not reassemble the input: residual {resid:.3g} exceeds "
        f"{bound:.3g} after a retry")


def _reassembly_bound(t: MatrixTuple, decomp_tol: float) -> float:
    return decomp_tol * max(1.0, frob(t.mats))


def _decompose_once(t: MatrixTuple, rng: np.random.Generator,
                    decomp_tol: float, equiv_tol: float) -> BlockDecomposition:
    """One unchecked pass of splitting and grouping, drawing from rng.

    A block joins a class only when its unitary carries it onto the class
    representative within the reassembly bound; blocks equivalent within
    equiv_tol but farther apart than that are kept apart and listed in
    marginal_pairs, as are those equivalent within MARGINAL_FACTOR *
    equiv_tol.
    """
    bound = _reassembly_bound(t, decomp_tol)
    # worklist of (isometry from subspace into the base space, subtuple)
    work: list[tuple[np.ndarray, MatrixTuple, int]] = [(np.eye(t.n, dtype=complex), t, 0)]
    finals: list[tuple[np.ndarray, MatrixTuple]] = []
    while work:
        v, sub, depth = work.pop()
        if depth > t.n:
            raise DegenerateSpectrumError(
                "eigenspace recursion exceeded n levels at decomp_tol")
        parts = _split_once(sub, rng, decomp_tol)
        if parts is None:
            finals.append((v, sub))
            continue
        for w in parts:
            work.append((v @ w, MatrixTuple(np.stack(
                [w.conj().T @ m @ w for m in sub.mats])), depth + 1))

    # group by unitary equivalence; sorting the leaves first lists the
    # classes in canonical order, which irreducible_decomposition promises
    finals.sort(key=lambda pair: canonical_key(pair[1]))
    classes: list[dict] = []
    marginal: list[tuple[int, int]] = []
    for v, blk in finals:
        placed = False
        near: list[int] = []
        for ci, cls in enumerate(classes):
            rep = cls["rep"]
            # both are leaves, which the dense system already found
            # irreducible, so unitary_equivalent's own checks are skipped
            u, err = _intertwiner(blk, rep)
            if err <= equiv_tol and frob(u.conj().T @ blk.mats @ u - rep.mats) <= bound:
                cls["members"].append((v, u))
                placed = True
                break
            if err <= equiv_tol * MARGINAL_FACTOR:
                near.append(ci)
        if not placed:
            marginal.extend((ci, len(classes)) for ci in near)
            classes.append({"rep": blk, "members": [(v, np.eye(blk.n, dtype=complex))]})

    cols = []
    blocks = []
    for cls in classes:
        rep = cls["rep"]
        blocks.append((rep, len(cls["members"])))
        for v, u in cls["members"]:
            cols.append(v @ u)
    unitary = np.hstack(cols)
    return BlockDecomposition(base=t, unitary=unitary, blocks=tuple(blocks),
                              marginal_pairs=tuple(marginal))
