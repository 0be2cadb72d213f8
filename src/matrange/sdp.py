"""Dense semidefinite feasibility/optimization engine with certificates.

Problems are posed over one or more complex Hermitian PSD blocks with real
affine constraints <F_k, X> = b_k, where <M, N> = Re tr(M* N).  The solver
is a Mehrotra-style predictor-corrector primal-dual interior-point method.

Feasibility questions are answered through the shifted program

    maximize t  subject to  A(Y) + t * A(I) = b,  Y >= 0,

whose optimum t* is the largest attainable smallest eigenvalue on the affine
slice.  t* > 0 certifies strict feasibility with the interior primal point
Y* + t* I; t* < 0 yields, through the dual multipliers, a Farkas pair
(y, S = sum_k y_k F_k) with S >= 0, tr S = 1 and b . y = t* < 0, which is
impossible for a feasible program.  |t*| is reported as the margin.  Every
outcome re-validates through direct eigenvalue computation; a certificate
that fails validation is a hard error.

The iteration returns its best iterate, the one of lowest score
max(rel_p, rel_d, rel_gap).  Near the boundary the Schur system turns
ill-conditioned and the residuals grow again after that iterate, so the
loop also ends, as SDPT3 does on lack of progress, once STALL_WINDOW
iterates in a row have not lowered the best score; such a stalled run
returns its best iterate unconverged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
import scipy.linalg as sla
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import CertificateError, DimensionError, IllConditionedError
from .matcore import frob, is_hermitian

FEAS_TOL = 1e-7
RANK_TOL = 1e-10
# _ipm ends once this many iterates in a row have not lowered the best score
STALL_WINDOW = 10

STATUS_FEASIBLE = "feasible"
STATUS_INFEASIBLE = "infeasible"
STATUS_MARGINAL = "marginal"


@dataclass(frozen=True)
class SolveOptions:
    feas_tol: float = FEAS_TOL
    ipm_tol: float = 1e-10
    max_iter: int = 120
    rank_tol: float = RANK_TOL
    check_rank: bool = True


def hermitian_basis(n: int) -> list[np.ndarray]:
    """Orthonormal (Frobenius) basis of the n x n Hermitian matrices."""
    out = []
    for r in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[r, r] = 1.0
        out.append(e)
    for r in range(n):
        for c in range(r + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[r, c] = e[c, r] = 1.0 / np.sqrt(2.0)
            out.append(e)
            f = np.zeros((n, n), dtype=complex)
            f[r, c] = -1.0j / np.sqrt(2.0)
            f[c, r] = 1.0j / np.sqrt(2.0)
            out.append(f)
    return out


# ---------------------------------------------------------------------------
# Block-structured program container
# ---------------------------------------------------------------------------

@dataclass
class BlockProgram:
    """min <C, X> s.t. <F_k, X> = b_k, X PSD per block.

    F[b] has shape (M, s_b, s_b); C is None for pure feasibility.
    """

    sizes: tuple
    F: list
    b: np.ndarray
    C: Optional[list] = None

    @property
    def num_rows(self) -> int:
        return len(self.b)

    @property
    def total_dim(self) -> int:
        return int(sum(self.sizes))

    def apply_A(self, X: list) -> np.ndarray:
        out = np.zeros(self.num_rows)
        for Fb, Xb in zip(self.F, X):
            out += np.einsum("kij,ij->k", Fb.conj(), Xb).real
        return out

    def apply_At(self, y: np.ndarray) -> list:
        return [np.einsum("k,kij->ij", y, Fb) for Fb in self.F]

    def gram(self) -> np.ndarray:
        m = self.num_rows
        g = np.zeros((m, m))
        for Fb in self.F:
            flat = Fb.reshape(m, -1)
            g += flat.real @ flat.real.T + flat.imag @ flat.imag.T
        return g

    def identity(self) -> list:
        return [np.eye(s, dtype=complex) for s in self.sizes]

    def data_scale(self) -> float:
        s = max((float(np.abs(Fb).max(initial=0.0)) for Fb in self.F), default=0.0)
        return max(1.0, s, float(np.abs(self.b).max(initial=0.0)))


def _inner(X: list, Z: list) -> float:
    return float(sum(np.einsum("ij,ji->", Xb, Zb).real for Xb, Zb in zip(X, Z)))


def _hermitize(X: list) -> list:
    return [(Xb + Xb.conj().T) / 2.0 for Xb in X]


def _min_eig(X: list) -> float:
    return min(float(np.linalg.eigvalsh(Xb)[0]) for Xb in X)


def _chol_with_jitter(Xb: np.ndarray):
    try:
        return np.linalg.cholesky(Xb)
    except np.linalg.LinAlgError:
        pass
    jitter = 1e-15 * max(1.0, float(np.abs(Xb).max()))
    for _ in range(12):
        try:
            return np.linalg.cholesky(Xb + jitter * np.eye(Xb.shape[0]))
        except np.linalg.LinAlgError:
            jitter *= 16.0
    raise np.linalg.LinAlgError("matrix is not positive definite")


def _factors(X: list) -> list:
    """Cholesky factor of each block of side > 1, None for 1x1 blocks."""
    return [None if Xb.shape[0] == 1 else _chol_with_jitter(Xb) for Xb in X]


def _step_length(X: list, L: list, dX: list) -> float:
    """sup {a : X + a dX >= 0}, via eigenvalues of L^-1 dX L^-*, where L
    holds the factors of X from _factors."""
    alpha = np.inf
    for Xb, Lb, Db in zip(X, L, dX):
        if Lb is None:
            d = Db[0, 0].real
            if d < -1e-300:
                alpha = min(alpha, -Xb[0, 0].real / d)
            continue
        t1 = sla.solve_triangular(Lb, Db, lower=True, check_finite=False)
        S = sla.solve_triangular(Lb, t1.conj().T, lower=True,
                                 check_finite=False).conj().T
        lam = float(np.linalg.eigvalsh((S + S.conj().T) / 2.0)[0])
        if lam < -1e-14:
            alpha = min(alpha, -1.0 / lam)
    return alpha


@dataclass
class IpmResult:
    """One iterate of _ipm, which returns its best: the one of lowest score
    max(rel_p, rel_d, rel_gap).

    `iterations` is the index of the iterate.  On the returned one,
    `iterations_run` is the number of iterates the loop evaluated and `stop`
    says why the loop ended: "converged", "stalled" (STALL_WINDOW iterates
    in a row without a lower score), "max_iter", "short_step" (even a
    centering step was too short) or "factorization" (a Cholesky factor of
    X, Z or the Schur complement could not be formed).
    """

    X: list
    y: np.ndarray
    Z: list
    pobj: float
    dobj: float
    rel_p: float
    rel_d: float
    rel_gap: float
    iterations: int
    converged: bool
    iterations_run: int = 0
    stop: str = ""


def _ipm(prog: BlockProgram, opts: SolveOptions,
         X0: Optional[list] = None) -> IpmResult:
    """Predictor-corrector interior-point iteration on the given program."""
    sizes = prog.sizes
    m = prog.num_rows
    ntot = prog.total_dim
    C = prog.C if prog.C is not None else [np.zeros((s, s), dtype=complex) for s in sizes]
    scale = prog.data_scale()
    normC = max(1.0, np.sqrt(sum(frob(Cb) ** 2 for Cb in C)))
    normb = max(1.0, float(np.linalg.norm(prog.b)))

    if X0 is None:
        xi = max(1.0, np.sqrt(ntot), float(np.abs(prog.b).max(initial=0.0)))
        X = [xi * np.eye(s, dtype=complex) for s in sizes]
    else:
        X = [Xb.astype(complex).copy() for Xb in X0]
    zeta = max(1.0, normC / np.sqrt(ntot), scale)
    Z = [zeta * np.eye(s, dtype=complex) for s in sizes]
    y = np.zeros(m)

    best: Optional[IpmResult] = None
    stop = "max_iter"
    eye = [np.eye(s, dtype=complex) for s in sizes]
    # constant flattened copies of the constraint rows, reused every iteration
    flatR = [np.ascontiguousarray(Fb.real).reshape(m, -1) for Fb in prog.F]
    flatI = [np.ascontiguousarray(Fb.imag).reshape(m, -1) for Fb in prog.F]

    def fast_A(mats: list) -> np.ndarray:
        out = np.zeros(m)
        for fr, fi, W in zip(flatR, flatI, mats):
            out += fr @ W.real.ravel() + fi @ W.imag.ravel()
        return out

    for it in range(opts.max_iter):
        rp = prog.b - fast_A(X)
        AtY = prog.apply_At(y)
        Rd = [Cb - Ab - Zb for Cb, Ab, Zb in zip(C, AtY, Z)]
        gap = _inner(X, Z)
        mu = gap / ntot
        pobj = _inner(C, X)
        dobj = float(prog.b @ y)
        rel_p = float(np.linalg.norm(rp)) / normb
        rel_d = np.sqrt(sum(frob(R) ** 2 for R in Rd)) / normC
        rel_gap = abs(gap) / (1.0 + abs(pobj) + abs(dobj))
        cur = IpmResult(_hermitize(X), y.copy(), _hermitize(Z), pobj, dobj,
                        rel_p, rel_d, rel_gap, it, False)
        score = max(rel_p, rel_d, rel_gap)
        if best is None or score < max(best.rel_p, best.rel_d, best.rel_gap):
            best = cur
        if rel_p <= opts.ipm_tol and rel_d <= opts.ipm_tol and rel_gap <= opts.ipm_tol:
            best = replace(cur, converged=True)
            stop = "converged"
            break
        if it - best.iterations >= STALL_WINDOW:
            stop = "stalled"
            break

        # X and Z stay fixed through the iteration: factor each block once
        try:
            LX = _factors(X)
            LZ = _factors(Z)
        except np.linalg.LinAlgError:
            stop = "factorization"
            break
        Zinv = [1.0 / Zb if Lb is None else
                sla.cho_solve((Lb, True), np.eye(Zb.shape[0], dtype=complex),
                              check_finite=False)
                for Zb, Lb in zip(Z, LZ)]

        # Schur complement M[k,l] = Re tr(F_k X F_l Zinv); symmetric for
        # Hermitian data, positive definite for independent rows
        M = np.zeros((m, m))
        for Fb, Xb, Zib, fr, fi in zip(prog.F, X, Zinv, flatR, flatI):
            Gb = np.matmul(np.matmul(Xb[None, :, :], Fb), Zib)
            # contiguous real/imag extracts keep the GEMM on the fast path
            gtr = Gb.real.transpose(0, 2, 1).reshape(m, -1)
            gti = Gb.imag.transpose(0, 2, 1).reshape(m, -1)
            M += fr @ gtr.T - fi @ gti.T
        M = (M + M.T) / 2.0
        ridge = 1e-13 * max(1.0, float(np.trace(M)) / max(m, 1))
        for attempt in range(8):
            try:
                Mf = sla.cho_factor(M + ridge * np.eye(m))
                break
            except np.linalg.LinAlgError:
                ridge *= 100.0
        else:
            stop = "factorization"
            break

        def direction(Rc):
            rhs = rp.copy()
            for fr, fi, Rcb, Rdb, Xb, Zib in zip(flatR, flatI, Rc, Rd, X, Zinv):
                W = (Rcb - Xb @ Rdb) @ Zib
                rhs -= fr @ W.real.ravel() + fi @ W.imag.ravel()
            dy = sla.cho_solve(Mf, rhs) if m else np.zeros(0)
            AtDy = prog.apply_At(dy)
            dZ = [Rdb - Ab for Rdb, Ab in zip(Rd, AtDy)]
            dX = [(Rcb - Xb @ dZb) @ Zib
                  for Rcb, Xb, dZb, Zib in zip(Rc, X, dZ, Zinv)]
            return _hermitize(dX), dy, _hermitize(dZ)

        # predictor
        Rc_aff = [-Xb @ Zb for Xb, Zb in zip(X, Z)]
        dXa, dya, dZa = direction(Rc_aff)
        ap = min(1.0, _step_length(X, LX, dXa))
        ad = min(1.0, _step_length(Z, LZ, dZa))
        mu_aff = _inner([Xb + ap * D for Xb, D in zip(X, dXa)],
                        [Zb + ad * D for Zb, D in zip(Z, dZa)]) / ntot
        sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3, 1e-8)) if mu > 0 else 0.1

        # corrector
        Rc = [sigma * mu * I - Xb @ Zb - Da @ Db
              for I, Xb, Zb, Da, Db in zip(eye, X, Z, dXa, dZa)]
        dX, dy, dZ = direction(Rc)
        tau = 0.95 if rel_gap > 1e-5 else 0.99
        ap = min(1.0, tau * _step_length(X, LX, dX))
        ad = min(1.0, tau * _step_length(Z, LZ, dZ))
        if min(ap, ad) < 1e-8:
            # fall back to a pure centering step before giving up
            Rc = [mu * I - Xb @ Zb for I, Xb, Zb in zip(eye, X, Z)]
            dX, dy, dZ = direction(Rc)
            ap = min(1.0, 0.9 * _step_length(X, LX, dX))
            ad = min(1.0, 0.9 * _step_length(Z, LZ, dZ))
            if min(ap, ad) < 1e-10:
                stop = "short_step"
                break
        X = _hermitize([Xb + ap * D for Xb, D in zip(X, dX)])
        Z = _hermitize([Zb + ad * D for Zb, D in zip(Z, dZ)])
        y = y + ad * dy

    assert best is not None
    return replace(best, iterations_run=it + 1, stop=stop)


# ---------------------------------------------------------------------------
# Feasibility via the shifted max-lambda-min program
# ---------------------------------------------------------------------------

@dataclass
class FeasibilityResult:
    t_star: float
    X: Optional[list]          # Y* + t* I on the original blocks
    farkas_y: Optional[np.ndarray]
    affine_consistent: bool
    ipm: Optional[IpmResult]
    rank_deficient: bool = False

    @property
    def error_bound(self) -> float:
        """Rough absolute error of t_star from the solver residuals."""
        if self.ipm is None:
            return 0.0
        r = self.ipm
        return max(r.rel_p, r.rel_d, r.rel_gap) * (1.0 + abs(r.pobj) + abs(r.dobj))

    def resolves(self, feas_tol: float) -> bool:
        """Whether t_star locates the verdict unambiguously: either the run
        converged or its error bound is small against max(|t*|, feas_tol).
        A run that stalled without resolving maps to Marginal."""
        if self.ipm is None or self.ipm.converged:
            return True
        return self.error_bound <= 0.25 * max(abs(self.t_star), feas_tol)


def _affine_start(prog: BlockProgram, opts: SolveOptions):
    """Minimum-norm Hermitian solution of A(X) = b, or None if inconsistent.

    Also reports the Gram matrix and a Farkas vector for inconsistency.
    """
    g = prog.gram()
    evals, evecs = np.linalg.eigh(g)
    lam_max = max(float(evals[-1]), 1e-300)
    keep = evals > opts.rank_tol * lam_max
    rank_deficient = bool(np.any(~keep))
    ginv_b = evecs[:, keep] @ ((evecs[:, keep].T @ prog.b) / evals[keep])
    X0 = prog.apply_At(ginv_b)
    X0 = _hermitize(X0)
    resid = prog.b - prog.apply_A(X0)
    resid_norm = float(np.linalg.norm(resid))
    bscale = max(1.0, float(np.linalg.norm(prog.b)))
    consistent = resid_norm <= 1e-9 * bscale * max(1.0, np.sqrt(lam_max))
    return X0, resid, consistent, rank_deficient


def refine_affine(prog: BlockProgram, X: list) -> list:
    """Least-squares projection of X back onto {A(X) = b}.

    The interior-point iterate can stall with a small residual when the
    Schur system turns ill-conditioned near the boundary; the projection
    removes it at a cost to lambda_min no larger than the correction norm.
    """
    resid = prog.b - prog.apply_A(X)
    if float(np.linalg.norm(resid)) <= 1e-15 * max(1.0, float(np.linalg.norm(prog.b))):
        return X
    g = prog.gram()
    evals, evecs = np.linalg.eigh(g)
    keep = evals > 1e-12 * max(float(evals[-1]), 1e-300)
    w = evecs[:, keep] @ ((evecs[:, keep].T @ resid) / evals[keep])
    corr = prog.apply_At(w)
    return _hermitize([Xb + Cb for Xb, Cb in zip(X, corr)])


def solve_feasibility(prog: BlockProgram,
                      opts: SolveOptions = SolveOptions()) -> FeasibilityResult:
    """Decide {X >= 0 : A(X) = b} with certificates, via max lambda_min."""
    m = prog.num_rows
    if m == 0:
        return FeasibilityResult(np.inf, prog.identity(), None, True, None)

    X0, resid, consistent, rank_deficient = _affine_start(prog, opts)
    if not consistent:
        # Farkas certificate for affine inconsistency: the residual direction
        # is orthogonal to range(A), so A*(y) = 0 while b . y < 0
        y = -resid / max(float(np.linalg.norm(resid)), 1e-300)
        if float(prog.b @ y) > 0:
            y = -y
        return FeasibilityResult(-np.inf, None, y, False, None, rank_deficient)
    if rank_deficient and opts.check_rank:
        raise IllConditionedError(
            "constraint Gram matrix is rank deficient beyond rank_tol; "
            "remove dependent constraints")

    t0 = _min_eig(X0) - 1.0
    tmax = max(100.0, 8.0 * (abs(t0) + 2.0), 4.0 * abs(np.trace(X0[0]).real)
               if X0 else 100.0)

    sizes = tuple(list(prog.sizes) + [1, 1, 1])
    a = np.array([sum(np.trace(Fb[k]).real for Fb in prog.F)
                  for k in range(m)])
    F = [np.concatenate([Fb, np.zeros((1,) + Fb.shape[1:], dtype=complex)])
         for Fb in prog.F]
    # t+ / t- / cap-slack coefficient blocks, one extra cap row
    Fp = np.concatenate([a, [1.0]]).reshape(-1, 1, 1).astype(complex)
    Fm = np.concatenate([-a, [1.0]]).reshape(-1, 1, 1).astype(complex)
    Fs = np.concatenate([np.zeros(m), [1.0]]).reshape(-1, 1, 1).astype(complex)
    b = np.concatenate([prog.b, [tmax]])
    C = [np.zeros((s, s), dtype=complex) for s in prog.sizes]
    C += [np.array([[-1.0 + 0j]]), np.array([[1.0 + 0j]]), np.array([[0j]])]
    shifted = BlockProgram(sizes=sizes, F=F + [Fp, Fm, Fs], b=b, C=C)

    tp0 = max(t0, 0.0) + 1.0
    tm0 = tp0 - t0
    start = [Xb - t0 * np.eye(Xb.shape[0]) for Xb in X0]
    start += [np.array([[tp0 + 0j]]), np.array([[tm0 + 0j]]),
              np.array([[tmax - tp0 - tm0 + 0j]])]

    res = _ipm(shifted, opts, X0=start)
    t_star = float(res.X[-3][0, 0].real - res.X[-2][0, 0].real)
    X = [Xb + t_star * np.eye(Xb.shape[0]) for Xb in res.X[: len(prog.sizes)]]
    X = refine_affine(prog, _hermitize(X))
    farkas = -res.y[:m]
    return FeasibilityResult(t_star, X, farkas, True, res, rank_deficient)


def minimize(prog: BlockProgram, opts: SolveOptions = SolveOptions(),
             start: Optional[list] = None) -> IpmResult:
    """min <C, X> over the feasible set; caller ensures feasibility first."""
    if prog.C is None:
        raise DimensionError("minimize needs an objective")
    X0 = None
    if start is not None:
        floor = 1e-8 * max(1.0, max(float(np.abs(Xb).max()) for Xb in start))
        X0 = []
        for Xb in start:
            lam = float(np.linalg.eigvalsh(Xb)[0])
            shift = max(0.0, floor - lam)
            X0.append(Xb + shift * np.eye(Xb.shape[0]))
    return _ipm(prog, opts, X0=X0)


# ---------------------------------------------------------------------------
# Public problem type with block detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SdpProblem:
    """PSD variable of side psd_side; constraints <F_k, X> = b_k; optional
    Hermitian objective C meaning maximize <C, X>."""

    psd_side: int
    constraints: tuple
    objective: Optional[np.ndarray] = None

    def __post_init__(self):
        cons = []
        for k, (f, bk) in enumerate(self.constraints):
            f = np.asarray(f, dtype=complex)
            if f.shape != (self.psd_side, self.psd_side):
                raise DimensionError(f"constraint {k} has shape {f.shape}")
            if not is_hermitian(f):
                raise DimensionError(f"constraint {k} is not Hermitian")
            cons.append((f, float(bk)))
        object.__setattr__(self, "constraints", tuple(cons))
        if self.objective is not None:
            c = np.asarray(self.objective, dtype=complex)
            if c.shape != (self.psd_side, self.psd_side) or not is_hermitian(c):
                raise DimensionError("objective must be Hermitian of side psd_side")
            object.__setattr__(self, "objective", c)


@dataclass(frozen=True)
class FarkasCertificate:
    y: np.ndarray
    slack: np.ndarray  # sum_k y_k F_k, PSD up to tolerance


@dataclass(frozen=True)
class SdpOutcome:
    status: str
    primal: Optional[np.ndarray] = None
    dual_certificate: Optional[FarkasCertificate] = None
    objective_value: Optional[float] = None
    dual_bound: Optional[float] = None
    margin: float = 0.0
    iterations: int = 0

    @property
    def feasible(self) -> bool:
        return self.status == STATUS_FEASIBLE

    @property
    def infeasible(self) -> bool:
        return self.status == STATUS_INFEASIBLE

    @property
    def marginal(self) -> bool:
        return self.status == STATUS_MARGINAL


def detect_blocks(mats: Sequence[np.ndarray], n: int,
                  tol: float = 1e-14) -> list[np.ndarray]:
    """Partition indices into connected components of the union support."""
    adj = np.zeros((n, n), dtype=bool)
    for mat in mats:
        if mat is None:
            continue
        scale = float(np.abs(mat).max(initial=0.0))
        if scale > 0:
            adj |= np.abs(mat) > tol * scale
    ncomp, labels = connected_components(csr_matrix(adj), directed=False)
    return [np.flatnonzero(labels == c) for c in range(ncomp)]


def _to_block_program(problem: SdpProblem) -> tuple[BlockProgram, list[np.ndarray]]:
    n = problem.psd_side
    mats = [f for f, _ in problem.constraints]
    if problem.objective is not None:
        mats = mats + [problem.objective]
    comps = detect_blocks(mats, n)
    m = len(problem.constraints)
    F = []
    C = [] if problem.objective is not None else None
    for idx in comps:
        Fb = np.stack([f[np.ix_(idx, idx)] for f, _ in problem.constraints]) \
            if m else np.zeros((0, len(idx), len(idx)), dtype=complex)
        F.append(Fb)
        if C is not None:
            C.append(problem.objective[np.ix_(idx, idx)])
    b = np.array([bk for _, bk in problem.constraints])
    prog = BlockProgram(sizes=tuple(len(i) for i in comps), F=F, b=b, C=C)
    return prog, comps


def _embed_blocks(blocks: list, comps: list[np.ndarray], n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=complex)
    for Xb, idx in zip(blocks, comps):
        out[np.ix_(idx, idx)] = Xb
    return out


def solve(problem: SdpProblem, opts: SolveOptions = SolveOptions()) -> SdpOutcome:
    """Decide feasibility (and optimize when an objective is present).

    The returned certificates always pass verify_outcome; verification runs
    before returning and raises CertificateError on any mismatch.
    """
    prog, comps = _to_block_program(problem)
    feas = solve_feasibility(prog, opts)
    n = problem.psd_side

    if not feas.resolves(opts.feas_tol):
        return SdpOutcome(status=STATUS_MARGINAL, margin=feas.t_star,
                          iterations=feas.ipm.iterations if feas.ipm else 0)

    if feas.t_star <= -opts.feas_tol or not feas.affine_consistent:
        y = feas.farkas_y
        slack = _embed_blocks(prog.apply_At(y), comps, n) if y is not None else None
        margin = abs(feas.t_star) if np.isfinite(feas.t_star) else \
            abs(float(prog.b @ y))
        outcome = SdpOutcome(status=STATUS_INFEASIBLE,
                             dual_certificate=FarkasCertificate(y=y, slack=slack),
                             margin=margin,
                             iterations=feas.ipm.iterations if feas.ipm else 0)
        verify_outcome(problem, outcome, opts)
        return outcome

    primal_blocks = feas.X
    margin = feas.t_star if np.isfinite(feas.t_star) else 1.0
    iters = feas.ipm.iterations if feas.ipm else 0
    objective_value = None
    dual_bound = None

    if problem.objective is not None:
        # phase two: maximize <C, X> as min <-C, X> from the interior start
        objprog = BlockProgram(sizes=prog.sizes, F=prog.F, b=prog.b,
                               C=[-Cb for Cb in
                                  (problem.objective[np.ix_(i, i)] for i in comps)])
        res = minimize(objprog, opts, start=primal_blocks)
        primal_blocks = refine_affine(objprog, res.X)
        objective_value = float(sum(
            np.einsum("ij,ji->", -Cb, Xb).real
            for Cb, Xb in zip(objprog.C, primal_blocks)))
        dual_bound = -res.dobj
        margin = _min_eig(primal_blocks)
        iters += res.iterations

    primal = _embed_blocks(primal_blocks, comps, n)
    status = STATUS_FEASIBLE
    if problem.objective is None and abs(feas.t_star) <= opts.feas_tol:
        # boundary slice: still feasible within tolerance, but flag the
        # certificate margin honestly
        residual = np.abs(prog.apply_A(primal_blocks) - prog.b).max(initial=0.0)
        lam = _min_eig(primal_blocks)
        if lam < -opts.feas_tol or residual > opts.feas_tol * prog.data_scale():
            status = STATUS_MARGINAL
    outcome = SdpOutcome(status=status, primal=primal,
                         objective_value=objective_value, dual_bound=dual_bound,
                         margin=margin, iterations=iters)
    if status != STATUS_MARGINAL:
        verify_outcome(problem, outcome, opts)
    return outcome


def verify_outcome(problem: SdpProblem, outcome: SdpOutcome,
                   opts: SolveOptions = SolveOptions()) -> None:
    """Independent certificate check by direct eigenvalue computation."""
    scale = max(1.0, max((frob(f) for f, _ in problem.constraints), default=1.0),
                float(np.abs([bk for _, bk in problem.constraints]).max(initial=0.0)))
    if outcome.feasible:
        x = outcome.primal
        if x is None:
            raise CertificateError("feasible outcome carries no primal")
        lam = float(np.linalg.eigvalsh((x + x.conj().T) / 2.0)[0])
        if lam < -10 * opts.feas_tol * scale:
            raise CertificateError(f"primal has negative eigenvalue {lam}")
        for k, (f, bk) in enumerate(problem.constraints):
            v = float(np.einsum("ij,ij->", f.conj(), x).real)
            if abs(v - bk) > 10 * opts.feas_tol * scale * max(1.0, frob(x)):
                raise CertificateError(
                    f"primal violates constraint {k}: {v} vs {bk}")
    elif outcome.infeasible:
        cert = outcome.dual_certificate
        if cert is None or cert.y is None:
            raise CertificateError("infeasible outcome carries no Farkas pair")
        slack = sum(yk * f for yk, (f, _) in zip(cert.y, problem.constraints))
        sscale = max(1.0, frob(slack))
        lam = float(np.linalg.eigvalsh((slack + slack.conj().T) / 2.0)[0])
        val = float(sum(yk * bk for yk, (_, bk) in zip(cert.y, problem.constraints)))
        if lam < -10 * opts.feas_tol * sscale:
            raise CertificateError(f"Farkas slack has eigenvalue {lam}")
        if val >= -0.1 * outcome.margin:
            raise CertificateError(f"Farkas value {val} is not negative enough")


def max_mineig(m0: np.ndarray, m1: np.ndarray, lo: float, hi: float,
               tol: float = 1e-9) -> tuple[float, float]:
    """Maximize lambda_min(M0 + t M1) for t in [lo, hi] by ternary search.

    lambda_min of an affine Hermitian family is concave in t.
    """
    if lo > hi:
        raise DimensionError("max_mineig needs lo <= hi")
    m0 = np.asarray(m0, dtype=complex)
    m1 = np.asarray(m1, dtype=complex)

    def g(t: float) -> float:
        return float(np.linalg.eigvalsh(m0 + t * m1)[0])

    a, b = float(lo), float(hi)
    while b - a > tol:
        u = a + (b - a) / 3.0
        v = b - (b - a) / 3.0
        if g(u) < g(v):
            a = u
        else:
            b = v
    t = (a + b) / 2.0
    return t, g(t)
