"""Dense semidefinite feasibility engine with certificates.

Problems are posed over one or more complex Hermitian PSD blocks with real
affine constraints <F_k, X> = b_k, where <M, N> = Re tr(M* N).  The solver
is a Mehrotra-style predictor-corrector primal-dual interior-point method.

Feasibility questions are answered through the shifted program

    maximize t  subject to  A(Y) + t * A(I) = b,  Y >= 0,

whose optimum t* is the largest attainable smallest eigenvalue on the affine
slice; solve_feasibility is the one entry point.  t* > 0 certifies strict
feasibility with the interior primal point Y* + t* I; t* < 0 yields,
through the dual multipliers, a Farkas pair (y, S = sum_k y_k F_k) with
S >= 0, tr S = 1 and b . y = t* < 0, which is impossible for a feasible
program.  Callers re-validate every certificate they build from the result
through direct eigenvalue computation.

A BlockProgram holds each block's rows in factored form, C_j (x) E_p with
E_p running over hermitian_basis(m) for the block's level m, which is how
Choi rows arise; the iteration contracts the Schur complement, A and A* on
the factors and never forms dense rows (Fujisawa, Kojima and Nakata,
"Exploiting sparsity in primal-dual interior-point methods for
semidefinite programming", 1997).  Blocks of side 1 form one nonnegative
diagonal block handled with vector operations, as SDPT3 handles linear
blocks.

The iteration returns its best iterate, the one of lowest score
max(rel_p, rel_d, rel_gap).  Near the boundary the Schur system turns
ill-conditioned and the residuals grow again after that iterate, so the
loop also ends, as SDPT3 does on lack of progress, once STALL_WINDOW
iterates in a row have not lowered the best score; such a stalled run
returns its best iterate unconverged.

Every iterate of the shifted program also brackets t* with certified
bounds (Jansson, Chaykin and Keil, "Rigorous error bounds for the optimal
value in semidefinite programming", 2007): lambda_min of the iterate's
primal point projected onto the slice is a lower bound, and its dual
multipliers, lifted to a PSD A*(y) along the unitality combination w with
A*(w) = I, give an upper bound.  A caller that needs only a verdict passes
solve_feasibility a `settle` check of that bracket, and the run ends
"certified" at the first iterate the check accepts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg as sla
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import DimensionError, IllConditionedError
from .matcore import frob

# _ipm converges once rel_p, rel_d and rel_gap are all at most IPM_TOL
IPM_TOL = 1e-10
MAX_ITER = 120
# Gram eigenvalues below RANK_TOL times the largest mark dependent rows
RANK_TOL = 1e-10
# _ipm ends once this many iterates in a row have not lowered the best score
STALL_WINDOW = 10


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


def detect_blocks(mats: Sequence[np.ndarray], n: int) -> list[np.ndarray]:
    """Partition indices into connected components of the union support."""
    adj = np.zeros((n, n), dtype=bool)
    for mat in mats:
        scale = float(np.abs(mat).max(initial=0.0))
        if scale > 0:
            adj |= np.abs(mat) > 1e-14 * scale
    ncomp, labels = connected_components(csr_matrix(adj), directed=False)
    return [np.flatnonzero(labels == c) for c in range(ncomp)]


# ---------------------------------------------------------------------------
# Block-structured program container
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _basis_rows(m: int) -> np.ndarray:
    """hermitian_basis(m) as an (m*m, m*m) array, row p = E_p raveled."""
    rows = np.stack(hermitian_basis(m)).reshape(m * m, m * m)
    rows.flags.writeable = False
    return rows


@dataclass
class BlockProgram:
    """min <C, X> s.t. <F_k, X> = b_k, X PSD per block.

    Rows are held in factored form: block b has coefficient matrices F[b]
    of shape (J_b, n_b, n_b) and a level m_b (levels[b], 1 by default), and
    its row (j, p), numbered j * m_b**2 + p, is F[b][j] (x) E_p over
    hermitian_basis(m_b).  The block has side n_b * m_b and takes part in
    the first J_b * m_b**2 rows; its coefficients on later rows are zero.
    At level 1 F[b] is the plain stack of dense rows.  C is None for pure
    feasibility.
    """

    sizes: tuple
    F: list
    b: np.ndarray
    C: Optional[list] = None
    levels: Optional[tuple] = None

    def __post_init__(self):
        self.sizes = tuple(self.sizes)
        self.levels = tuple(self.levels or (1,) * len(self.F))
        for s, Fb, lv in zip(self.sizes, self.F, self.levels, strict=True):
            if Fb.shape[1] * lv != s or Fb.shape[0] * lv * lv > self.num_rows:
                raise DimensionError(
                    f"rows of shape {Fb.shape} at level {lv} do not fit a "
                    f"block of side {s} in {self.num_rows} rows")

    @property
    def num_rows(self) -> int:
        return len(self.b)

    @property
    def total_dim(self) -> int:
        return int(sum(self.sizes))

    def _blocks(self):
        """(coefficients flattened to (J, n*n), basis rows, n, m, rows)."""
        for Fb, lv in zip(self.F, self.levels):
            J, n, _ = Fb.shape
            yield Fb.reshape(J, n * n), _basis_rows(lv), n, lv, J * lv * lv

    def apply_A(self, X: list) -> np.ndarray:
        out = np.zeros(self.num_rows)
        for (Fc, E, n, lv, R), Xb in zip(self._blocks(), X):
            # <C_j (x) E_p, X> = sum conj(C_j[i,k] E_p[a,c]) X[(i,a),(k,c)]
            x = Xb.reshape(n, lv, n, lv).transpose(0, 2, 1, 3).reshape(n * n, -1)
            out[:R] += ((Fc.conj() @ x) @ E.conj().T).real.ravel()
        return out

    def apply_At(self, y: np.ndarray) -> list:
        out = []
        for Fc, E, n, lv, R in self._blocks():
            # sum_j C_j (x) W_j with W_j = sum_p y[j,p] E_p
            w = y[:R].reshape(-1, lv * lv) @ E
            s = n * lv
            out.append((Fc.T @ w).reshape(n, n, lv, lv).transpose(0, 2, 1, 3)
                       .reshape(s, s))
        return out

    def gram(self) -> np.ndarray:
        """Re <F_k, F_l>; per block <C_j, C_i> <E_p, E_q> with the basis
        orthonormal, so Re(C C*) (x) I."""
        g = np.zeros((self.num_rows, self.num_rows))
        for Fc, E, _, lv, R in self._blocks():
            gc = (Fc.conj() @ Fc.T).real
            g[:R, :R] += np.kron(gc, np.eye(lv * lv))
        return g

    @cached_property
    def gram_eigh(self) -> tuple:
        """Eigendecomposition of the Gram matrix, computed once per program."""
        return np.linalg.eigh(self.gram())

    def gram_solve(self, v: np.ndarray) -> np.ndarray:
        """G^+ v over the Gram eigenvalues above RANK_TOL times the largest."""
        evals, evecs = self.gram_eigh
        keep = evals > RANK_TOL * max(float(evals[-1]), 1e-300)
        return evecs[:, keep] @ ((evecs[:, keep].T @ v) / evals[keep])

    @cached_property
    def unitality(self) -> Optional[np.ndarray]:
        """w = G^+ A(I), the row combination with A*(w) = I, or None when
        A*(w) misses I beyond rounding.  Every Choi program has one, its
        unitality rows."""
        w = self.gram_solve(self.apply_A(self.identity()))
        miss = max(float(np.abs(Sb - I).max())
                   for Sb, I in zip(self.apply_At(w), self.identity()))
        return w if miss <= 1e-10 * max(1.0, float(np.abs(w).max())) else None

    def schur(self, X: list, W: list) -> np.ndarray:
        """M[k, l] = Re tr(F_k X F_l W) over the blocks.

        With P_j = (C_j (x) I) X and Q_i = (C_i (x) I) W on the (n, m, n, m)
        view, tr(F_(j,p) X F_(i,q) W) = sum E_p[a,a'] E_q[c,c'] T, where T
        contracts P_j[., a', ., c] with Q_i[., c', ., a] over both range
        indices; cost 2 J n^3 m^2 + J^2 n^2 m^4, the dense cost at m = 1.
        """
        M = np.zeros((self.num_rows, self.num_rows))
        for (Fc, E, n, lv, R), Xb, Wb in zip(self._blocks(), X, W):
            J = Fc.shape[0]
            mm = lv * lv
            Fb = Fc.reshape(J, n, n)
            P = (Fb @ Xb.reshape(n, -1)).reshape(J, n, lv, n, lv)
            Q = (Fb @ Wb.reshape(n, -1)).reshape(J, n, lv, n, lv)
            Pr = P.transpose(0, 2, 4, 1, 3).reshape(R, n * n)
            Qr = Q.transpose(0, 2, 4, 3, 1).reshape(R, n * n)
            T = (Pr @ Qr.T).reshape(J, lv, lv, J, lv, lv)
            T = T.transpose(0, 5, 1, 3, 2, 4).reshape(J, mm, J * mm)
            Mb = (E @ T).reshape(R * J, mm) @ E.T
            M[:R, :R] += Mb.real.reshape(R, R)
        return M

    def identity(self) -> list:
        return [np.eye(s, dtype=complex) for s in self.sizes]

    def data_scale(self) -> float:
        # the entries of F_(j,p) are those of C_j times at most 1
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


def _inverse_factor(Xb: np.ndarray) -> np.ndarray:
    """L^-1 for the Cholesky factor L of Xb, so that Xb^-1 = L^-* L^-1."""
    L = _chol_with_jitter(Xb)
    return sla.solve_triangular(L, np.eye(L.shape[0], dtype=L.dtype), lower=True,
                                check_finite=False)


def _min_eigenvalue(S: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix; LAPACK's heevr (syevr
    for real input) computes only that one, after the same tridiagonal
    reduction as eigvalsh."""
    evr, = sla.get_lapack_funcs(
        ("heevr" if np.iscomplexobj(S) else "syevr",), (S,))
    w, _, _, _, info = evr(S, compute_v=0, range="I", il=1, iu=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"heevr failed with info={info}")
    return float(w[0])


def _step_length(iL: list, dX: list, v: np.ndarray, dv: np.ndarray) -> float:
    """sup {a : X + a dX >= 0, v + a dv >= 0}: each matrix block through the
    eigenvalues of L^-1 dX L^-*, with iL holding L^-1 from _inverse_factor,
    and the diagonal block v through a ratio test."""
    neg = dv < -1e-300
    alpha = float(np.min(-v[neg] / dv[neg], initial=np.inf))
    for iLb, Db in zip(iL, dX):
        S = iLb @ Db @ iLb.conj().T
        lam = _min_eigenvalue((S + S.conj().T) / 2.0)
        if lam < -1e-14:
            alpha = min(alpha, -1.0 / lam)
    return alpha


@dataclass
class IpmResult:
    """One iterate of _ipm, which returns its best: the one of lowest score
    max(rel_p, rel_d, rel_gap).

    `iterations` is the index of the iterate.  On the returned one,
    `iterations_run` is the number of iterates the loop evaluated and `stop`
    says why the loop ended: "converged", "certified" (the caller's settle
    check accepted this iterate, which is returned in place of the best),
    "stalled" (STALL_WINDOW iterates in a row without a lower score),
    "max_iter", "short_step" (even a centering step was too short) or
    "factorization" (a Cholesky factor of X, Z or the Schur complement
    could not be formed).
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


def _ipm(prog: BlockProgram, X0: list,
         settle: Optional[Callable[[IpmResult], Optional[bool]]] = None
         ) -> IpmResult:
    """Predictor-corrector interior-point iteration on the given program,
    from the interior start X0.  `settle`, when given, sees every iterate
    that has not converged, and the loop ends at the first it accepts
    (True).  Once it returns None, no later iterate can be accepted either,
    and the loop stops calling it.

    The blocks of side 1 form one nonnegative diagonal block: the vector x
    with dual slack z and coefficient columns G, handled with vector
    operations.  The other blocks are iterated as matrices on the factored
    rows.
    """
    sizes = prog.sizes
    m = prog.num_rows
    ntot = prog.total_dim
    C = prog.C
    scale = prog.data_scale()
    normC = max(1.0, np.sqrt(sum(frob(Cb) ** 2 for Cb in C)))
    normb = max(1.0, float(np.linalg.norm(prog.b)))
    zeta = max(1.0, normC / np.sqrt(ntot), scale)

    mat = [k for k, s in enumerate(sizes) if s > 1]
    lin = [k for k, s in enumerate(sizes) if s == 1]
    psd = BlockProgram(sizes=tuple(sizes[k] for k in mat),
                       F=[prog.F[k] for k in mat], b=prog.b,
                       levels=tuple(prog.levels[k] for k in mat))
    G = np.zeros((m, len(lin)))
    for col, k in enumerate(lin):
        G[: len(prog.F[k]), col] = prog.F[k][:, 0, 0].real
    Cm = [C[k] for k in mat]
    c = np.array([C[k][0, 0].real for k in lin])
    X = _hermitize([np.asarray(X0[k], dtype=complex) for k in mat])
    x = np.array([X0[k][0, 0].real for k in lin])
    Z = [zeta * np.eye(sizes[k], dtype=complex) for k in mat]
    z = np.full(len(lin), zeta)
    y = np.zeros(m)
    eye = [np.eye(sizes[k], dtype=complex) for k in mat]

    def blocks(mats: list, vec: np.ndarray) -> list:
        """An iterate in the program's block order."""
        out = [None] * len(sizes)
        for k, Xb in zip(mat, mats):
            out[k] = Xb
        for k, v in zip(lin, vec):
            out[k] = np.array([[v + 0j]])
        return out

    best: Optional[IpmResult] = None
    stop = "max_iter"
    for it in range(MAX_ITER):
        rp = prog.b - psd.apply_A(X) - G @ x
        Rd = [Cb - Ab - Zb for Cb, Ab, Zb in zip(Cm, psd.apply_At(y), Z)]
        rd = c - G.T @ y - z
        gap = _inner(X, Z) + float(x @ z)
        mu = gap / ntot
        pobj = _inner(Cm, X) + float(c @ x)
        dobj = float(prog.b @ y)
        rel_p = float(np.linalg.norm(rp)) / normb
        rel_d = np.sqrt(sum(frob(R) ** 2 for R in Rd) + float(rd @ rd)) / normC
        rel_gap = abs(gap) / (1.0 + abs(pobj) + abs(dobj))
        # X and Z are Hermitian already, and later steps rebind, not mutate
        cur = IpmResult(blocks(X, x), y, blocks(Z, z), pobj, dobj,
                        rel_p, rel_d, rel_gap, it, False)
        score = max(rel_p, rel_d, rel_gap)
        if best is None or score < max(best.rel_p, best.rel_d, best.rel_gap):
            best = cur
        if rel_p <= IPM_TOL and rel_d <= IPM_TOL and rel_gap <= IPM_TOL:
            best = replace(cur, converged=True)
            stop = "converged"
            break
        if settle is not None:
            accepted = settle(cur)
            if accepted:
                best = cur
                stop = "certified"
                break
            if accepted is None:
                settle = None
        if it - best.iterations >= STALL_WINDOW:
            stop = "stalled"
            break

        # X and Z stay fixed through the iteration: factor each block once
        try:
            iLX = [_inverse_factor(Xb) for Xb in X]
            iLZ = [_inverse_factor(Zb) for Zb in Z]
        except np.linalg.LinAlgError:
            stop = "factorization"
            break
        Zinv = [iL.conj().T @ iL for iL in iLZ]

        # Schur complement M[k,l] = Re tr(F_k X F_l Zinv) + sum_i G_ki G_li x_i/z_i;
        # symmetric for Hermitian data, positive definite for independent rows
        M = psd.schur(X, Zinv) + (G * (x / z)) @ G.T
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

        def direction(Rc, rc):
            W = [(Rcb - Xb @ Rdb) @ Zib for Rcb, Rdb, Xb, Zib in zip(Rc, Rd, X, Zinv)]
            rhs = rp - psd.apply_A(W) - G @ ((rc - x * rd) / z)
            dy = sla.cho_solve(Mf, rhs) if m else np.zeros(0)
            dZ = [Rdb - Ab for Rdb, Ab in zip(Rd, psd.apply_At(dy))]
            dz = rd - G.T @ dy
            dX = [(Rcb - Xb @ dZb) @ Zib
                  for Rcb, Xb, dZb, Zib in zip(Rc, X, dZ, Zinv)]
            return _hermitize(dX), (rc - x * dz) / z, dy, _hermitize(dZ), dz

        # predictor
        XZ = [Xb @ Zb for Xb, Zb in zip(X, Z)]
        dXa, dxa, dya, dZa, dza = direction([-P for P in XZ], -x * z)
        ap = min(1.0, _step_length(iLX, dXa, x, dxa))
        ad = min(1.0, _step_length(iLZ, dZa, z, dza))
        mu_aff = (_inner([Xb + ap * D for Xb, D in zip(X, dXa)],
                         [Zb + ad * D for Zb, D in zip(Z, dZa)])
                  + float((x + ap * dxa) @ (z + ad * dza))) / ntot
        sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3, 1e-8)) if mu > 0 else 0.1

        # corrector
        Rc = [sigma * mu * I - P - Da @ Db
              for I, P, Da, Db in zip(eye, XZ, dXa, dZa)]
        dX, dx, dy, dZ, dz = direction(Rc, sigma * mu - x * z - dxa * dza)
        tau = 0.95 if rel_gap > 1e-5 else 0.99
        ap = min(1.0, tau * _step_length(iLX, dX, x, dx))
        ad = min(1.0, tau * _step_length(iLZ, dZ, z, dz))
        if min(ap, ad) < 1e-8:
            # fall back to a pure centering step before giving up
            Rc = [mu * I - P for I, P in zip(eye, XZ)]
            dX, dx, dy, dZ, dz = direction(Rc, mu - x * z)
            ap = min(1.0, 0.9 * _step_length(iLX, dX, x, dx))
            ad = min(1.0, 0.9 * _step_length(iLZ, dZ, z, dz))
            if min(ap, ad) < 1e-10:
                stop = "short_step"
                break
        X = _hermitize([Xb + ap * D for Xb, D in zip(X, dX)])
        x = x + ap * dx
        Z = _hermitize([Zb + ad * D for Zb, D in zip(Z, dZ)])
        z = z + ad * dz
        y = y + ad * dy

    assert best is not None
    return replace(best, iterations_run=it + 1, stop=stop)


# ---------------------------------------------------------------------------
# Feasibility via the shifted max-lambda-min program
# ---------------------------------------------------------------------------

@dataclass
class FeasibilityResult:
    """`X` is Y + tI of the returned iterate projected onto the slice and
    `farkas_y` the Farkas direction: the iterate's dual multipliers, lifted
    to a PSD A*(y).  `bracket` is the certified [lo, hi] on t* at the
    returned iterate."""

    t_star: float
    X: Optional[list]
    farkas_y: Optional[np.ndarray]
    ipm: Optional[IpmResult]
    bracket: tuple = (-np.inf, np.inf)

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


def _affine_start(prog: BlockProgram):
    """Minimum-norm Hermitian solution of A(X) = b.

    Also reports the residual, whether the system is consistent and whether
    the Gram matrix is rank deficient beyond RANK_TOL.
    """
    evals = prog.gram_eigh[0]
    lam_max = max(float(evals[-1]), 1e-300)
    rank_deficient = bool(np.any(evals <= RANK_TOL * lam_max))
    X0 = prog.apply_At(prog.gram_solve(prog.b))
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
    It reuses the Gram eigendecomposition that _affine_start computed.
    """
    resid = prog.b - prog.apply_A(X)
    if float(np.linalg.norm(resid)) <= 1e-15 * max(1.0, float(np.linalg.norm(prog.b))):
        return X
    corr = prog.apply_At(prog.gram_solve(resid))
    return _hermitize([Xb + Cb for Xb, Cb in zip(X, corr)])


def _bracket(prog: BlockProgram, t: float, Xs: list, y: np.ndarray) -> tuple:
    """(X, y', lo, hi) at one iterate (Xs, y) of the shifted program with
    shift t: X = Xs + tI projected onto the slice, so lo = lambda_min(X) <= t*;
    y' = y_f + s w with y_f = -y[:m], s = max(0, -lambda_min A*(y_f)) and w
    the unitality combination, so A*(y') >= 0 and, for every X on the slice,
    b.y' = <A*(y'), X> >= lambda_min(X) tr A*(y'), whence t* <= hi =
    b.y' / tr A*(y').  hi is inf when the program has no unitality
    combination."""
    X = refine_affine(prog, _hermitize([Xb + t * np.eye(Xb.shape[0]) for Xb in Xs]))
    lo = min(_min_eigenvalue(Xb) for Xb in X)
    yf = -y[: prog.num_rows]
    w = prog.unitality
    if w is None:
        return X, yf, lo, np.inf
    S = _hermitize(prog.apply_At(yf))
    s = max(0.0, -min(_min_eigenvalue(Sb) for Sb in S))
    tr = sum(float(np.trace(Sb).real) for Sb in S) + s * prog.total_dim
    yp = yf + s * w
    return X, yp, lo, float(prog.b @ yp) / tr if tr > 0 else np.inf


def solve_feasibility(prog: BlockProgram,
                      settle: Optional[Callable[..., bool]] = None
                      ) -> FeasibilityResult:
    """Decide {X >= 0 : A(X) = b} with certificates, via max lambda_min.

    t_star is -inf, with farkas_y the Farkas direction, when A(X) = b has no
    solution at all; dependent rows raise IllConditionedError.  Otherwise
    `X` and `farkas_y` are the X and y' of the returned iterate's _bracket.
    `settle`, when given, is called as settle(X, y', lo, hi) with each
    iterate's _bracket, and the run ends "certified" at the first call that
    returns True.  A call that returns None says that no later bracket can
    settle either, and the brackets of later iterates are not computed.
    """
    m = prog.num_rows
    if m == 0:
        return FeasibilityResult(np.inf, prog.identity(), None, None)

    X0, resid, consistent, rank_deficient = _affine_start(prog)
    if not consistent:
        # Farkas certificate for affine inconsistency: the residual direction
        # is orthogonal to range(A), so A*(y) = 0 while b . y < 0
        y = -resid / max(float(np.linalg.norm(resid)), 1e-300)
        if float(prog.b @ y) > 0:
            y = -y
        return FeasibilityResult(-np.inf, None, y, None)
    if rank_deficient:
        raise IllConditionedError(
            "constraint Gram matrix is rank deficient beyond RANK_TOL; "
            "remove dependent constraints")

    t0 = _min_eig(X0) - 1.0
    tmax = max(100.0, 8.0 * (abs(t0) + 2.0), 4.0 * abs(np.trace(X0[0]).real)
               if X0 else 100.0)

    # t+ / t- / cap-slack auxiliaries, 1x1 blocks on the rows and one extra
    # cap row; the program's own blocks are zero on the cap row
    a = prog.apply_A(prog.identity())
    aux = [np.concatenate([v, [1.0]]).reshape(-1, 1, 1).astype(complex)
           for v in (a, -a, np.zeros(m))]
    b = np.concatenate([prog.b, [tmax]])
    C = [np.zeros((s, s), dtype=complex) for s in prog.sizes]
    C += [np.array([[-1.0 + 0j]]), np.array([[1.0 + 0j]]), np.array([[0j]])]
    shifted = BlockProgram(sizes=prog.sizes + (1, 1, 1), F=list(prog.F) + aux,
                           b=b, C=C, levels=prog.levels + (1, 1, 1))

    tp0 = max(t0, 0.0) + 1.0
    tm0 = tp0 - t0
    start = [Xb - t0 * np.eye(Xb.shape[0]) for Xb in X0]
    start += [np.array([[tp0 + 0j]]), np.array([[tm0 + 0j]]),
              np.array([[tmax - tp0 - tm0 + 0j]])]

    k = len(prog.sizes)

    def shift(r: IpmResult) -> float:
        return float(r.X[-3][0, 0].real - r.X[-2][0, 0].real)

    certified = []

    def check(r: IpmResult) -> Optional[bool]:
        found = _bracket(prog, shift(r), r.X[:k], r.y)
        accepted = settle(*found)
        if accepted:
            certified.append(found)
        return accepted

    res = _ipm(shifted, start, None if settle is None else check)
    t_star = shift(res)
    X, farkas, lo, hi = certified[0] if certified else \
        _bracket(prog, t_star, res.X[:k], res.y)
    return FeasibilityResult(t_star, X, farkas, res, (lo, hi))

