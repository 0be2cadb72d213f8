"""Dense semidefinite feasibility engine with certificates.

A BlockProgram poses real affine constraints <F_k, X> = b_k on one complex
Hermitian PSD block X, where <M, N> = Re tr(M* N).  Its rows are held in
factored form, C_j (x) E_p with E_p running over hermitian_basis(m) for the
program's level m, which is how Choi rows arise; the iteration contracts the
Schur complement, A and A* on the factors and never forms dense rows
(Fujisawa, Kojima and Nakata, "Exploiting sparsity in primal-dual
interior-point methods for semidefinite programming", 1997).

Feasibility is decided through t* = max { lambda_min(X) : A(X) = b }, the
largest attainable smallest eigenvalue on the affine slice;
solve_feasibility is the one entry point.  Every program it solves has
independent rows, so the slice is never empty, and a unitality combination
w with A*(w) = I, so that tr X = tau = w.b on the slice.  With Y = X - tI on side N, max t becomes the program

    minimize tr Y  subject to  A'(Y) = b',  Y >= 0,

with rows F'_k = F_k - (a_k / N) I for a = A(I) and b' = b - (tau / N) a,
which has no free variable (Anjos and Burer, "On handling free variables in
interior-point methods for conic linear optimization", 2007).  Its rows are
dependent along w, and one of them is dropped.  The solver is a
Mehrotra-style predictor-corrector primal-dual interior-point method on
that program, whose Schur complement is the factored one of A plus a
rank-two correction.  Its centering weight is ((1 - ap)(1 - ad))^1.5 for
the previous iterate's step lengths, not Mehrotra's (1992) rule on the
predictor's, so an iterate computes four smallest eigenvalues, not six.
The kernels are numpy's alone, so a process holds one BLAS library: with
scipy.linalg's second one, a level-3 Out membership took 264 ms under
default threading on 2 CPUs, against 12.9 ms now (12.3 ms on one thread).

Every iterate brackets t* with certified bounds (Jansson, Chaykin and Keil,
"Rigorous error bounds for the optimal value in semidefinite programming",
2007): lambda_min of X = Y + tI projected onto the slice is a lower bound,
and the iterate's dual multipliers, lifted to a PSD A*(y') along w, give an
upper bound.  An interior X certifies t* > 0, and a y' with A*(y') >= 0
and b.y' < 0 is a Farkas direction that no feasible program admits.
Callers re-validate every certificate they build from the result through
direct eigenvalue computation.  The bracket is also the only stop rule: the
caller's `settle` check of each bracket ends the run when it accepts one or
finds that no later one can be accepted, every other stop is a failure,
and the run returns its last iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, IllConditionedError
from .matcore import frob

MAX_ITER = 120
# Gram eigenvalues below RANK_TOL times the largest mark dependent rows;
# convexity.build_frame drops range coordinates by the same bound
RANK_TOL = 1e-10


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
# Program container
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _basis_rows(m: int) -> np.ndarray:
    """hermitian_basis(m) as an (m*m, m*m) array, row p = E_p raveled."""
    rows = np.stack(hermitian_basis(m)).reshape(m * m, m * m)
    rows.flags.writeable = False
    return rows


@dataclass
class BlockProgram:
    """<F_k, X> = b_k over one Hermitian PSD block X.

    Rows are held in factored form: F holds coefficient matrices C_j of
    shape (J, n, n), and row (j, p), numbered j * m**2 + p, is C_j (x) E_p
    over hermitian_basis(m) for the level m (1 by default), so X has side
    n * m.  At level 1 F is the plain stack of dense rows.
    """

    F: np.ndarray
    b: np.ndarray
    level: int = 1

    def __post_init__(self):
        J, n, n2 = self.F.shape
        if n != n2 or J * self.level ** 2 != self.num_rows:
            raise DimensionError(
                f"rows of shape {self.F.shape} at level {self.level} do not "
                f"make {self.num_rows} rows")

    @property
    def num_rows(self) -> int:
        return len(self.b)

    @property
    def side(self) -> int:
        return self.F.shape[1] * self.level

    def _flat(self) -> tuple:
        """(coefficients flattened to (J, n*n), basis rows, n, m)."""
        J, n, _ = self.F.shape
        return self.F.reshape(J, n * n), _basis_rows(self.level), n, self.level

    def apply_A(self, X: np.ndarray) -> np.ndarray:
        Fc, E, n, lv = self._flat()
        # <C_j (x) E_p, X> = sum conj(C_j[i,k] E_p[a,c]) X[(i,a),(k,c)]
        x = X.reshape(n, lv, n, lv).transpose(0, 2, 1, 3).reshape(n * n, -1)
        return ((Fc.conj() @ x) @ E.conj().T).real.ravel()

    def apply_At(self, y: np.ndarray) -> np.ndarray:
        Fc, E, n, lv = self._flat()
        # sum_j C_j (x) W_j with W_j = sum_p y[j,p] E_p
        w = y.reshape(-1, lv * lv) @ E
        s = n * lv
        return (Fc.T @ w).reshape(n, n, lv, lv).transpose(0, 2, 1, 3).reshape(s, s)

    def gram(self) -> np.ndarray:
        """Re <F_k, F_l> = <C_j, C_i> <E_p, E_q> with the basis orthonormal,
        so Re(C C*) (x) I."""
        Fc, _, _, lv = self._flat()
        return np.kron((Fc.conj() @ Fc.T).real, np.eye(lv * lv))

    @cached_property
    def gram_eigh(self) -> tuple:
        """Eigendecomposition of the Gram matrix, computed once per program."""
        return np.linalg.eigh(self.gram())

    def gram_solve(self, v: np.ndarray) -> np.ndarray:
        """G^-1 v, for rows that solve_feasibility has found independent."""
        evals, evecs = self.gram_eigh
        return evecs @ ((evecs.T @ v) / evals)

    @cached_property
    def unitality(self) -> Optional[np.ndarray]:
        """w = G^-1 A(I), the row combination with A*(w) = I, or None when
        A*(w) misses I beyond rounding.  Every Choi program has one, its
        unitality rows."""
        eye = np.eye(self.side, dtype=complex)
        w = self.gram_solve(self.apply_A(eye))
        miss = float(np.abs(self.apply_At(w) - eye).max())
        return w if miss <= 1e-10 * max(1.0, float(np.abs(w).max())) else None

    def schur(self, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        """M[k, l] = Re tr(F_k X F_l W).

        With P_j = (C_j (x) I) X and Q_i = (C_i (x) I) W on the (n, m, n, m)
        view, tr(F_(j,p) X F_(i,q) W) = sum E_p[a,a'] E_q[c,c'] T, where T
        contracts P_j[., a', ., c] with Q_i[., c', ., a] over both range
        indices; cost 2 J n^3 m^2 + J^2 n^2 m^4, the dense cost at m = 1.
        """
        _, E, n, lv = self._flat()
        J, R, mm = len(self.F), self.num_rows, lv * lv
        P = (self.F @ X.reshape(n, -1)).reshape(J, n, lv, n, lv)
        Q = (self.F @ W.reshape(n, -1)).reshape(J, n, lv, n, lv)
        Pr = P.transpose(0, 2, 4, 1, 3).reshape(R, n * n)
        Qr = Q.transpose(0, 2, 4, 3, 1).reshape(R, n * n)
        T = (Pr @ Qr.T).reshape(J, lv, lv, J, lv, lv)
        T = T.transpose(0, 5, 1, 3, 2, 4).reshape(J, mm, J * mm)
        return ((E @ T).reshape(R * J, mm) @ E.T).real.reshape(R, R)

    def data_scale(self) -> float:
        # the entries of F_(j,p) are those of C_j times at most 1
        return max(1.0, float(np.abs(self.F).max(initial=0.0)),
                   float(np.abs(self.b).max(initial=0.0)))


class _TraceProgram:
    """min tr Y s.t. A'(Y) = b', Y >= 0 for a program with unitality
    combination w: rows F'_k = F_k - (a_k / N) I with a = A(I), and
    b' = b - (tau / N) a with tau = w.b, less the row of largest |w_k|.
    Multipliers y of the kept rows lift to the program's rows, zero on the
    dropped one."""

    def __init__(self, prog: BlockProgram):
        w = prog.unitality
        if w is None:
            raise IllConditionedError(
                "no combination of the constraints gives the identity, so "
                "the trace of X is not fixed on the slice")
        self.prog = prog
        self.N = prog.side
        self.tau = float(w @ prog.b)
        self.a = prog.apply_A(np.eye(self.N, dtype=complex))
        self.keep = np.arange(prog.num_rows) != int(np.argmax(np.abs(w)))
        self.b = (prog.b - self.tau / self.N * self.a)[self.keep]

    def lift(self, y: np.ndarray) -> np.ndarray:
        full = np.zeros(self.prog.num_rows)
        full[self.keep] = y
        return full

    def shift(self, Y: np.ndarray) -> float:
        """t with tr(Y + tI) = tau."""
        return (self.tau - float(np.trace(Y).real)) / self.N

    def apply_A(self, Y: np.ndarray) -> np.ndarray:
        trace = float(np.trace(Y).real)
        return (self.prog.apply_A(Y) - trace / self.N * self.a)[self.keep]

    def apply_At(self, y: np.ndarray) -> np.ndarray:
        full = self.lift(y)
        return self.prog.apply_At(full) \
            - float(self.a @ full) / self.N * np.eye(self.N)

    def schur(self, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        """M'[k, l] = Re tr(F'_k X F'_l W): with u = A((XW + WX) / 2), the
        Schur complement of A less (u a^T + a u^T) / N, plus
        Re tr(XW) a a^T / N^2."""
        XW = X @ W
        u = self.prog.apply_A((XW + XW.conj().T) / 2.0)
        M = self.prog.schur(X, W) \
            - (np.outer(u, self.a) + np.outer(self.a, u)) / self.N \
            + float(np.trace(XW).real) / self.N ** 2 * np.outer(self.a, self.a)
        return M[np.ix_(self.keep, self.keep)]


def _hermitize(X: np.ndarray) -> np.ndarray:
    return (X + X.conj().T) / 2.0


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
    return np.linalg.inv(_chol_with_jitter(Xb))


def _min_eigenvalue(S: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(np.linalg.eigvalsh(S)[0])


def _step_length(iL: np.ndarray, dX: np.ndarray) -> float:
    """sup {a : X + a dX >= 0} through the eigenvalues of L^-1 dX L^-*, with
    iL holding L^-1 from _inverse_factor."""
    S = iL @ dX @ iL.conj().T
    lam = _min_eigenvalue((S + S.conj().T) / 2.0)
    return -1.0 / lam if lam < -1e-14 else np.inf


@dataclass
class IpmResult:
    """One iterate (X, y, Z) of _ipm on a _TraceProgram, where X is its Y
    and y the multipliers of its kept rows.

    `iterations` is the index of the iterate.  On the returned iterate, the
    last one _ipm evaluated, `stop` says why the loop ended: "certified"
    (the settle check accepted it), "band" (the settle check found that no
    later iterate can be accepted either), or one of the failure stops
    "max_iter", "short_step" (even a centering step was too short) and
    "factorization" (a Cholesky factor of X, Z or the Schur complement
    could not be formed).
    """

    X: np.ndarray
    y: np.ndarray
    Z: np.ndarray
    iterations: int
    stop: str = ""

    @property
    def converged(self) -> bool:
        """Whether the run ended on its settle check, not on a failure."""
        return self.stop in ("certified", "band")


def _ipm(sp: _TraceProgram, X0: np.ndarray,
         settle: Callable[[IpmResult], Optional[bool]]) -> IpmResult:
    """Predictor-corrector interior-point iteration on min tr X over the
    trace program, from the interior start X0.  `settle` sees every iterate:
    True ends the loop "certified", None ends it "band" and False goes on.
    The loop returns the last iterate it evaluated, with its stop."""
    N = sp.N
    m = len(sp.b)
    eye = np.eye(N, dtype=complex)
    X = _hermitize(np.asarray(X0, dtype=complex))
    Z = sp.prog.data_scale() * eye
    y = np.zeros(m)

    stop = "max_iter"
    # centering weight of the first corrector, which has no previous step;
    # 0.1 ran 2-3 more iterations per minimize benchmark pool than 0.05
    sigma = 0.05
    for it in range(MAX_ITER):
        rp = sp.b - sp.apply_A(X)
        Rd = eye - sp.apply_At(y) - Z
        gap = float(np.einsum("ij,ji->", X, Z).real)
        mu = gap / N
        rel_gap = abs(gap) / (1.0 + abs(float(np.trace(X).real))
                              + abs(float(sp.b @ y)))
        # X and Z are Hermitian already, and later steps rebind, not mutate
        cur = IpmResult(X, y, Z, it)
        accepted = settle(cur)
        if accepted or accepted is None:
            stop = "certified" if accepted else "band"
            break
        if it == MAX_ITER - 1:
            break  # no step is taken from the last iterate

        # X and Z stay fixed through the iteration: factor each once
        try:
            iLX = _inverse_factor(X)
            iLZ = _inverse_factor(Z)
        except np.linalg.LinAlgError:
            stop = "factorization"
            break
        Zinv = iLZ.conj().T @ iLZ

        # Schur complement M[k,l] = Re tr(F'_k X F'_l Zinv); symmetric for
        # Hermitian data, positive definite for independent rows
        M = sp.schur(X, Zinv)
        M = (M + M.T) / 2.0
        ridge = 1e-13 * max(1.0, float(np.trace(M)) / max(m, 1))
        for attempt in range(8):
            try:
                iLM = np.linalg.inv(np.linalg.cholesky(M + ridge * np.eye(m)))
                break
            except np.linalg.LinAlgError:
                ridge *= 100.0
        else:
            stop = "factorization"
            break

        def direction(Rc):
            W = (Rc - X @ Rd) @ Zinv
            dy = iLM.T @ (iLM @ (rp - sp.apply_A(W)))
            dZ = Rd - sp.apply_At(dy)
            dX = (Rc - X @ dZ) @ Zinv
            return _hermitize(dX), dy, _hermitize(dZ)

        # predictor, for the corrector's second-order term only; sigma comes
        # from the previous step, which saves this one's two step lengths
        XZ = X @ Z
        dXa, _, dZa = direction(-XZ)

        # corrector
        dX, dy, dZ = direction(sigma * mu * eye - XZ - dXa @ dZa)
        tau = 0.95 if rel_gap > 1e-5 else 0.99
        ap = min(1.0, tau * _step_length(iLX, dX))
        ad = min(1.0, tau * _step_length(iLZ, dZ))
        if min(ap, ad) < 1e-8:
            # fall back to a pure centering step before giving up
            dX, dy, dZ = direction(mu * eye - XZ)
            ap = min(1.0, 0.9 * _step_length(iLX, dX))
            ad = min(1.0, 0.9 * _step_length(iLZ, dZ))
            if min(ap, ad) < 1e-10:
                stop = "short_step"
                break
        X = _hermitize(X + ap * dX)
        Z = _hermitize(Z + ad * dZ)
        y = y + ad * dy
        # long steps call for little centering next time, short ones for much
        sigma = min(1.0, max(((1.0 - ap) * (1.0 - ad)) ** 1.5, 1e-8))

    return replace(cur, stop=stop)


# ---------------------------------------------------------------------------
# Feasibility via max lambda_min
# ---------------------------------------------------------------------------

@dataclass
class FeasibilityResult:
    """`bracket` is the certified [lo, hi] on t* at the returned iterate
    and `t_star` its midpoint, within half its width of t*.  `X` is the
    returned iterate's primal point on the slice, and `farkas_y` the Farkas
    direction: its dual multipliers, lifted to a PSD A*(y)."""

    t_star: float
    X: np.ndarray
    farkas_y: np.ndarray
    ipm: IpmResult
    bracket: tuple


def _bracket(prog: BlockProgram, t: float, Y: np.ndarray, y: np.ndarray) -> tuple:
    """(X, y', lo, hi) at one iterate (Y, y) of the trace program, with y
    lifted to the rows of prog: X = Y + tI projected onto the slice, so
    lo = lambda_min(X) <= t*; y' = y_f + s w with y_f = -y,
    s = max(0, -lambda_min A*(y_f)) and w the unitality combination, so
    A*(y') >= 0 and, for every X on the slice,
    b.y' = <A*(y'), X> >= lambda_min(X) tr A*(y'), whence
    t* <= hi = b.y' / tr A*(y').

    The projection leaves a residual r = b - A(X) of rounding size, and the
    nearest point of the slice is ||A*(G^-1 r)||_F away, so lo is lowered by
    that much (Jansson, Chaykin and Keil).  Each lambda_min
    is computed in floating point too, so lo is lowered and s raised by N
    eps times the Frobenius norm (at least 1 for s), a bound on its
    rounding error; then tr A*(y') > 0."""
    N = prog.side
    rounding = N * np.finfo(float).eps
    X = _hermitize(Y + t * np.eye(N))
    X = _hermitize(X + prog.apply_At(prog.gram_solve(prog.b - prog.apply_A(X))))
    r = prog.b - prog.apply_A(X)
    lo = _min_eigenvalue(X) - rounding * frob(X) \
        - frob(prog.apply_At(prog.gram_solve(r)))
    yf = -y
    S = _hermitize(prog.apply_At(yf))
    s = max(0.0, -_min_eigenvalue(S)) + rounding * max(1.0, frob(S))
    yp = yf + s * prog.unitality
    return X, yp, lo, float(prog.b @ yp) / (float(np.trace(S).real) + s * N)


def solve_feasibility(prog: BlockProgram,
                      settle: Callable[..., Optional[bool]]
                      ) -> FeasibilityResult:
    """Decide {X >= 0 : A(X) = b} with certificates, via max lambda_min.

    Rows that are dependent beyond RANK_TOL, no rows at all and rows
    without a unitality combination raise IllConditionedError.  Otherwise
    `settle` is called as settle(X, y', lo, hi) with each iterate's
    _bracket: True ends the run "certified" at that iterate, None ends it
    "band", as no later bracket can be accepted either, and False goes on.
    `X`, `farkas_y` and `bracket` are those of the returned iterate, the
    last one bracketed.
    """
    evals = prog.gram_eigh[0]
    if not evals.size or evals[0] <= RANK_TOL * evals[-1]:
        raise IllConditionedError(
            "constraint Gram matrix is empty or rank deficient beyond "
            "RANK_TOL; remove dependent constraints")

    sp = _TraceProgram(prog)
    found = ()

    def check(r: IpmResult) -> Optional[bool]:
        nonlocal found
        found = _bracket(prog, sp.shift(r.X), r.X, sp.lift(r.y))
        return settle(*found)

    # A is onto, so the minimum-norm solution X0 misses b by rounding only,
    # which _bracket allows for; Y = X0 - t0 I has lambda_min 1
    X0 = _hermitize(prog.apply_At(prog.gram_solve(prog.b)))
    t0 = _min_eigenvalue(X0) - 1.0
    res = _ipm(sp, X0 - t0 * np.eye(prog.side), check)
    X, farkas, lo, hi = found
    return FeasibilityResult((lo + hi) / 2.0, X, farkas, res, (lo, hi))
