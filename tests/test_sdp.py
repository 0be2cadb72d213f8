import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matrange import sdp
from matrange.convexity import (
    FEAS_TOL,
    _choi_program,
    _shared_coords,
    build_frame,
    detect_blocks,
)
from matrange.errors import IllConditionedError
from matrange.matcore import direct_sum_all, frob
from matrange.sdp import BlockProgram, hermitian_basis, solve_feasibility
from conftest import level3_pair, rand_tuple


def test_hermitian_basis_orthonormal():
    for n in (1, 2, 3):
        basis = hermitian_basis(n)
        assert len(basis) == n * n
        for i, e in enumerate(basis):
            assert np.linalg.norm(e - e.conj().T) < 1e-14
            for j, f in enumerate(basis):
                ip = np.einsum("ij,ij->", e.conj(), f).real
                assert abs(ip - (1.0 if i == j else 0.0)) < 1e-14


def _program(*constraints):
    """A program over one dense block with the rows <F_k, X> = b_k."""
    F = np.stack([np.asarray(f, dtype=complex) for f, _ in constraints])
    b = np.array([float(bk) for _, bk in constraints])
    return BlockProgram(F=F, b=b)


def _resolving(X, y, lo, hi):
    """A settle check that accepts the first bracket resolving its midpoint
    t* within a quarter of max(|t*|, FEAS_TOL)."""
    return hi - lo <= 0.5 * max(abs(lo + hi) / 2.0, FEAS_TOL)


def _narrower_than(width):
    """A settle check that accepts the first bracket at most `width` wide."""
    return lambda X, y, lo, hi: hi - lo <= width


def _never(X, y, lo, hi):
    return False


def _resolved(r):
    """The run ended on a certified bracket that holds t_star, its midpoint,
    which is then within a quarter of max(|t*|, FEAS_TOL) of t*."""
    lo, hi = r.bracket
    assert r.ipm.stop == "certified" and r.ipm.converged
    assert lo <= r.t_star <= hi
    assert hi - lo <= 0.5 * max(abs(r.t_star), FEAS_TOL)
    return lo, hi


def _feasible(prog, settle=_resolving):
    """Solve a one-block program whose slice meets the PSD cone and check the
    primal certificate: t* resolved and certified not below -FEAS_TOL, X PSD
    within FEAS_TOL and on the slice within FEAS_TOL of the data scale."""
    r = solve_feasibility(prog, settle)
    lo, _ = _resolved(r)
    assert lo >= -FEAS_TOL
    assert np.linalg.eigvalsh(r.X)[0] >= -FEAS_TOL
    rows = np.einsum("kij,ij->k", prog.F.conj(), r.X).real
    assert np.abs(rows - prog.b).max() <= FEAS_TOL * prog.data_scale()
    return r


def _infeasible(prog):
    """Solve a one-block program whose slice misses the PSD cone and check
    the Farkas pair: t* resolved and certified below -FEAS_TOL,
    S = sum_k y_k F_k PSD and b . y < -|t*| / 10 < 0."""
    r = solve_feasibility(prog, _resolving)
    _, hi = _resolved(r)
    assert hi < -FEAS_TOL
    y = r.farkas_y
    slack = np.einsum("k,kij->ij", y, prog.F)
    assert np.linalg.eigvalsh(slack)[0] >= -1e-12 * max(1.0, frob(slack))
    assert float(prog.b @ y) < -0.1 * abs(r.t_star)
    return r


def test_feasible_boundary_example():
    r = _feasible(_program((np.eye(2), 1.0), (np.diag([1.0, -1.0]), 1.0)))
    assert abs(r.t_star) <= FEAS_TOL
    np.testing.assert_allclose(r.X, np.diag([1.0, 0.0]), atol=1e-7)


def test_inconsistent_linear_system():
    # rows I and 2I are dependent, which is refused before consistency of
    # b matters: membership poses independent rows only
    with pytest.raises(IllConditionedError):
        solve_feasibility(_program((np.eye(2), 1.0), (2 * np.eye(2), 4.0)),
                          _resolving)


def test_psd_infeasible_with_farkas():
    r = _infeasible(_program((np.diag([1.0, 0.0]), -1.0), (np.eye(2), 1.0)))
    assert -r.t_star > 0.5
    slack = r.farkas_y[0] * np.diag([1.0, 0.0]) + r.farkas_y[1] * np.eye(2)
    assert np.linalg.eigvalsh(slack)[0] > -1e-8
    assert -r.farkas_y[0] + r.farkas_y[1] < -1e-3


def test_feasible_interior_margin():
    # X = I/2 is interior: tr X = 1 on side 2 allows lambda_min up to 1/2
    r = _feasible(_program((np.eye(2), 1.0)), _narrower_than(1e-8))
    assert abs(r.t_star - 0.5) <= 1e-6


def test_scaling_invariance_of_status():
    cons = ((np.eye(2), 1.0), (np.diag([1.0, -1.0]), 0.4))
    base = _feasible(_program(*cons))
    assert base.t_star > FEAS_TOL
    for c in (1e-3, 7.0, 1e3):
        scaled = _feasible(_program(*((c * f, c * b) for f, b in cons)))
        assert scaled.t_star > FEAS_TOL


def test_rank_deficiency_raises():
    h = np.diag([1.0, -1.0])
    with pytest.raises(IllConditionedError):
        solve_feasibility(_program((h, 0.1), (2 * h, 0.2), (np.eye(2), 1.0)),
                          _resolving)


def test_determinism():
    prog = _program((np.eye(3), 1.0), (np.diag([1.0, -1.0, 0.0]), 0.3))
    _assert_same_solve(solve_feasibility(prog, _resolving),
                       solve_feasibility(prog, _resolving))


def test_block_detection():
    # diagonal constraints split all the way down to scalars
    f1 = np.diag([1.0, 1.0, 0.0])
    f2 = np.zeros((3, 3))
    f2[2, 2] = 1.0
    comps = detect_blocks([f1, f2], 3)
    assert sorted(len(c) for c in comps) == [1, 1, 1]
    # an off-diagonal entry couples indices 0 and 2
    f3 = np.zeros((3, 3))
    f3[0, 2] = f3[2, 0] = 1.0
    comps = detect_blocks([f1, f2, f3], 3)
    assert sorted(len(c) for c in comps) == [1, 2]


def test_block_structured_solve():
    # two independent 2x2 blocks with separate trace constraints, solved as
    # one block: t* = 1/2 is that of the first block alone, since pinching
    # to the blocks keeps a point on the slice and does not lower
    # lambda_min, and the solution is block diagonal
    f1 = np.zeros((4, 4), dtype=complex)
    f1[:2, :2] = np.eye(2)
    f2 = np.zeros((4, 4), dtype=complex)
    f2[2:, 2:] = np.eye(2)
    r = _feasible(BlockProgram(F=np.stack([f1, f2]), b=np.array([1.0, 2.0])),
                  _narrower_than(1e-8))
    lo, hi = r.bracket
    assert lo <= 0.5 <= hi and hi - lo <= 1e-8
    x = r.X
    assert np.linalg.eigvalsh(x)[0] > 0
    assert abs(np.trace(x[:2, :2]).real - 1.0) < 1e-7
    assert abs(np.trace(x[2:, 2:]).real - 2.0) < 1e-7
    assert np.abs(x[:2, 2:]).max() < 1e-12


def test_complex_hermitian_native():
    # constraints with genuinely complex entries
    h = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
    r = _feasible(_program((np.eye(2), 1.0), (h, 0.9)))
    assert r.t_star > FEAS_TOL
    v = np.einsum("ij,ij->", h.conj(), r.X).real
    assert abs(v - 0.9) < 1e-7


def test_marginal_infeasibility_band():
    # b just outside the attainable set is infeasible by more than
    # FEAS_TOL, and just inside it feasible by more than FEAS_TOL
    h = np.diag([1.0, -1.0])
    _infeasible(_program((np.eye(2), 1.0), (h, 1.0 + 1e-4)))
    r = _feasible(_program((np.eye(2), 1.0), (h, 1.0 - 1e-4)))
    assert r.t_star > FEAS_TOL


def test_solve_feasibility_no_rows():
    # an empty Gram matrix is refused with the dependent ones
    prog = BlockProgram(F=np.zeros((0, 2, 2), dtype=complex), b=np.zeros(0))
    with pytest.raises(IllConditionedError):
        solve_feasibility(prog, _resolving)


def _level3_choi_program(seed):
    """Choi program of a level-3 In point V*(A (x) I_2)V against a random
    14x14 Hermitian pair A of norm 1: side 42, 27 rows."""
    point, rng_t = level3_pair(seed)
    point_coords, range_coords, hermitian_input = _shared_coords(point, rng_t)
    frame = build_frame(range_coords, hermitian_input)
    return _choi_program(range_coords, point_coords, frame)


def _assert_same_solve(a, b):
    assert a.t_star == b.t_star and a.bracket == b.bracket
    assert a.ipm.iterations == b.ipm.iterations
    assert a.ipm.stop == b.ipm.stop
    np.testing.assert_array_equal(a.farkas_y, b.farkas_y)
    np.testing.assert_array_equal(a.X, b.X)


@pytest.mark.parametrize("seed", range(5))
def test_returned_optimum_lies_in_its_bracket(seed):
    # a level-3 Choi solve narrows its certified bracket to 1e-9, and the
    # returned t* is its midpoint
    r = solve_feasibility(_level3_choi_program(seed), _narrower_than(1e-9))
    lo, hi = r.bracket
    assert r.ipm.stop == "certified"
    assert lo <= r.t_star <= hi and hi - lo <= 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_bracket_holds_at_every_iterate(seed):
    # lo is lambda_min of a point on the slice and hi the value of a dual
    # feasible point, so lo <= t* <= hi at every iterate.  A settle check
    # that never accepts runs the solve to a failure stop, and the returned
    # iterate is the last one bracketed
    prog = _level3_choi_program(seed)
    seen = []

    def settle(X, y, lo, hi):
        seen.append((lo, hi))
        return False

    r = solve_feasibility(prog, settle)
    assert r.ipm.stop in ("max_iter", "short_step", "factorization")
    assert not r.ipm.converged
    assert len(seen) == r.ipm.iterations + 1 and seen[-1] == r.bracket
    for lo, hi in seen:
        assert lo <= hi + 1e-12
    _assert_same_solve(r, solve_feasibility(prog, _never))


def test_settle_ends_the_run_at_the_iterate_it_accepts():
    prog = _level3_choi_program(0)
    seen = []

    def settle(X, y, lo, hi):
        seen.append((X, y, lo, hi))
        return len(seen) == 4

    r = solve_feasibility(prog, settle)
    assert r.ipm.stop == "certified" and r.ipm.converged
    assert r.ipm.iterations == 3
    X, y, lo, hi = seen[-1]
    assert r.X is X and r.farkas_y is y and r.bracket == (lo, hi)
    # y' is dual feasible for the bracket: A*(y') >= 0 up to rounding
    S = prog.apply_At(y)
    assert np.linalg.eigvalsh(S)[0] >= -1e-12
    assert abs(float(prog.b @ y) / np.trace(S).real - hi) <= 1e-12


def test_settle_that_gives_up_is_not_called_again():
    prog = _level3_choi_program(1)
    calls = []

    def settle(X, y, lo, hi):
        calls.append(lo)
        return None

    # None says that no later bracket can be accepted, so the run ends
    # "band" at the first iterate
    r = solve_feasibility(prog, settle)
    assert len(calls) == 1 and r.ipm.stop == "band" and r.ipm.converged
    assert r.ipm.iterations == 0 and r.bracket[0] == calls[0]


def test_unitality_combination_of_a_choi_program():
    prog = _level3_choi_program(1)
    np.testing.assert_allclose(prog.apply_At(prog.unitality),
                               np.eye(prog.side), atol=1e-12)
    # a program without rows that combine to the identity has none, and
    # the trace program needs one
    prog = _program((np.diag([1.0, 0.0]), 1.0))
    assert prog.unitality is None
    with pytest.raises(IllConditionedError):
        solve_feasibility(prog, _resolving)


def test_real_rows_bracket_the_optimum():
    # tr X = 1 and X_00 - X_11 = 0.2 leave lambda_min at most 0.4, at
    # diag(0.6, 0.4); real rows give the bracket real blocks A*(y)
    F = np.stack([np.eye(2), np.diag([1.0, -1.0])])
    r = solve_feasibility(BlockProgram(F=F, b=np.array([1.0, 0.2])),
                          _narrower_than(1e-8))
    lo, hi = r.bracket
    assert lo <= 0.4 + 1e-12 and hi >= 0.4 - 1e-12 and hi - lo <= 1e-8


@pytest.mark.parametrize("accept, stop", [(True, "certified"), (None, "band"),
                                           (False, None)],
                         ids=["certified", "band", "never"])
def test_converged_says_whether_the_settle_check_ended_the_run(accept, stop):
    # the run converged when its settle check ended it, at the first iterate
    # here, and not when the iteration failed
    prog = BlockProgram(F=np.eye(2, dtype=complex)[None], b=np.array([1.0]))
    r = solve_feasibility(prog, lambda X, y, lo, hi: accept)
    if accept is False:
        assert r.ipm.stop in ("max_iter", "short_step", "factorization")
        assert not r.ipm.converged
    else:
        assert r.ipm.stop == stop and r.ipm.iterations == 0
        assert r.ipm.converged


def test_max_iter_run_takes_no_step_from_its_last_iterate(monkeypatch):
    # every iterate run is bracketed, and every one but the last is factored
    # for a step; the step from the last would be dropped
    factored = []
    inverse_factor = sdp._inverse_factor
    monkeypatch.setattr(sdp, "_inverse_factor",
                        lambda Xb: factored.append(Xb) or inverse_factor(Xb))
    seen = []
    F = np.stack([np.eye(2), np.diag([1.0, -1.0])])
    r = solve_feasibility(BlockProgram(F=F, b=np.array([1.0, 0.2])),
                          lambda X, y, lo, hi: seen.append(lo) or False)
    assert r.ipm.stop == "max_iter"
    assert len(seen) == r.ipm.iterations + 1 == sdp.MAX_ITER
    # X and Z are factored once each per step
    assert len(factored) == 2 * (len(seen) - 1)


@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
def test_min_eigenvalue_is_the_bottom_of_the_spectrum(complex_input):
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 42):
        g = rng.standard_normal((n, n))
        if complex_input:
            g = g + 1j * rng.standard_normal((n, n))
        S = (g + g.conj().T) / 2.0
        spectrum = np.linalg.eigvals(S).real
        assert abs(sdp._min_eigenvalue(S) - spectrum.min()) \
            <= 1e-12 * max(1.0, np.abs(spectrum).max())


def test_inverse_factor_whitens_its_matrix():
    rng = np.random.default_rng(8)
    X = _rand_pd(12, rng)
    iL = sdp._inverse_factor(X)
    assert np.allclose(iL, np.tril(iL))
    np.testing.assert_allclose(iL @ X @ iL.conj().T, np.eye(12), atol=1e-12)
    # an X with an eigenvalue just below 0 has no Cholesky factor; iL
    # whitens X + jI instead, for the first jitter j of the sequence
    # 1e-15 max(1, max |X|) 16^k that gives one: k = 8, the first above 1e-6
    U = np.linalg.qr(rng.standard_normal((4, 4))
                     + 1j * rng.standard_normal((4, 4)))[0]
    X = U @ np.diag([-1e-6, 0.5, 1.0, 2.0]) @ U.conj().T
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(X)
    iL = sdp._inverse_factor(X)
    assert np.allclose(iL, np.tril(iL))
    jitters = 1e-15 * max(1.0, np.abs(X).max()) * 16.0 ** np.arange(12)
    whitened = [np.allclose(iL @ (X + j * np.eye(4)) @ iL.conj().T, np.eye(4),
                            rtol=0, atol=1e-8) for j in jitters]
    assert whitened.index(True) == 8 and whitened.count(True) == 1


def _dense_choi_rows(range_coords, point_coords, frame, m):
    """The Choi program's rows built explicitly with np.kron, and its
    right-hand side: row (j, p) is C_j (x) E_p with C_0 = I and C_j the
    transposed shifted range coordinate."""
    n = range_coords.shape[1]
    basis = hermitian_basis(m)
    coeffs = [np.eye(n)] + [(range_coords[j] - frame.center[j] * np.eye(n)).T
                            for j in frame.kept]
    targets = [np.eye(m)] + [point_coords[j] - frame.center[j] * np.eye(m)
                             for j in frame.kept]
    rows = np.stack([np.kron(c, e) for c in coeffs for e in basis])
    b = np.array([np.einsum("ij,ij->", e.conj(), k).real
                  for k in targets for e in basis])
    return rows, b


def _rand_pd(s, rng):
    g = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
    return g @ g.conj().T + np.eye(s)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       level=st.integers(1, 3), hermitian=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_factored_rows_match_dense_kron_rows(sizes, level, hermitian, seed):
    rng = np.random.default_rng(seed)
    rng_t = direct_sum_all([rand_tuple(2, n, rng, hermitian=hermitian)
                            for n in sizes])
    point = rand_tuple(2, level, rng, hermitian=hermitian)
    point_coords, range_coords, hermitian_input = _shared_coords(point, rng_t)
    frame = build_frame(range_coords, hermitian_input)
    prog = _choi_program(range_coords, point_coords, frame)
    rows, b = _dense_choi_rows(range_coords, point_coords, frame, level)
    assert prog.level == level and prog.side == rows.shape[1]
    np.testing.assert_allclose(prog.b, b, atol=1e-14)

    N = prog.side
    X, W = _rand_pd(N, rng), _rand_pd(N, rng)
    y = rng.standard_normal(prog.num_rows)

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(want).max(initial=0)))

    def dense_schur(R):
        return np.einsum("kab,bc,lcd,da->kl", R, X, R, W).real

    close(prog.apply_A(X), np.einsum("kij,ij->k", rows.conj(), X).real)
    close(prog.apply_At(y), np.einsum("k,kij->ij", y, rows))
    flat = rows.reshape(len(rows), -1)
    close(prog.gram(), (flat.conj() @ flat.T).real)
    close(prog.schur(X, W), dense_schur(rows))

    # the trace program: rows F'_k = F_k - (a_k / N) I with a = A(I), less
    # the dropped one, and its Schur complement with the rank-two correction
    sp = sdp._TraceProgram(prog)
    a = np.einsum("kii->k", rows).real
    shifted = (rows - a[:, None, None] / N * np.eye(N))[sp.keep]
    assert len(shifted) == prog.num_rows - 1
    tau = float(prog.unitality @ prog.b)
    close(sp.b, (b - tau / N * a)[sp.keep])
    close(sp.apply_A(X), np.einsum("kij,ij->k", shifted.conj(), X).real)
    close(sp.apply_At(y[sp.keep]), np.einsum("k,kij->ij", y[sp.keep], shifted))
    close(sp.schur(X, W), dense_schur(shifted))
