import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matrange import sdp
from matrange.convexity import _choi_program, _shared_coords, build_frame
from matrange.errors import CertificateError, DimensionError, IllConditionedError
from matrange.matcore import MatrixTuple, compress, direct_sum_all
from matrange.sdp import (
    BlockProgram,
    SolveOptions,
    SdpOutcome,
    SdpProblem,
    detect_blocks,
    hermitian_basis,
    max_mineig,
    solve,
    solve_feasibility,
    verify_outcome,
)
from conftest import rand_herm, rand_isometry, rand_tuple


def test_hermitian_basis_orthonormal():
    for n in (1, 2, 3):
        basis = hermitian_basis(n)
        assert len(basis) == n * n
        for i, e in enumerate(basis):
            assert np.linalg.norm(e - e.conj().T) < 1e-14
            for j, f in enumerate(basis):
                ip = np.einsum("ij,ij->", e.conj(), f).real
                assert abs(ip - (1.0 if i == j else 0.0)) < 1e-14


def test_feasible_boundary_example():
    p = SdpProblem(psd_side=2,
                   constraints=((np.eye(2), 1.0), (np.diag([1.0, -1.0]), 1.0)))
    out = solve(p)
    assert out.feasible
    np.testing.assert_allclose(out.primal, np.diag([1.0, 0.0]), atol=1e-7)


def test_inconsistent_linear_system():
    p = SdpProblem(psd_side=2, constraints=((np.eye(2), 1.0), (2 * np.eye(2), 4.0)))
    out = solve(p)
    assert out.infeasible
    y = out.dual_certificate.y
    # Farkas: sum y_k F_k = 0 here, with y . b < 0
    assert abs(y[0] + 2 * y[1]) < 1e-10
    assert y[0] + 4 * y[1] < -1e-3


def test_optimization_example():
    p = SdpProblem(psd_side=2, constraints=((np.eye(2), 1.0),),
                   objective=np.diag([1.0, 0.0]))
    out = solve(p)
    assert out.feasible
    assert abs(out.objective_value - 1.0) <= 1e-7


def test_psd_infeasible_with_farkas():
    p = SdpProblem(psd_side=2,
                   constraints=((np.diag([1.0, 0.0]), -1.0), (np.eye(2), 1.0)))
    out = solve(p)
    assert out.infeasible
    assert out.margin > 0.5
    slack = sum(yk * f for yk, (f, _) in zip(out.dual_certificate.y,
                                             p.constraints))
    assert np.linalg.eigvalsh(slack)[0] > -1e-8
    val = sum(yk * bk for yk, (_, bk) in zip(out.dual_certificate.y, p.constraints))
    assert val < -1e-3


def test_feasible_interior_margin():
    # X = I/2 is interior: tr X = 1 on side 2 allows lambda_min up to 1/2
    p = SdpProblem(psd_side=2, constraints=((np.eye(2), 1.0),))
    out = solve(p)
    assert out.feasible
    assert abs(out.margin - 0.5) <= 1e-6


def test_weak_duality_on_random_instances(rng):
    for _ in range(5):
        n = 3
        c = rand_herm(n, rng)
        cons = [(np.eye(n, dtype=complex), 1.0)]
        for _ in range(2):
            cons.append((rand_herm(n, rng), float(rng.uniform(-0.2, 0.2))))
        p = SdpProblem(psd_side=n, constraints=tuple(cons), objective=c)
        out = solve(p)
        if out.feasible:
            assert out.objective_value <= out.dual_bound + 1e-6 * max(
                1.0, abs(out.objective_value))


def test_scaling_invariance_of_status(rng):
    cons = ((np.eye(2), 1.0), (np.diag([1.0, -1.0]), 0.4))
    base = solve(SdpProblem(psd_side=2, constraints=cons))
    for c in (1e-3, 7.0, 1e3):
        scaled = tuple((c * f, c * b) for f, b in cons)
        out = solve(SdpProblem(psd_side=2, constraints=scaled))
        assert out.status == base.status


def test_rank_deficiency_raises():
    h = np.diag([1.0, -1.0])
    p = SdpProblem(psd_side=2,
                   constraints=((h, 0.1), (2 * h, 0.2), (np.eye(2), 1.0)))
    with pytest.raises(IllConditionedError):
        solve(p)


def test_determinism():
    p = SdpProblem(psd_side=3,
                   constraints=((np.eye(3), 1.0),
                                (np.diag([1.0, -1.0, 0.0]), 0.3)),
                   objective=np.diag([1.0, 0.0, -1.0]))
    o1 = solve(p)
    o2 = solve(p)
    assert o1.status == o2.status
    np.testing.assert_array_equal(o1.primal, o2.primal)


def test_verifier_rejects_corrupt_primal():
    p = SdpProblem(psd_side=2, constraints=((np.eye(2), 1.0),))
    out = solve(p)
    bad = SdpOutcome(status="feasible", primal=np.diag([5.0, 5.0]),
                     margin=out.margin)
    with pytest.raises(CertificateError):
        verify_outcome(p, bad)


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


def test_block_structured_solve(rng):
    # two independent 2x2 blocks with separate trace constraints
    f1 = np.zeros((4, 4), dtype=complex)
    f1[:2, :2] = np.eye(2)
    f2 = np.zeros((4, 4), dtype=complex)
    f2[2:, 2:] = np.eye(2)
    p = SdpProblem(psd_side=4, constraints=((f1, 1.0), (f2, 2.0)))
    out = solve(p)
    assert out.feasible
    assert abs(np.trace(out.primal[:2, :2]).real - 1.0) < 1e-7
    assert abs(np.trace(out.primal[2:, 2:]).real - 2.0) < 1e-7
    assert np.abs(out.primal[:2, 2:]).max() < 1e-12


def test_max_mineig_linear():
    t, lam = max_mineig(np.diag([1.0, -1.0]), np.eye(2), -2.0, 2.0)
    assert abs(t - 2.0) <= 1e-6
    assert abs(lam - 1.0) <= 1e-6


def test_max_mineig_zero():
    t, lam = max_mineig(np.zeros((2, 2)), np.zeros((2, 2)), -1.0, 1.0)
    assert abs(lam) < 1e-12


def test_max_mineig_grid_oracle(rng):
    m0 = rand_herm(4, rng)
    m1 = rand_herm(4, rng)
    t, lam = max_mineig(m0, m1, -1.0, 1.0)
    grid = np.arange(-1.0, 1.0 + 1e-9, 1e-4)
    vals = [np.linalg.eigvalsh(m0 + g * m1)[0] for g in grid]
    best = max(vals)
    assert lam >= best - 1e-7


def test_max_mineig_bad_interval():
    with pytest.raises(DimensionError):
        max_mineig(np.eye(2), np.eye(2), 1.0, 0.0)


def test_complex_hermitian_native(rng):
    # constraints with genuinely complex entries
    h = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
    p = SdpProblem(psd_side=2, constraints=((np.eye(2), 1.0), (h, 0.9)))
    out = solve(p)
    assert out.feasible
    v = np.einsum("ij,ij->", h.conj(), out.primal).real
    assert abs(v - 0.9) < 1e-7


def test_marginal_infeasibility_band():
    # b slightly outside the attainable set: |t*| below feas_tol -> feasible
    # at tolerance, beyond it -> infeasible
    h = np.diag([1.0, -1.0])
    out = solve(SdpProblem(psd_side=2, constraints=((np.eye(2), 1.0), (h, 1.0 + 1e-4))))
    assert out.infeasible
    out = solve(SdpProblem(psd_side=2, constraints=((np.eye(2), 1.0), (h, 1.0 - 1e-4))))
    assert out.feasible


def test_solve_feasibility_no_rows():
    prog = BlockProgram(sizes=(2,), F=[np.zeros((0, 2, 2), dtype=complex)],
                        b=np.zeros(0))
    r = solve_feasibility(prog)
    assert r.t_star == np.inf


def _level3_choi_program(seed):
    """Choi program of a level-3 In point V*(A (x) I_2)V against a random
    14x14 Hermitian pair A of norm 1: side 42, 27 rows."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(2):
        h = rand_herm(14, rng)
        mats.append(h / np.linalg.norm(h, 2))
    rng_t = MatrixTuple.from_mats(mats)
    big = MatrixTuple.from_mats([np.kron(h, np.eye(2)) for h in mats])
    point = compress(big, rand_isometry(28, 3, rng))
    point_coords, range_coords, hermitian_input = _shared_coords(point, rng_t)
    frame = build_frame(range_coords, hermitian_input)
    prog, _, _ = _choi_program(range_coords, point_coords, frame)
    return prog


def _assert_same_solve(a, b):
    assert a.t_star == b.t_star
    assert a.ipm.iterations == b.ipm.iterations
    assert a.ipm.converged == b.ipm.converged
    np.testing.assert_array_equal(a.farkas_y, b.farkas_y)
    for xa, xb in zip(a.X, b.X):
        np.testing.assert_array_equal(xa, xb)


def test_stalled_choi_solve_stops_after_its_best_iterate(monkeypatch):
    prog = _level3_choi_program(0)
    r = solve_feasibility(prog)
    assert r.ipm.stop == "stalled" and not r.ipm.converged
    assert r.ipm.iterations_run <= r.ipm.iterations + 1 + sdp.STALL_WINDOW
    monkeypatch.setattr(sdp, "STALL_WINDOW", SolveOptions().max_iter)
    full = solve_feasibility(prog)
    assert full.ipm.iterations_run > r.ipm.iterations_run
    _assert_same_solve(r, full)


def test_converged_solve_ignores_the_stall_window(monkeypatch):
    prog = BlockProgram(sizes=(2,), F=[np.eye(2, dtype=complex)[None]],
                        b=np.array([1.0]))
    r = solve_feasibility(prog)
    assert r.ipm.stop == "converged" and r.ipm.converged
    assert r.ipm.iterations_run == r.ipm.iterations + 1
    monkeypatch.setattr(sdp, "STALL_WINDOW", SolveOptions().max_iter)
    _assert_same_solve(r, solve_feasibility(prog))


def _dense_choi_rows(range_coords, point_coords, frame, comps, m):
    """The Choi program's rows built explicitly with np.kron, per component,
    and its right-hand side: row (j, p) is C_j (x) E_p with C_0 = I and
    C_j the transposed shifted range coordinate."""
    n = range_coords.shape[1]
    basis = hermitian_basis(m)
    coeffs = [np.eye(n)] + [(range_coords[j] - frame.center[j] * np.eye(n)).T
                            for j in frame.kept]
    targets = [np.eye(m)] + [point_coords[j] - frame.center[j] * np.eye(m)
                             for j in frame.kept]
    rows = [np.stack([np.kron(c[np.ix_(idx, idx)], e)
                      for c in coeffs for e in basis]) for idx in comps]
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
    prog, comps, m = _choi_program(range_coords, point_coords, frame)
    rows, b = _dense_choi_rows(range_coords, point_coords, frame, comps, m)
    assert m == level and prog.levels == (level,) * len(comps)
    assert prog.sizes == tuple(r.shape[1] for r in rows)
    np.testing.assert_allclose(prog.b, b, atol=1e-14)

    X = [_rand_pd(s, rng) for s in prog.sizes]
    W = [_rand_pd(s, rng) for s in prog.sizes]
    y = rng.standard_normal(prog.num_rows)
    A = sum(np.einsum("kij,ij->k", R.conj(), Xb).real for R, Xb in zip(rows, X))
    flat = [R.reshape(len(R), -1) for R in rows]
    gram = sum((f.conj() @ f.T).real for f in flat)
    schur = sum(np.einsum("kab,bc,lcd,da->kl", R, Xb, R, Wb).real
                for R, Xb, Wb in zip(rows, X, W))

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(want).max()))

    close(prog.apply_A(X), A)
    for got, R in zip(prog.apply_At(y), rows):
        close(got, np.einsum("k,kij->ij", y, R))
    close(prog.gram(), gram)
    close(prog.schur(X, W), schur)
