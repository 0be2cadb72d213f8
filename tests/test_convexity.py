import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matrange import convexity, sdp
from matrange.convexity import (
    FEAS_TOL,
    ChoiCertificate,
    Pencil,
    PolytopeBody,
    _choi_program,
    build_frame,
    choi_of_compression,
    exposing_pencil,
    inclusion,
    membership,
    polytope_from_dict,
    separating_pencil,
    validate_separator,
    validate_witness,
    vertex_tuple,
    wmax_membership,
    wmin_membership,
)
from matrange.errors import (
    CertificateError,
    DimensionError,
    MatrangeError,
    NoGapError,
    NotSeparableError,
)
from matrange.matcore import MatrixTuple, compress, conjugate, direct_sum, direct_sum_all
from conftest import (
    level1_hull_samples,
    level3_pair,
    planar_hull_verdict,
    rand_herm,
    rand_isometry,
    rand_tuple,
    rand_unitary,
    square_halfspaces,
)

SZ = np.diag([1.0 + 0j, -1.0])
SX = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI = MatrixTuple.from_mats([SZ, SX])

SIMPLEX_VERTS = [MatrixTuple.scalar_point(p)
                 for p in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))]
N_DELTA = direct_sum_all(SIMPLEX_VERTS)

SQUARE = PolytopeBody(dim=2,
                      vertices=((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)),
                      halfspaces=tuple(square_halfspaces(2)))


def wmax_corner_tuple(x: float) -> MatrixTuple:
    s = np.sqrt(1 - x * x)
    return MatrixTuple.from_mats(
        [SZ, np.array([[x, s], [s, -x]], dtype=complex)])


# --- Choi convention golden test -------------------------------------------

def test_choi_convention_golden():
    v = np.array([[1.0], [0.0]], dtype=complex)  # compress to the (0,0) entry
    cert = choi_of_compression(v)
    # Choi of X -> X[0,0] is E_00 (x) 1 in input-major ordering
    expected = np.zeros((2, 2), dtype=complex)
    expected[0, 0] = 1.0
    np.testing.assert_allclose(cert.choi, expected, atol=1e-15)
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    np.testing.assert_allclose(cert.apply(x), [[1.0]], atol=1e-15)


def test_choi_apply_matches_compression(rng):
    v = rand_isometry(4, 2, rng)
    cert = choi_of_compression(v)
    assert cert.min_eig() >= -1e-12
    assert cert.unitality_residual() <= 1e-12
    for _ in range(3):
        x = rand_herm(4, rng)
        np.testing.assert_allclose(cert.apply(x), v.conj().T @ x @ v, atol=1e-12)


def test_composition_matches_the_choi_of_the_composed_compression(rng):
    # X -> V2* (V1* X V1) V2 is the compression by V1 V2
    v1, v2 = rand_isometry(4, 3, rng), rand_isometry(3, 2, rng)
    composed = choi_of_compression(v2).compose(choi_of_compression(v1))
    direct = choi_of_compression(v1 @ v2)
    assert composed.map_dims == direct.map_dims == (4, 2)
    np.testing.assert_allclose(composed.choi, direct.choi, atol=1e-14)


# --- membership -------------------------------------------------------------

def test_membership_compression_in(rng):
    for _ in range(5):
        t = rand_tuple(2, 4, rng)
        v = rand_isometry(4, 2, rng)
        verdict = membership(compress(t, v), t)
        assert verdict.is_in


def test_membership_barycenter_in():
    v = membership(MatrixTuple.scalar_point([1 / 3, 1 / 3]), N_DELTA)
    assert v.is_in
    assert abs(v.margin - 1 / 3) < 1e-6
    validate_witness(v.witness, N_DELTA.mats, v.witness.apply(np.eye(3)) * 0
                     + np.array([[[1 / 3]], [[1 / 3]]]))


def test_membership_point_outside_simplex():
    v = membership(MatrixTuple.scalar_point([1.0, 1.0]), N_DELTA)
    assert v.is_out
    assert v.separator is not None
    assert v.separator.level == 1
    validate_separator(v.separator, N_DELTA, MatrixTuple.scalar_point([1.0, 1.0]))


def test_membership_pauli_not_in_wmin_square():
    nsq = direct_sum_all([MatrixTuple.scalar_point(p)
                          for p in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0),
                                    (-1.0, -1.0))])
    v = membership(PAULI, nsq)
    assert v.is_out
    assert v.separator.level == 2
    # no random POVM over the vertices reproduces the Pauli pair
    rng = np.random.default_rng(5)
    verts = np.array([(1, 1), (1, -1), (-1, 1), (-1, -1)], dtype=float)
    for _ in range(2000):
        g = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        povm = np.einsum("kij,klj->kil", g, g.conj())
        total = povm.sum(axis=0)
        w = np.linalg.inv(_sqrtm_psd(total))
        povm = np.einsum("ij,kjl,lm->kim", w, povm, w.conj().T)
        got = np.einsum("kd,kij->dij", verts, povm)
        assert max(np.linalg.norm(got[0] - SZ), np.linalg.norm(got[1] - SX)) > 1e-3


def _sqrtm_psd(m):
    vals, vecs = np.linalg.eigh(m)
    return vecs @ np.diag(np.sqrt(np.maximum(vals, 0))) @ vecs.conj().T


def test_membership_dimension_mismatch():
    with pytest.raises(DimensionError):
        membership(MatrixTuple.scalar_point([1.0]), PAULI)


def test_membership_boundary_policies():
    boundary_pt = MatrixTuple.scalar_point([1.0, 0.0])  # on the disk boundary
    v_in = membership(boundary_pt, PAULI, boundary="in")
    assert v_in.is_in
    v_m = membership(boundary_pt, PAULI, boundary="marginal")
    assert v_m.is_marginal


def test_marginal_verdict_reports_the_bracket_and_stop():
    boundary_pt = MatrixTuple.scalar_point([1.0, 0.0])  # t* = 0
    v = membership(boundary_pt, PAULI, boundary="marginal")
    assert v.is_marginal
    lo, hi = v.detail["bracket"]
    assert lo <= hi and -FEAS_TOL <= hi and lo <= FEAS_TOL
    assert v.detail["stop"] == "band"
    assert set(v.to_dict()) == {"status", "margin"}


def test_bracket_checks_stop_once_the_bracket_is_in_the_band(monkeypatch):
    # lo <= t* <= hi, so once -feas_tol <= lo and hi <= feas_tol no later
    # bracket can settle the verdict: the run ends "band" at that iterate,
    # and no bracket follows it
    seen, solves = [], []
    bracket, solve = sdp._bracket, convexity.solve_feasibility

    def traced_bracket(*args):
        found = bracket(*args)
        seen.append(found[2:])
        return found

    def traced_solve(prog, settle):
        solves.append(solve(prog, settle))
        return solves[-1]

    monkeypatch.setattr(sdp, "_bracket", traced_bracket)
    monkeypatch.setattr(convexity, "solve_feasibility", traced_solve)
    v = membership(MatrixTuple.scalar_point([1.0, 0.0]), PAULI,
                   boundary="marginal")
    assert v.is_marginal and solves[0].ipm.stop == "band"
    in_band = [-FEAS_TOL <= lo and hi <= FEAS_TOL for lo, hi in seen]
    assert in_band == [False] * (len(in_band) - 1) + [True]
    assert len(seen) == solves[0].ipm.iterations + 1


@pytest.mark.parametrize("seed", range(3))
def test_level3_choi_solves_end_at_a_certified_iterate(seed, monkeypatch):
    solves = []
    solve = convexity.solve_feasibility

    def traced(prog, settle):
        solves.append(solve(prog, settle))
        return solves[-1]

    monkeypatch.setattr(convexity, "solve_feasibility", traced)
    for push in (None, 0.05):
        point, rng_t = level3_pair(seed, push)
        v = membership(point, rng_t)
        r = solves[-1]
        assert r.ipm.stop == "certified" and r.ipm.iterations + 1 <= 12
        lo, hi = r.bracket
        if push is None:
            assert v.is_in and v.margin == lo > FEAS_TOL
            validate_witness(v.witness, rng_t.mats, point.mats)
        else:
            assert v.is_out and v.margin == -hi > FEAS_TOL
            assert hi - lo <= convexity.SEPARATOR_WIDTH * abs(hi)
            validate_separator(v.separator, rng_t, point)
    assert len(solves) == 2


def _segment_point(s):
    """(point, range): the point at parameter s on the segment from the
    level-3 In point of level3_pair(100) to its Out point with push 0.05."""
    p_in, rng_t = level3_pair(100)
    p_out, _ = level3_pair(100, 0.05)
    return MatrixTuple.from_mats([(1 - s) * a + s * b
                                  for a, b in zip(p_in.mats, p_out.mats)]), rng_t


def test_near_boundary_out_point_ends_certified(monkeypatch):
    # a level-3 point at t* = -1.40e-6, on the segment from an In point to
    # an Out point, at a parameter found by bisection: its brackets never
    # get SEPARATOR_WIDTH-narrow relative to |hi|, and the absolute floor
    # feas_tol ends the solve
    solves = []
    solve = convexity.solve_feasibility

    def traced(prog, settle):
        solves.append(solve(prog, settle))
        return solves[-1]

    monkeypatch.setattr(convexity, "solve_feasibility", traced)
    point, rng_t = _segment_point(0.6618346389644174)
    v = membership(point, rng_t)
    assert v.is_out and 1.3e-6 < v.margin < 1.5e-6
    assert solves[0].ipm.stop == "certified"
    validate_separator(v.separator, rng_t, point)


@pytest.mark.parametrize("s", [0.6618192375221137, 0.6618192595091447,
                               0.661818698839854, 0.6618197981914042],
                         ids=["t=1e-9", "t=-1e-9", "t=5e-8", "t=-5e-8"])
@pytest.mark.parametrize("boundary", ["in", "marginal"])
def test_band_point_ends_at_its_first_band_bracket(s, boundary, monkeypatch):
    # points on the segment at t* = +-1e-9 and +-5e-8, placed from the
    # point at t* = -1.40e-6 along the slope dt*/ds = -0.0910 (a central
    # difference) and checked against brackets 2e-10 wide.  Once a bracket
    # lies within +-feas_tol no later one can settle, so the solve ends
    # there, and that iterate decides: In under boundary="in", Marginal
    # under boundary="marginal"
    seen, solves = [], []
    bracket, solve = sdp._bracket, convexity.solve_feasibility

    def traced_bracket(*args):
        found = bracket(*args)
        seen.append(found[2:])
        return found

    def traced_solve(prog, settle):
        solves.append(solve(prog, settle))
        return solves[-1]

    monkeypatch.setattr(sdp, "_bracket", traced_bracket)
    monkeypatch.setattr(convexity, "solve_feasibility", traced_solve)
    point, rng_t = _segment_point(s)
    v = membership(point, rng_t, boundary=boundary)
    r = solves[0]
    first = next(k for k, (lo, hi) in enumerate(seen)
                 if -FEAS_TOL <= lo and hi <= FEAS_TOL)
    assert r.ipm.stop == "band" and len(seen) == r.ipm.iterations + 1
    assert r.ipm.iterations <= first + 2
    lo, hi = r.bracket
    if boundary == "in":
        assert v.is_in and v.margin == lo >= -FEAS_TOL
        validate_witness(v.witness, rng_t.mats, point.mats)
    else:
        assert v.is_marginal and v.detail == {"bracket": [lo, hi],
                                              "stop": "band"}


def test_membership_monotone_under_compression(rng):
    for _ in range(5):
        t = rand_tuple(2, 3, rng)
        b = compress(t, rand_isometry(3, 2, rng))
        assert membership(b, t).is_in
        assert membership(compress(b, rand_isometry(2, 1, rng)), t).is_in


def test_membership_hundred_random_compressions(rng):
    hits = 0
    for _ in range(100):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, n + 1))
        t = rand_tuple(2, n, rng)
        v = rand_isometry(n, m, rng)
        if membership(compress(t, v), t).is_in:
            hits += 1
    assert hits == 100


def test_membership_unitary_invariance(rng):
    pt = MatrixTuple.scalar_point([0.4, -0.1])
    out_pt = MatrixTuple.scalar_point([2.0, 2.0])
    for _ in range(3):
        u = rand_unitary(2, rng)
        w = rand_unitary(1, rng)
        assert membership(conjugate(pt, w), conjugate(PAULI, u)).status == \
            membership(pt, PAULI).status
        assert membership(conjugate(out_pt, w), conjugate(PAULI, u)).status == \
            membership(out_pt, PAULI).status


@settings(derandomize=True, max_examples=12, deadline=None)
@given(n=st.integers(2, 4), m=st.integers(1, 2), out=st.booleans(),
       push=st.floats(0.05, 0.5), seed=st.integers(0, 2**32 - 1))
def test_membership_status_is_invariant_under_conjugation(n, m, out, push, seed):
    # an In point mixes a compression with the range's centre; an Out point
    # lifts coordinate 0 of a compression past lambda_max of the range's by
    # push, which no UCP image reaches
    rng = np.random.default_rng(seed)
    t = rand_tuple(2, n, rng, hermitian=True)
    pt = compress(t, rand_isometry(n, m, rng))
    if out:
        lift = np.linalg.eigvalsh(t.mats[0])[-1] + push \
            - np.linalg.eigvalsh(pt.mats[0])[0]
        pt = MatrixTuple.from_mats([pt.mats[0] + lift * np.eye(m), pt.mats[1]])
    else:
        centre = [np.trace(h).real / n * np.eye(m) for h in t.mats]
        pt = MatrixTuple.from_mats([0.7 * p + 0.3 * c
                                    for p, c in zip(pt.mats, centre)])
    t_conj = conjugate(t, rand_unitary(n, rng))
    pt_conj = conjugate(pt, rand_unitary(m, rng))
    verdicts = [membership(pt, t), membership(pt_conj, t_conj)]
    assert [v.status for v in verdicts] == ["out" if out else "in"] * 2
    if out:
        validate_separator(verdicts[0].separator, t, pt)
        validate_separator(verdicts[1].separator, t_conj, pt_conj)


@pytest.mark.parametrize("early_stop", [True, False],
                         ids=["certified", "never_settles"])
def test_level2_out_point_with_a_singular_unitality_block(early_stop,
                                                          monkeypatch):
    # coordinate 0 lifted 0.5 past the range's lambda_max: t* = -1.17.  The
    # unitality block Z_0 of the raw Farkas multipliers has eigenvalues
    # 2.4e-11 and 0.5, and a pencil normalized by Z_0^(-1/2) exceeds 1 on
    # the range by 4.7e-4; the certified multipliers y' = y + s w add s I
    # to Z_0, so the pencil's normalization stays bounded.  A solve that
    # ends uncertified, here with a settle check that never accepts, returns
    # the y' of its last iterate as well.
    if not early_stop:
        solve = convexity.solve_feasibility
        monkeypatch.setattr(convexity, "solve_feasibility",
                            lambda prog, settle: solve(prog, lambda *_: False))
    rng = np.random.default_rng(2)
    t = rand_tuple(2, 2, rng, hermitian=True)
    pt = compress(t, rand_isometry(2, 2, rng))
    lift = np.linalg.eigvalsh(t.mats[0])[-1] + 0.5 \
        - np.linalg.eigvalsh(pt.mats[0])[0]
    pt = MatrixTuple.from_mats([pt.mats[0] + lift * np.eye(2), pt.mats[1]])
    t_conj = conjugate(t, rand_unitary(2, rng))
    pt_conj = conjugate(pt, rand_unitary(2, rng))
    assert membership(pt_conj, t_conj).is_out


def test_membership_wmax_corner_pair():
    alpha = 0.2
    x = np.cos(alpha)
    yx = wmax_corner_tuple(x)
    pt = MatrixTuple.scalar_point([np.cos(alpha / 2), np.cos(alpha / 2)])
    v = membership(pt, yx)
    assert v.is_in
    compressed = compress(yx, np.array([np.cos(alpha / 4), np.sin(alpha / 4)]))
    resid = np.linalg.norm(compressed.mats.ravel() - pt.mats.ravel())
    assert resid <= 1e-8
    v_corner = membership(MatrixTuple.scalar_point([1.0, 1.0]), yx)
    assert v_corner.is_out
    validate_separator(v_corner.separator, yx, MatrixTuple.scalar_point([1.0, 1.0]))


def test_membership_split_point_reassembles_witness(rng):
    t = rand_tuple(2, 3, rng, hermitian=True)
    p1 = compress(t, rand_isometry(3, 1, rng))
    p2 = compress(t, rand_isometry(3, 2, rng))
    point = direct_sum(p1, p2)
    v = membership(point, t)
    assert v.is_in
    assert v.witness.map_dims == (3, 3)


# --- inclusion ---------------------------------------------------------------

def test_inclusion_reflexive(rng):
    t = rand_tuple(2, 3, rng)
    v = inclusion(t, t)
    assert v.is_in and v.witness is not None


def test_inclusion_into_direct_sum(rng):
    a = rand_tuple(2, 2, rng)
    b = rand_tuple(2, 2, rng)
    assert inclusion(a, direct_sum(a, b)).is_in


def test_inclusion_square_diamond_pauli():
    nsq = direct_sum_all([MatrixTuple.scalar_point(p)
                          for p in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0),
                                    (-1.0, -1.0))])
    ndia = direct_sum_all([MatrixTuple.scalar_point(p)
                           for p in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0),
                                     (0.0, -1.0))])
    # the inscribed diamond's Wmin lies inside the Pauli disk range, the
    # full square's does not, and the Pauli range is in neither Wmin
    assert inclusion(ndia, PAULI).is_in
    assert inclusion(nsq, PAULI).is_out
    assert inclusion(PAULI, nsq).is_out


# --- separating pencils ------------------------------------------------------

def test_separating_pencil_scalar():
    pencil, margin = separating_pencil(MatrixTuple.scalar_point([0.0]),
                                       MatrixTuple.scalar_point([1.0]))
    assert margin > 0
    assert pencil.max_eig(MatrixTuple.scalar_point([1.0])) > 1.0


def test_separating_pencil_supporting_halfplane():
    pt = MatrixTuple.scalar_point([1.0, 1.0])
    pencil, margin = separating_pencil(N_DELTA, pt)
    assert margin > 0
    # the separator should align with the x + y <= 1 facet
    g = np.array([pencil.coeffs[0][0, 0].real, pencil.coeffs[1][0, 0].real])
    g = g / np.linalg.norm(g)
    assert np.allclose(g, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=0.05)


def test_separating_pencil_level2_regression():
    nsq = direct_sum_all([MatrixTuple.scalar_point(p)
                          for p in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0),
                                    (-1.0, -1.0))])
    pencil, margin = separating_pencil(nsq, PAULI)
    assert pencil.level == 2
    # frozen regression baseline for the separation violation
    assert margin == pytest.approx(0.41421356, abs=1e-4)


def test_separating_pencil_requires_out():
    with pytest.raises(NotSeparableError) as exc:
        separating_pencil(PAULI, MatrixTuple.scalar_point([0.1, 0.1]))
    assert exc.value.status == "in"


@pytest.mark.parametrize("corruption, message", [
    ("negative", "eigenvalue"), ("not_unital", "unital"),
    ("wrong_point", "interpolation")],
    ids=["negative", "not_unital", "wrong_point"])
def test_validate_witness_rejects_a_corrupted_witness(corruption, message, rng):
    t = rand_tuple(2, 4, rng, hermitian=True)
    v = rand_isometry(4, 2, rng)
    point = compress(t, v)
    cert = choi_of_compression(v)
    validate_witness(cert, t.mats, point.mats)
    if corruption == "negative":
        cert = ChoiCertificate(cert.choi - 1e-3 * np.eye(8), cert.map_dims)
        assert cert.min_eig() < -1e-4
    elif corruption == "not_unital":
        cert = ChoiCertificate(1.01 * cert.choi, cert.map_dims)
    else:
        point = compress(t, rand_isometry(4, 2, rng))
    with pytest.raises(CertificateError, match=message):
        validate_witness(cert, t.mats, point.mats)


def test_validate_witness_psd_tolerance_follows_feas_tol(rng):
    t = rand_tuple(2, 4, rng, hermitian=True)
    v = rand_isometry(4, 2, rng)
    point = compress(t, v)
    choi = choi_of_compression(v).choi
    # lower an eigenvalue in the kernel of the rank-one Choi matrix
    w = choi[:, np.argmax(np.abs(choi).sum(axis=0))]
    u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    u -= (w.conj() @ u) / (w.conj() @ w) * w
    u /= np.linalg.norm(u)

    def lowered(lam):
        return ChoiCertificate(choi - lam * np.outer(u, u.conj()), (4, 2))

    cert = lowered(0.5 * FEAS_TOL)
    assert cert.min_eig() == pytest.approx(-0.5 * FEAS_TOL, rel=1e-6)
    validate_witness(cert, t.mats, point.mats)
    with pytest.raises(CertificateError, match="eigenvalue"):
        validate_witness(cert, t.mats, point.mats, feas_tol=1e-9)
    # the default is as strict as the module FEAS_TOL, not a multiple of
    # it that grows with ||C||_F = 2
    with pytest.raises(CertificateError, match="eigenvalue"):
        validate_witness(lowered(2 * FEAS_TOL), t.mats, point.mats)


def test_choi_solution_of_an_out_point_is_no_witness(monkeypatch):
    # (1 + 2e-6, 0) lies 2e-6 outside the unit disk, the matrix range of
    # the Pauli pair (sx, sz), and membership calls it Out with margin
    # 1e-6.  The X of its Choi solve is unital and interpolates the point,
    # but its lambda_min is -1e-6, so it is no witness
    solves = []
    solve = convexity.solve_feasibility

    def traced(prog, settle):
        solves.append(solve(prog, settle))
        return solves[-1]

    monkeypatch.setattr(convexity, "solve_feasibility", traced)
    pair = MatrixTuple.from_mats([SX, SZ])
    point = MatrixTuple.scalar_point([1.0 + 2e-6, 0.0])
    assert membership(point, pair).is_out
    cert = ChoiCertificate(solves[0].X, (2, 1))
    assert cert.min_eig() == pytest.approx(-1e-6, rel=1e-2)
    with pytest.raises(CertificateError, match="eigenvalue"):
        validate_witness(cert, pair.mats, point.mats)


@pytest.mark.parametrize("eps", [5e-7, 9e-7])
def test_witness_of_a_boundary_point_fails_past_it(eps):
    # the witness of the boundary point (1, 0) of the Pauli pair (sx, sz)
    # interpolates (1 + eps, 0) within eps, and membership calls that point
    # Out, so the witness check must reject it there
    pair = MatrixTuple.from_mats([SX, SZ])
    v = membership(MatrixTuple.scalar_point([1.0, 0.0]), pair)
    assert v.is_in
    past = MatrixTuple.scalar_point([1.0 + eps, 0.0])
    assert membership(past, pair).is_out
    with pytest.raises(CertificateError, match="interpolation"):
        validate_witness(v.witness, pair.mats, past.mats)


def test_validate_separator_needs_the_point_above_the_range():
    # lambda_max 1 + 9e-8 on the range and 1 + 1.5e-7 at the point: within
    # the range bound 1 + FEAS_TOL and past it at the point, yet the point
    # lies less than FEAS_TOL above the range, so the pencil separates
    # nothing
    pencil = Pencil(coeffs=np.ones((1, 1, 1), dtype=complex),
                    offset=np.zeros((1, 1), dtype=complex), level=1)
    with pytest.raises(CertificateError, match="does not separate"):
        validate_separator(pencil, MatrixTuple.scalar_point([1.0 + 9e-8]),
                           MatrixTuple.scalar_point([1.0 + 1.5e-7]))
    on_range, at_point = validate_separator(
        pencil, MatrixTuple.scalar_point([1.0]), MatrixTuple.scalar_point([1.5]))
    assert (on_range, at_point) == (1.0, 1.5)


def test_pencil_evaluation_matches_the_kron_sum(rng):
    # L(X) = offset (x) I + sum_j G_j (x) X_j, built with np.kron
    for level, n, d in ((1, 3, 2), (2, 4, 3), (3, 2, 1)):
        t = rand_tuple(d, n, rng)
        pencil = Pencil(coeffs=np.stack([rand_herm(level, rng)
                                         for _ in range(2 * d)]),
                        offset=rand_herm(level, rng), level=level,
                        hermitian_input=False)
        want = np.kron(pencil.offset, np.eye(n))
        for g, x in zip(pencil.coeffs, t.herm_form):
            want = want + np.kron(g, x)
        np.testing.assert_allclose(pencil.evaluate(t), want, rtol=0,
                                   atol=1e-13 * np.abs(want).max())


def _iterative_frame(coords, tol=1e-10):
    """Reference (kept, relations) for build_frame, one relation at a
    time: per relation one full SVD of the (2n^2, d+1) system
    [vec I, vec H_j] over the kept coordinates, whose singular values up to
    tol times the largest, and the null vectors beyond its rows, are
    relations; the first is recorded and its coordinate of largest |alpha|
    dropped, until none is left."""
    dd, n, _ = coords.shape
    kept = list(range(dd))
    relations = []
    while kept:
        mat = np.stack([np.eye(n, dtype=complex).reshape(-1)]
                       + [coords[j].reshape(-1) for j in kept], axis=1)
        _, s, vh = np.linalg.svd(np.vstack([mat.real, mat.imag]))
        null = [v for i, v in enumerate(vh)
                if (i >= len(s) or s[i] <= tol * s[0])
                and np.linalg.norm(v[1:]) >= tol]
        if not null:
            break
        nrm = float(np.linalg.norm(null[0][1:]))
        alpha = np.zeros(dd)
        alpha[kept] = null[0][1:] / nrm
        relations.append((alpha, -float(null[0][0]) / nrm))
        kept.remove(kept[int(np.argmax(np.abs(null[0][1:])))])
    return tuple(kept), relations


def _range_with_relations(n, d, rng):
    """d Hermitian n x n coordinates, the last two affine in the others."""
    mats = [rand_herm(n, rng) for _ in range(d - 2)]
    mats.append(mats[0] - 2.0 * mats[-1] + 0.5 * np.eye(n))
    mats.append(3.0 * mats[1] - np.eye(n))
    return np.stack(mats)


@pytest.mark.parametrize("n, d", [(1, 3), (2, 9), (3, 5), (4, 4)])
def test_relations_match_the_full_svd(n, d, rng):
    # (1, 3) and (2, 9) have more columns d + 1 than rows 2 n^2, where null
    # vectors lie beyond the rows of a thin SVD; (3, 5) and (4, 4) are tall.
    # Past one relation each method picks its own basis of the relations,
    # so the two are compared as spans
    coords = _range_with_relations(n, d, rng)
    rank = np.linalg.matrix_rank(np.stack(
        [np.eye(n).reshape(-1)] + [c.reshape(-1) for c in coords], axis=1))
    frame = build_frame(coords, True)
    kept, ref = _iterative_frame(coords)
    assert len(frame.relations) == len(ref) == d + 1 - rank
    assert len(frame.kept) == len(kept) == rank - 1
    for alpha, beta in frame.relations:
        np.testing.assert_allclose(np.einsum("j,jab->ab", alpha, coords),
                                   beta * np.eye(n), atol=1e-9)
    both = np.array([np.append(alpha, beta)
                     for alpha, beta in list(frame.relations) + ref])
    assert np.linalg.matrix_rank(both, tol=1e-8) == d + 1 - rank
    # the kept coordinates are independent, so the Choi program passes the
    # rank check of solve_feasibility
    evals = _choi_program(coords, coords[:, :1, :1], frame).gram_eigh[0]
    assert evals[0] > sdp.RANK_TOL * evals[-1]


def test_one_relation_is_the_one_the_iterative_loop_finds(rng):
    # one relation leaves no choice of basis: up to sign the same relation,
    # and the same coordinate dropped
    mats = [rand_herm(3, rng) for _ in range(3)]
    coords = np.stack(mats + [0.5 * mats[0] - 0.3 * mats[2] + 0.2 * np.eye(3)])
    frame = build_frame(coords, True)
    kept, ((ref_alpha, ref_beta),) = _iterative_frame(coords)
    assert frame.kept == kept == (0, 1, 2)
    (alpha, beta), = frame.relations
    sign = np.sign(alpha @ ref_alpha)
    np.testing.assert_allclose(sign * alpha, ref_alpha, atol=1e-12)
    assert sign * beta == pytest.approx(ref_beta, abs=1e-12)


def _near_dependent_case(eps, side):
    """A random 6 x 6 range (a, b, c) with c = 0.5a - 0.3b + 0.2I + eps E,
    and a level-2 point: its compression for "in", and for "out" three
    times the compression of (a, b) with the exact relation for c."""
    rng = np.random.default_rng(3)
    a, b, e = (rand_herm(6, rng) for _ in range(3))
    e /= np.linalg.norm(e)
    v = rand_isometry(6, 2, rng)
    rng_t = MatrixTuple.from_mats([a, b, 0.5 * a - 0.3 * b + 0.2 * np.eye(6)
                                   + eps * e])
    if side == "in":
        return compress(rng_t, v), rng_t
    pa, pb = (3.0 * v.conj().T @ x @ v for x in (a, b))
    return MatrixTuple.from_mats([pa, pb, 0.5 * pa - 0.3 * pb
                                  + 0.2 * np.eye(2)]), rng_t


@pytest.mark.parametrize("eps, side", [(eps, side)
                                       for eps in (1e-9, 1e-7, 1e-6, 1e-5)
                                       for side in ("in", "out")])
def test_near_dependent_range_gets_a_verdict_or_a_matrange_error(eps, side):
    # relations are found at the bound at which solve_feasibility refuses
    # dependent rows, so a near relation never reaches the solver as one
    point, rng_t = _near_dependent_case(eps, side)
    try:
        v = membership(point, rng_t)
    except MatrangeError:
        return
    if v.is_in:
        validate_witness(v.witness, rng_t.mats, point.mats)
    elif v.is_out:
        assert side == "out"
        validate_separator(v.separator, rng_t, point)


# --- exposing pencils --------------------------------------------------------

def test_exposing_simplex_vertices():
    for idx, expected_dir in ((1, np.array([1.0, 0.0])),
                              (2, np.array([0.0, 1.0]))):
        pencil, eps = exposing_pencil(SIMPLEX_VERTS, idx)
        assert eps > 0.5
        touched = pencil.max_eig(SIMPLEX_VERTS[idx])
        assert abs(touched - 1.0) <= 1e-6


def test_exposing_origin_uses_negative_diagonal():
    pencil, eps = exposing_pencil(SIMPLEX_VERTS, 0)
    assert eps > 0.5
    g = np.array([pencil.coeffs[0][0, 0].real, pencil.coeffs[1][0, 0].real])
    assert g[0] < 0 and g[1] < 0  # supporting functional ~ -x - y


def test_exposing_wmax_corner_gap_and_tolerance():
    x = 0.99
    summands = [MatrixTuple.scalar_point([1.0, 1.0]), wmax_corner_tuple(x)]
    pencil, eps = exposing_pencil(summands, 0)
    assert eps == pytest.approx(1.0 - np.sqrt((1.0 + x) / 2.0), abs=1e-5)
    with pytest.raises(NoGapError):
        exposing_pencil(summands, 0, feas_tol=0.01)


def test_exposing_redundant_summand_nogap():
    summands = SIMPLEX_VERTS + [MatrixTuple.scalar_point([1 / 3, 1 / 3])]
    with pytest.raises(NoGapError):
        exposing_pencil(summands, 3)


def test_exposing_lone_summand():
    pencil, eps = exposing_pencil([PAULI], 0)
    assert eps == 1.0
    assert abs(pencil.max_eig(PAULI) - 1.0) <= 1e-8


# --- polytopes, wmin, wmax ---------------------------------------------------

def test_vertex_tuple_simplex():
    k = PolytopeBody(dim=2, vertices=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    t = vertex_tuple(k)
    assert t.n == 3 and t.d == 2
    assert np.allclose(np.diag(t.mats[0]).real, [0, 0, 1])


def test_polytope_round_trip():
    doc = SQUARE.to_dict()
    back = polytope_from_dict(doc)
    assert back == SQUARE


def test_wmin_commuting_diagonal_inside():
    x = MatrixTuple.from_mats([np.diag([0.5, -0.5]), np.diag([0.25, 0.5])])
    assert wmin_membership(x, SQUARE).is_in


def test_wmin_pauli_out_half_in():
    assert wmin_membership(PAULI, SQUARE).is_out
    half = MatrixTuple.from_mats([SZ / 2, SX / 2])
    v = wmin_membership(half, SQUARE)
    assert v.is_in
    validate_witness(v.witness, vertex_tuple(SQUARE).mats, half.mats)


def test_wmax_examples(rng):
    assert wmax_membership(PAULI, SQUARE).is_in
    v = wmax_membership(MatrixTuple.from_mats([2 * np.eye(1), np.zeros((1, 1))]),
                        SQUARE)
    assert v.is_out
    assert v.detail["violated_halfspace"]["a"] == [1.0, 0.0]
    for _ in range(20):
        diag = MatrixTuple.from_mats([np.diag(rng.uniform(-1, 1, size=3)),
                                      np.diag(rng.uniform(-1, 1, size=3))])
        assert wmax_membership(diag, SQUARE).is_in


def test_wmax_needs_halfspaces():
    k = PolytopeBody(dim=2, vertices=((0.0, 0.0),))
    with pytest.raises(DimensionError):
        wmax_membership(MatrixTuple.scalar_point([0.0, 0.0]), k)


def test_wmin_wmax_sandwich(rng):
    for _ in range(25):
        n = int(rng.integers(1, 3))
        x = MatrixTuple.from_mats([rand_herm(n, rng, 0.8) for _ in range(2)])
        if wmin_membership(x, SQUARE).is_in:
            assert membership(x, vertex_tuple(SQUARE)).is_in
            assert wmax_membership(x, SQUARE).is_in


# --- level-1 oracle ----------------------------------------------------------

def test_level1_oracle_agreement(rng):
    t = MatrixTuple.from_mats([rand_herm(3, rng), rand_herm(3, rng)])
    samples = level1_hull_samples(t, num_random=20_000, num_angles=240, seed=3)
    disagreements = 0
    for _ in range(40):
        pt = rng.uniform(-3, 3, size=2)
        oracle = planar_hull_verdict(samples, pt, band=1e-3)
        if oracle == "band":
            continue
        verdict = membership(MatrixTuple.scalar_point(pt), t)
        if verdict.status != oracle:
            disagreements += 1
    assert disagreements == 0
