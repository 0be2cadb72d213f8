"""Acceptance criteria, one test per criterion, run at desk scale.

Every test prints one pass/fail line; run `pytest tests/test_acceptance.py
-v -s` to see them.  Tolerances are pinned here and nowhere else.
"""

import numpy as np
import pytest

from matrange.convexity import (
    MembershipVerdict,
    PolytopeBody,
    exposing_pencil,
    inclusion,
    membership,
    validate_separator,
    validate_witness,
    vertex_tuple,
    wmax_membership,
    wmin_membership,
)
from matrange.decomp import dedup, irreducible_decomposition
from matrange.errors import IndeterminateError, NoGapError
from matrange.extreme import (
    CRUCIAL,
    REDUNDANT,
    REDUNDANT_ABSORBED,
    classify_crucial,
    is_fully_compressed,
    minimal_presentation,
    recover_unitary,
)
from matrange.matcore import MatrixTuple, compress, conjugate, direct_sum_all
from conftest import (
    blockdiag_instance,
    crucial_family,
    level1_hull_samples,
    planar_hull_verdict,
    rand_herm,
    rand_unitary,
    square_halfspaces,
)

SZ = np.diag([1.0 + 0j, -1.0])
SX = np.array([[0, 1], [1, 0]], dtype=complex)
VERTS = [MatrixTuple.scalar_point(p) for p in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))]
BARY = MatrixTuple.scalar_point([1 / 3, 1 / 3])
SQUARE = PolytopeBody(dim=2,
                      vertices=((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)),
                      halfspaces=tuple(square_halfspaces(2)))
SQUARE_TUPLE = vertex_tuple(SQUARE)


def corner_family_tuple(x: float) -> MatrixTuple:
    s = np.sqrt(1.0 - x * x)
    return MatrixTuple.from_mats([SZ, np.array([[x, s], [s, -x]], dtype=complex)])


def report(num: int, name: str, passed: bool):
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if passed else 'FAIL'}")
    assert passed


def test_criterion_1_simplex_regression():
    """Minimize on the simplex vertices plus barycenter: exactly the three
    vertices crucial, the barycenter absorbed, verified, residuals <= 1e-6."""
    t = direct_sum_all(VERTS + [BARY])
    rep = minimal_presentation(t, seed=101)

    crucial_pts = sorted(tuple(np.round(s.summand.mats[:, 0, 0].real, 12))
                         for s in rep.summands if s.status == CRUCIAL)
    absorbed = [s for s in rep.summands if s.status == REDUNDANT_ABSORBED]

    ok = rep.verified
    ok &= crucial_pts == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
    ok &= len(absorbed) == 1
    ok &= np.allclose(absorbed[0].summand.mats[:, 0, 0].real, [1 / 3, 1 / 3])

    # certificate residuals at 1e-6
    w = absorbed[0].witness
    ok &= w.min_eig() >= -1e-6
    ok &= w.unitality_residual() <= 1e-6
    for j in range(2):
        ok &= np.linalg.norm(w.apply(rep.minimal.mats[j])
                             - absorbed[0].summand.mats[j]) <= 1e-6
    for s in rep.summands:
        if s.status == CRUCIAL:
            ok &= s.separator is not None
            ok &= s.separator.max_eig(s.summand) >= 1.0 + 1e-6
    win, wback = rep.inclusion_witnesses
    ok &= win.unitality_residual() <= 1e-6 and wback.unitality_residual() <= 1e-6
    report(1, "simplex regression", bool(ok))


def test_criterion_2_wmax_square_corner():
    """At x = cos(0.2): the midpoint compression of Y(x) lies in the range
    with an explicit isometry witness, while the corner (1,1) is separated."""
    alpha = 0.2
    x = float(np.cos(alpha))
    yx = corner_family_tuple(x)

    pt = MatrixTuple.scalar_point([np.cos(alpha / 2), np.cos(alpha / 2)])
    v = np.array([np.cos(alpha / 4), np.sin(alpha / 4)])
    compression_residual = float(np.linalg.norm(
        compress(yx, v).mats.ravel() - pt.mats.ravel()))

    verdict_in = membership(pt, yx)
    corner = MatrixTuple.scalar_point([1.0, 1.0])
    verdict_out = membership(corner, yx)

    ok = compression_residual <= 1e-8
    ok &= verdict_in.is_in
    ok &= verdict_out.is_out
    if verdict_out.is_out:
        on_range, at_point = validate_separator(verdict_out.separator, yx, corner)
        ok &= on_range <= 1.0 + 1e-6 and at_point > 1.0
    report(2, "wmax-square corner", bool(ok))


def test_criterion_3_uniqueness_round_trip():
    """50 random minimal tuples (3 inequivalent crucial summands, sizes <= 3)
    conjugated by random unitaries recover with residual <= 1e-8."""
    rng = np.random.default_rng(303)
    size_menu = ([1, 2, 3], [2, 2, 3], [1, 1, 2], [1, 2, 2], [3, 3, 1])
    successes = 0
    runs = 50
    for run in range(runs):
        family = crucial_family(rng, size_menu[run % len(size_menu)])
        t = direct_sum_all(family)
        u = rand_unitary(t.n, rng)
        s = conjugate(t, u)
        witness = recover_unitary(s, t, seed=run)
        if witness.residual <= 1e-8:
            successes += 1
    report(3, "uniqueness round trip", successes == runs)


def _direct_definition_fully_compressed(t: MatrixTuple, seed: int):
    """No single summand's removal preserves both inclusion SDPs."""
    dec = irreducible_decomposition(t, seed=seed)
    expanded = [blk for blk, mult in dec.blocks for _ in range(mult)]
    if len(expanded) == 1:
        return True
    for i in range(len(expanded)):
        rest = direct_sum_all([b for j, b in enumerate(expanded) if j != i])
        fwd = inclusion(t, rest)
        rev = inclusion(rest, t)
        if fwd.is_marginal or rev.is_marginal:
            return None
        if fwd.is_in and rev.is_in:
            return False
    return True


def test_criterion_4_block_diagonal_equivalence():
    """is_fully_compressed agrees with the direct removal test on 100
    random block-diagonal tuples, in every non-marginal case."""
    rng = np.random.default_rng(404)
    agreements = 0
    comparable = 0
    runs = 100
    for run in range(runs):
        t = blockdiag_instance(rng, run)
        try:
            flag, _ = is_fully_compressed(t, seed=run)
        except IndeterminateError:
            continue
        direct = _direct_definition_fully_compressed(t, seed=run)
        if direct is None:
            continue
        comparable += 1
        if direct == flag:
            agreements += 1
    report(4, "block-diagonal equivalence",
           comparable >= 90 and agreements == comparable)


def test_criterion_5_level1_oracle_agreement():
    """200 random level-1 membership queries against the brute-force
    numerical-range hull oracle: no disagreement outside a 1e-3 band."""
    rng = np.random.default_rng(505)
    disagreements = 0
    checked = 0
    for batch in range(10):
        n = 2 + batch % 3
        t = MatrixTuple.from_mats([rand_herm(n, rng) for _ in range(2)])
        samples = level1_hull_samples(t, num_random=100_000, num_angles=360,
                                      seed=batch)
        lo = samples.min(axis=0)
        hi = samples.max(axis=0)
        span = hi - lo
        for _ in range(20):
            pt = lo - 0.15 * span + rng.uniform(0, 1.3, size=2) * span
            oracle = planar_hull_verdict(samples, pt, band=1e-3)
            verdict = membership(MatrixTuple.scalar_point(pt), t)
            checked += 1
            if oracle == "band" or verdict.is_marginal:
                continue
            if verdict.status != oracle:
                disagreements += 1
    report(5, "level-1 oracle agreement",
           checked == 200 and disagreements == 0)


def test_criterion_6_certificate_soundness():
    """Every In witness and every Out separator collected from a sweep of
    representative queries re-validates by direct eigencomputation."""
    rng = np.random.default_rng(606)
    failures = 0
    validated = 0

    def check(verdict: MembershipVerdict, point, rng_t):
        nonlocal failures, validated
        if verdict.is_in and verdict.witness is not None:
            validated += 1
            try:
                coords_r = rng_t.mats if rng_t.is_hermitian else rng_t.herm_form
                coords_p = point.mats if point.is_hermitian else point.herm_form
                validate_witness(verdict.witness, coords_r, coords_p)
            except Exception:
                failures += 1
        elif verdict.is_out:
            validated += 1
            try:
                validate_separator(verdict.separator, rng_t, point)
            except Exception:
                failures += 1

    pauli = MatrixTuple.from_mats([SZ, SX])
    simplex = direct_sum_all(VERTS)
    yx = corner_family_tuple(float(np.cos(0.2)))
    fixed_cases = [
        (BARY, simplex),
        (MatrixTuple.scalar_point([1.0, 1.0]), simplex),
        (MatrixTuple.scalar_point([np.cos(0.1), np.cos(0.1)]), yx),
        (MatrixTuple.scalar_point([1.0, 1.0]), yx),
        (pauli, SQUARE_TUPLE),
        (MatrixTuple.from_mats([SZ / 2, SX / 2]), SQUARE_TUPLE),
    ]
    for point, rng_t in fixed_cases:
        check(membership(point, rng_t), point, rng_t)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        t = MatrixTuple.from_mats([rand_herm(n, rng) for _ in range(2)])
        if rng.uniform() < 0.5:
            g = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            point = compress(t, np.linalg.qr(g)[0])
        else:
            point = MatrixTuple.from_mats(
                [rand_herm(m, rng) + 3.0 * np.eye(m) for _ in range(2)])
        check(membership(point, t), point, t)

    report(6, "certificate soundness", validated >= 40 and failures == 0)


def test_criterion_7_exposing_gaps():
    """Across the suite-1..4 instances, crucial summands admit exposing
    pencils with gap above 1e-6 and redundant summands yield NoGap."""
    rng = np.random.default_rng(707)
    instances = [VERTS + [BARY]]
    instances.append([MatrixTuple.scalar_point([1.0, 1.0]),
                      corner_family_tuple(0.99)])
    for _ in range(3):
        instances.append(crucial_family(rng, [1, 2, 2]))
    for run in range(8):
        t = blockdiag_instance(rng, run)
        dec = irreducible_decomposition(t, seed=run)
        instances.append(dedup([blk for blk, _ in dec.blocks]))

    ok = True
    crucial_seen = 0
    redundant_seen = 0
    for summands in instances:
        for i in range(len(summands)):
            try:
                status, _ = classify_crucial(i, summands)
            except IndeterminateError:
                continue
            if status == CRUCIAL:
                crucial_seen += 1
                try:
                    _, eps = exposing_pencil(summands, i)
                    ok &= eps > 1e-6
                except NoGapError:
                    ok = False
            else:
                redundant_seen += 1
                try:
                    exposing_pencil(summands, i)
                    ok = False  # a redundant summand must not expose
                except NoGapError:
                    pass
    report(7, "exposing gaps", bool(ok and crucial_seen >= 10
                                    and redundant_seen >= 1))


def test_criterion_8_wmin_wmax_sandwich():
    """For the square: wmin-In implies membership in the 4-vertex tuple
    range implies wmax-In, over 100 random points, with zero violations."""
    rng = np.random.default_rng(808)
    violations = 0
    wmin_in = 0
    middle_in = 0
    for run in range(100):
        if run % 5 == 0:
            x = MatrixTuple.scalar_point(rng.uniform(-1.4, 1.4, size=2))
        else:
            n = int(rng.integers(1, 3))
            scale = float(rng.uniform(0.2, 1.2))
            x = MatrixTuple.from_mats([rand_herm(n, rng, scale) for _ in range(2)])
        v1 = wmin_membership(x, SQUARE)
        v2 = membership(x, SQUARE_TUPLE)
        v3 = wmax_membership(x, SQUARE)
        if v1.is_in:
            wmin_in += 1
            if not v2.is_in:
                violations += 1
        if v2.is_in:
            middle_in += 1
            if not v3.is_in:
                violations += 1
    report(8, "wmin/wmax sandwich",
           violations == 0 and wmin_in >= 10 and middle_in >= wmin_in)
