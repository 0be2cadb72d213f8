import os
import subprocess
import sys

import numpy as np
import pytest

from matrange import convexity
from matrange.convexity import (
    PolytopeBody,
    exposing_pencil,
    membership,
    validate_separator,
    validate_witness,
    vertex_tuple,
)
from matrange.decomp import canonical_key
from matrange.errors import (
    NotEquivalentError,
    NotMinimalError,
)
from matrange.extreme import (
    CRUCIAL,
    REDUNDANT,
    REDUNDANT_ABSORBED,
    REDUNDANT_DUPLICATE,
    classify_crucial,
    is_fully_compressed,
    minimal_presentation,
    recover_unitary,
    wmin_minimal_tuple,
)
from matrange.matcore import MatrixTuple, compress, conjugate, direct_sum_all
from conftest import crucial_family, rand_herm, rand_unitary

SZ = np.diag([1.0 + 0j, -1.0])
SX = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI = MatrixTuple.from_mats([SZ, SX])

VERTS = [MatrixTuple.scalar_point(p) for p in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))]
BARY = MatrixTuple.scalar_point([1 / 3, 1 / 3])


def random_crucial_summands(rng, sizes, d=2, tries=60):
    """Pairwise inequivalent irreducible summands, each outside the hull of
    the others; rejection sampling."""
    for _ in range(tries):
        cands = [MatrixTuple.from_mats([rand_herm(n, rng) for _ in range(d)])
                 for n in sizes]
        if all(membership(cands[i],
                          direct_sum_all([c for j, c in enumerate(cands) if j != i])
                          ).is_out
               for i in range(len(cands))):
            return cands
    raise RuntimeError("could not sample a crucial family")


def test_classify_vertex_crucial():
    status, verdict = classify_crucial(1, VERTS)
    assert status == CRUCIAL
    assert verdict.is_out


def test_classify_barycenter_redundant():
    status, verdict = classify_crucial(3, VERTS + [BARY])
    assert status == REDUNDANT
    assert verdict.is_in
    # the witness is the explicit 1/3-weights decomposition over the vertices
    weights = np.diag(verdict.witness.choi).real
    assert np.allclose(sorted(weights), [1 / 3, 1 / 3, 1 / 3], atol=1e-6)


def test_classify_lone_summand():
    status, verdict = classify_crucial(0, [PAULI])
    assert status == CRUCIAL


def test_minimal_presentation_simplex():
    t = direct_sum_all(VERTS + [BARY])
    rep = minimal_presentation(t, seed=1)
    assert rep.verified
    assert rep.minimal.n == 3
    statuses = [s.status for s in rep.summands]
    assert statuses.count(CRUCIAL) == 3
    assert statuses.count(REDUNDANT_ABSORBED) == 1
    crucial_pts = sorted(tuple(np.round(s.summand.mats[:, 0, 0].real, 9))
                         for s in rep.summands if s.status == CRUCIAL)
    assert crucial_pts == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
    for s in rep.summands:
        if s.status == CRUCIAL:
            assert s.exposing_gap is not None and s.exposing_gap > 1e-6
        if s.status == REDUNDANT_ABSORBED:
            assert s.witness is not None


def test_minimal_presentation_multiplicity():
    t = direct_sum_all([PAULI, PAULI])
    rep = minimal_presentation(t, seed=2)
    statuses = [s.status for s in rep.summands]
    assert statuses == [CRUCIAL, REDUNDANT_DUPLICATE]
    assert rep.minimal.n == 2
    assert rep.verified


def test_minimal_presentation_idempotent():
    t = direct_sum_all(VERTS + [BARY])
    rep = minimal_presentation(t, seed=3)
    rep2 = minimal_presentation(rep.minimal, seed=4)
    assert rep2.is_trivial()
    assert [canonical_key(b) for b in rep2.crucial] == \
        [canonical_key(b) for b in rep.crucial]


def test_minimal_presentation_random_conjugated(rng):
    summands = random_crucial_summands(rng, [1, 2, 2])
    t = conjugate(direct_sum_all(summands), rand_unitary(5, rng))
    rep = minimal_presentation(t, seed=5)
    assert rep.verified
    assert len(rep.crucial) == 3
    assert rep.is_trivial()


def test_minimal_presentation_order_independent(rng):
    summands = random_crucial_summands(rng, [1, 2])
    extra = MatrixTuple.scalar_point(
        compress(direct_sum_all(summands),
                 rand_unitary(3, rng)[:, :1]).mats[:, 0, 0])
    arrangements = [
        summands + [extra],
        [extra] + summands,
        [summands[1], extra, summands[0]],
    ]
    keys = []
    for arr in arrangements:
        rep = minimal_presentation(direct_sum_all(arr), seed=6)
        keys.append(sorted(canonical_key(b) for b in rep.crucial))
    assert keys[0] == keys[1] == keys[2]


def test_verified_witnesses_revalidate():
    t = direct_sum_all(VERTS + [BARY])
    rep = minimal_presentation(t, seed=7)
    assert rep.verified
    input_in_minimal, minimal_in_input = rep.inclusion_witnesses
    validate_witness(input_in_minimal, rep.minimal.mats, t.mats)
    validate_witness(minimal_in_input, t.mats, rep.minimal.mats)


@pytest.fixture
def solves(monkeypatch):
    """Counts the Choi feasibility solves run while the test body runs."""
    count = [0]
    solve = convexity.solve_feasibility

    def counted(*args, **kwargs):
        count[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(convexity, "solve_feasibility", counted)
    return count


def test_each_distinct_summand_is_classified_once(rng, solves):
    summands = crucial_family(rng, [1, 1, 1, 2, 2])
    duplicate = conjugate(summands[3], rand_unitary(2, rng))
    t = direct_sum_all(summands + [duplicate])
    t = conjugate(t, rand_unitary(t.n, rng))
    solves[0] = 0
    rep = minimal_presentation(t, seed=15)
    assert rep.verified
    assert len(rep.crucial) == 5
    assert solves[0] <= 5

    solves[0] = 0
    rep = minimal_presentation(direct_sum_all(VERTS + [BARY]), seed=16)
    assert rep.verified
    assert solves[0] <= 4


def test_two_summands_absorbed_in_one_call(solves):
    t = direct_sum_all(VERTS + [BARY, MatrixTuple.scalar_point((0.2, 0.1))])
    rep = minimal_presentation(t, seed=17)
    assert rep.verified
    crucial_pts = sorted(tuple(np.round(b.mats[:, 0, 0].real, 9))
                         for b in rep.crucial)
    assert crucial_pts == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
    assert [s.status for s in rep.removed] == [REDUNDANT_ABSORBED] * 2
    for s in rep.removed:
        validate_witness(s.witness, rep.minimal.mats, s.summand.mats)
    assert solves[0] <= 5


def test_edge_chain_composes_each_witness_onto_the_minimal_tuple(solves):
    # (0.25, 0.25) is absorbed over a set holding (0.5, 0) and (0.5, 0.5),
    # which are absorbed after it; each lies on an edge of the simplex
    t = direct_sum_all(VERTS + [MatrixTuple.scalar_point(p) for p in
                                ((0.5, 0.5), (0.25, 0.25), (0.5, 0.0))])
    rep = minimal_presentation(t, seed=3)
    assert rep.verified
    assert len(rep.crucial) == 3
    assert [s.status for s in rep.removed] == [REDUNDANT_ABSORBED] * 3
    for s in rep.removed:
        validate_witness(s.witness, rep.minimal.mats, s.summand.mats)
    assert solves[0] <= 6


def test_pauli_triple_and_its_transpose_are_both_kept_and_verified():
    # equal canonical keys, yet not unitarily equivalent: the transpose map
    # is not completely positive, so each lies outside the other's range
    sy = np.array([[0, -1j], [1j, 0]])
    triple = MatrixTuple.from_mats([SX, sy, SZ])
    transpose = MatrixTuple.from_mats([SX, -sy, SZ])
    assert canonical_key(triple) == canonical_key(transpose)
    rep = minimal_presentation(direct_sum_all([triple, transpose]), seed=21)
    assert [s.status for s in rep.summands] == [CRUCIAL, CRUCIAL]
    assert rep.verified


@pytest.mark.parametrize("far_point", [False, True])
def test_near_equivalent_pair_keeps_one_summand(far_point):
    """Each summand of the pair lies within feas_tol of the other's range,
    so both classify In; only one of them may be absorbed."""
    pair = [MatrixTuple.from_mats([SX, SZ]),
            MatrixTuple.from_mats([SX + 1e-7 * SZ, SZ])]
    extra = [MatrixTuple.scalar_point((5.0, 5.0))] if far_point else []
    rep = minimal_presentation(direct_sum_all(pair + extra), seed=18)
    assert rep.verified
    pair_statuses = sorted(s.status for s in rep.summands if s.summand.n == 2)
    assert pair_statuses == [CRUCIAL, REDUNDANT_ABSORBED]
    assert len(rep.crucial) == 1 + len(extra)


def test_near_equivalent_split_does_not_depend_on_blas_threads():
    # which iterate settles a verdict, and so its margin, turns on rounding;
    # the absorption order is canonical, so the summand kept must not
    script = (
        "import numpy as np\n"
        "from matrange.extreme import CRUCIAL, minimal_presentation\n"
        "from matrange.matcore import MatrixTuple, direct_sum_all\n"
        "sz = np.diag([1.0 + 0j, -1.0])\n"
        "sx = np.array([[0, 1], [1, 0]], dtype=complex)\n"
        "pair = [MatrixTuple.from_mats([sx, sz]),\n"
        "        MatrixTuple.from_mats([sx + 1e-7 * sz, sz])]\n"
        "rep = minimal_presentation(direct_sum_all(pair), seed=18)\n"
        "kept, = [s.summand for s in rep.summands if s.status == CRUCIAL]\n"
        "# tr(A_0 A_1) is 0 on the first summand and 2e-7 on the second\n"
        "print(round(1e7 * np.trace(kept.mats[0] @ kept.mats[1]).real))\n")
    kept = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        kept.append(proc.stdout.strip())
    assert kept[0] == kept[1] and kept[0] in ("0", "2")


def test_exposing_gaps_reuse_the_classification_separator(rng):
    summands = crucial_family(rng, [1, 2, 2])
    t = conjugate(direct_sum_all(summands), rand_unitary(5, rng))
    rep = minimal_presentation(t, seed=19)
    assert rep.is_trivial()
    for i, s in enumerate(rep.summands):
        assert s.exposing_gap == exposing_pencil(rep.crucial, i)[1]


def test_is_fully_compressed_cases(rng):
    ok, _ = is_fully_compressed(direct_sum_all(VERTS), seed=8)
    assert ok
    ok, _ = is_fully_compressed(direct_sum_all(VERTS + [BARY]), seed=8)
    assert not ok
    ok, _ = is_fully_compressed(direct_sum_all([PAULI, PAULI]), seed=8)
    assert not ok


def test_recover_unitary_identity():
    t = direct_sum_all(VERTS)
    w = recover_unitary(t, t, seed=9)
    assert w.residual <= 1e-10


def test_recover_unitary_round_trip(rng):
    summands = random_crucial_summands(rng, [1, 2, 3])
    t = direct_sum_all(summands)
    u = rand_unitary(t.n, rng)
    s = conjugate(t, u)
    w = recover_unitary(s, t, seed=10)
    assert w.residual <= 1e-8
    recon = conjugate(s, w.unitary)
    assert np.linalg.norm(recon.mats - t.mats) <= 1e-8 * max(1.0, t.scale())


def test_recover_unitary_classifies_the_first_tuple_only(rng, solves):
    # a tuple unitarily equivalent to a fully compressed one is fully
    # compressed, so once the summands match, t needs no solve of its own
    t = direct_sum_all(crucial_family(rng, [1, 2, 2]))
    s = conjugate(t, rand_unitary(t.n, rng))
    solves[0] = 0
    is_fully_compressed(s, seed=20)
    alone, solves[0] = solves[0], 0
    w = recover_unitary(s, t, seed=20)
    assert alone > 0 and solves[0] == alone
    assert w.residual <= 1e-8


def test_recover_unitary_rejects_nonminimal():
    with pytest.raises(NotMinimalError):
        recover_unitary(direct_sum_all([PAULI, PAULI]),
                        direct_sum_all([PAULI, PAULI]), seed=11)


def test_recover_unitary_different_ranges():
    simplex = direct_sum_all(VERTS)
    square = direct_sum_all([MatrixTuple.scalar_point(p)
                             for p in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0),
                                       (-1.0, -1.0))])
    with pytest.raises(NotEquivalentError) as exc:
        recover_unitary(simplex, square, seed=12)
    assert exc.value.separator is not None


def test_wmin_minimal_tuple_simplex():
    k = PolytopeBody(dim=2, vertices=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    t, verts = wmin_minimal_tuple(k)
    assert t.n == 3
    assert sorted(verts) == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
    ok, _ = is_fully_compressed(t, seed=13)
    assert ok


def test_wmin_minimal_tuple_drops_interior():
    k = PolytopeBody(dim=2, vertices=((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0),
                                      (-1.0, -1.0), (0.0, 0.0)))
    t, verts = wmin_minimal_tuple(k)
    assert t.n == 4
    assert verts == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]


def test_wmin_minimal_tuple_keeps_a_near_duplicate_vertex():
    # (1000, 0) lies on the edge from the origin to the vertex (1000.009, 0),
    # within a relative 1e-5 of it
    far = (1000.009, 0.0)
    k = PolytopeBody(dim=2, vertices=((0.0, 0.0), (1000.0, 0.0), far,
                                      (0.0, 1.0)))
    t, verts = wmin_minimal_tuple(k)
    assert verts == [(0.0, 0.0), (0.0, 1.0), far]
    assert membership(MatrixTuple.scalar_point(far), t).is_in


def test_wmin_minimal_tuple_returns_the_input_coordinates_of_a_duplicate():
    k = PolytopeBody(dim=2, vertices=((1.0, 0.0), (0.0, 0.0), (1.0, 0.0),
                                      (0.0, 1.0)))
    t, verts = wmin_minimal_tuple(k)
    assert verts == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
    assert np.array_equal(t.mats, vertex_tuple(PolytopeBody(
        dim=2, vertices=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))).mats)


def test_square_vertices_are_certified_crucial_and_its_centre_absorbed():
    k = PolytopeBody(dim=2, vertices=((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0),
                                      (-1.0, -1.0), (0.0, 0.0)))
    rep = minimal_presentation(vertex_tuple(k))
    assert rep.verified
    crucial = [s for s in rep.summands if s.status == CRUCIAL]
    assert len(crucial) == 4
    for s in crucial:
        others = direct_sum_all([o.summand for o in crucial if o is not s])
        validate_separator(s.separator, others, s.summand)
    (centre,) = rep.removed
    assert centre.status == REDUNDANT_ABSORBED
    assert np.allclose(centre.summand.mats, 0.0)
    validate_witness(centre.witness, rep.minimal.mats, centre.summand.mats)


def test_wmin_minimal_tuple_single_point():
    k = PolytopeBody(dim=2, vertices=((0.25, -0.5),))
    t, verts = wmin_minimal_tuple(k)
    assert t.n == 1
    assert verts == [(0.25, -0.5)]


def test_report_serialization():
    rep = minimal_presentation(direct_sum_all(VERTS + [BARY]), seed=14)
    doc = rep.to_dict()
    assert doc["verified"] is True
    assert len(doc["summands"]) == 4
    assert {s["status"] for s in doc["summands"]} == \
        {CRUCIAL, REDUNDANT_ABSORBED}
