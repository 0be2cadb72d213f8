import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matrange import decomp
from matrange.decomp import (
    canonical_key,
    commutant_basis,
    commutant_dim,
    dedup,
    irreducible_decomposition,
    is_irreducible,
    unitary_equivalent,
)
from matrange.errors import DegenerateSpectrumError, NonIrreducibleInputError
from matrange.matcore import MatrixTuple, conjugate, direct_sum, direct_sum_all, frob
from conftest import blockdiag_instance, rand_herm, rand_tuple, rand_unitary

SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI = MatrixTuple.from_mats([SZ, SX])


def test_commutant_diagonal_distinct():
    t = MatrixTuple.from_mats([np.diag([1.0, 2.0])])
    basis = commutant_basis(t)
    assert len(basis) == 2
    for b in basis:
        assert abs(b[0, 1]) < 1e-12 and abs(b[1, 0]) < 1e-12


def test_commutant_pauli_pair_trivial():
    basis = commutant_basis(PAULI)
    assert len(basis) == 1
    b = basis[0]
    np.testing.assert_allclose(np.abs(b), np.abs(b[0, 0]) * np.eye(2), atol=1e-10)


def test_commutant_doubled_pauli():
    t = direct_sum(PAULI, PAULI)
    assert len(commutant_basis(t)) == 4


def test_commutant_contains_identity(rng):
    t = rand_tuple(2, 4, rng)
    basis = commutant_basis(t)
    stacked = np.stack([b.reshape(-1) for b in basis])
    iden = np.eye(4, dtype=complex).reshape(-1)
    proj = stacked.conj() @ iden
    recon = proj @ stacked
    assert np.linalg.norm(recon - iden) < 1e-8


def test_decompose_pauli_single_block():
    dec = irreducible_decomposition(PAULI, seed=1)
    assert len(dec.blocks) == 1
    assert dec.blocks[0][1] == 1
    assert dec.reassembly_residual() <= 1e-8


def test_decompose_simplex_vertices():
    t = MatrixTuple.from_mats([np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])])
    dec = irreducible_decomposition(t, seed=2)
    assert len(dec.blocks) == 3
    pts = sorted((complex(b.mats[0][0, 0]).real, complex(b.mats[1][0, 0]).real)
                 for b, _ in dec.blocks)
    assert pts == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
    assert all(m == 1 for _, m in dec.blocks)


def test_decompose_doubled_pauli_multiplicity():
    t = direct_sum(PAULI, PAULI)
    dec = irreducible_decomposition(t, seed=3)
    assert len(dec.blocks) == 1
    assert dec.blocks[0][1] == 2
    assert dec.reassembly_residual() <= 1e-8 * max(1.0, np.linalg.norm(t.mats))


def test_decompose_conjugated_mixture(rng):
    blocks = [PAULI, MatrixTuple.scalar_point([0.5, -0.25]), PAULI]
    t = direct_sum_all(blocks)
    u = rand_unitary(t.n, rng)
    dec = irreducible_decomposition(conjugate(t, u), seed=4)
    sizes = sorted((b.n, m) for b, m in dec.blocks)
    assert sizes == [(1, 1), (2, 2)]
    assert dec.reassembly_residual() <= 1e-7 * max(1.0, np.linalg.norm(t.mats))
    assert dec.total_size() == t.n


def test_decomposition_deterministic(rng):
    t = conjugate(direct_sum(PAULI, MatrixTuple.scalar_point([1.0, 0.0])),
                  rand_unitary(3, rng))
    d1 = irreducible_decomposition(t, seed=7)
    d2 = irreducible_decomposition(t, seed=7)
    np.testing.assert_array_equal(d1.unitary, d2.unitary)


def test_decomposition_idempotent_on_blocks(rng):
    t = rand_tuple(2, 3, rng, hermitian=True)
    dec = irreducible_decomposition(t, seed=5)
    for b, _ in dec.blocks:
        sub = irreducible_decomposition(b, seed=6)
        assert len(sub.blocks) == 1
        assert sub.blocks[0][1] == 1


def test_unitary_equivalent_self():
    u = unitary_equivalent(PAULI, PAULI)
    assert u is not None
    resid = max(np.linalg.norm(u.conj().T @ m @ u - m) for m in PAULI.mats)
    assert resid <= 1e-8


def test_unitary_equivalent_sign_flip():
    b = MatrixTuple.from_mats([SZ, -SX])
    u = unitary_equivalent(PAULI, b)
    assert u is not None
    # diag(1,-1) conjugation sends sigma_x to -sigma_x
    assert np.linalg.norm(u.conj().T @ SX @ u + SX) <= 1e-8


def test_unitary_equivalent_scalars():
    assert unitary_equivalent(MatrixTuple.scalar_point([1.0]),
                              MatrixTuple.scalar_point([0.0])) is None


def test_unitary_equivalent_symmetry(rng):
    for _ in range(5):
        a = rand_tuple(2, 3, rng)
        u = rand_unitary(3, rng)
        b = conjugate(a, u)
        w1 = unitary_equivalent(a, b)
        w2 = unitary_equivalent(b, a)
        assert w1 is not None and w2 is not None
        assert np.linalg.norm(w1.conj().T @ w1 - np.eye(3)) <= 1e-8
        c = rand_tuple(2, 3, rng)
        assert (unitary_equivalent(a, c) is None) == (unitary_equivalent(c, a) is None)


def test_unitary_equivalent_rejects_reducible():
    t = direct_sum(PAULI, PAULI)
    with pytest.raises(NonIrreducibleInputError):
        unitary_equivalent(t, t)


def test_dedup_basic(rng):
    u = rand_unitary(2, rng)
    out = dedup([PAULI, conjugate(PAULI, u)])
    assert len(out) == 1
    pts = [MatrixTuple.scalar_point([1.0, 0.0]), MatrixTuple.scalar_point([0.0, 1.0]),
           MatrixTuple.scalar_point([1.0, 0.0])]
    out = dedup(pts)
    assert len(out) == 2


def test_dedup_permutation_invariant(rng):
    items = [PAULI, MatrixTuple.scalar_point([0.0, 1.0]),
             conjugate(PAULI, rand_unitary(2, rng)),
             MatrixTuple.scalar_point([1.0, 0.0])]
    keys1 = sorted(canonical_key(t) for t in dedup(items))
    keys2 = sorted(canonical_key(t) for t in dedup(items[::-1]))
    assert keys1 == keys2


def test_block_size_accounting(rng):
    t = direct_sum_all([PAULI, PAULI, MatrixTuple.scalar_point([2.0, 0.0])])
    dec = irreducible_decomposition(conjugate(t, rand_unitary(5, rng)), seed=9)
    assert dec.total_size() == 5


def test_serialization_shape():
    dec = irreducible_decomposition(PAULI, seed=0)
    doc = dec.to_dict()
    assert set(doc) == {"unitary", "blocks"}
    assert doc["blocks"][0]["multiplicity"] == 1


def _criterion4_run37():
    """Run 37 of acceptance criterion 4: n=9, commutant dimension 5."""
    rng = np.random.default_rng(404)
    for run in range(37):
        blockdiag_instance(rng, run)
    return blockdiag_instance(rng, 37)


def _tol(t):
    return 1e-8 * max(1.0, np.linalg.norm(t.mats))


def test_decompose_criterion4_run37():
    t = _criterion4_run37()
    dec = irreducible_decomposition(t, seed=37)
    assert sorted(((b.n, m) for b, m in dec.blocks), reverse=True) == [(3, 2), (3, 1)]
    assert dec.reassembly_residual() <= _tol(t)


def test_decompose_four_pairs_with_duplicate():
    rng = np.random.default_rng(0)
    parts = [MatrixTuple.from_mats([rand_herm(3, rng) for _ in range(2)])
             for _ in range(4)]
    t = direct_sum_all(parts + [parts[0]])
    dec = irreducible_decomposition(t, seed=0)
    assert len(dec.blocks) == 4
    assert all(b.n == 3 for b, _ in dec.blocks)
    assert sorted(m for _, m in dec.blocks) == [1, 1, 1, 2]
    assert dec.reassembly_residual() <= _tol(t)


def test_hermitian_commutant_basis_exact_dimension():
    t = _criterion4_run37()
    herm = commutant_basis(t)
    assert len(herm) == commutant_dim(t) == 5
    gram = np.array([[np.real(np.vdot(a, b)) for b in herm] for a in herm])
    np.testing.assert_allclose(gram, np.eye(len(herm)), atol=1e-10)
    for h in herm:
        assert np.linalg.norm(h - h.conj().T) <= 1e-12
        for m in t.mats:
            assert np.linalg.norm(h @ m - m @ h) <= _tol(t)
            assert np.linalg.norm(h @ m.conj().T - m.conj().T @ h) <= _tol(t)


def _corrupt(dec):
    return dataclasses.replace(dec, unitary=np.roll(dec.unitary, 1, axis=1))


def test_decomposition_retries_when_reassembly_fails(monkeypatch, rng):
    t = conjugate(direct_sum(PAULI, MatrixTuple.scalar_point([1.0, 0.0])),
                  rand_unitary(3, rng))
    real_once = decomp._decompose_once
    calls = []

    def first_attempt_wrong(*args):
        dec = real_once(*args)
        calls.append(dec)
        return _corrupt(dec) if len(calls) == 1 else dec

    monkeypatch.setattr(decomp, "_decompose_once", first_attempt_wrong)
    dec = irreducible_decomposition(t, seed=7)
    assert len(calls) == 2
    assert dec is calls[1]
    assert dec.reassembly_residual() <= _tol(t)


def test_decomposition_raises_when_retry_fails(monkeypatch, rng):
    t = conjugate(direct_sum(PAULI, MatrixTuple.scalar_point([1.0, 0.0])),
                  rand_unitary(3, rng))
    real_once = decomp._decompose_once
    monkeypatch.setattr(decomp, "_decompose_once",
                        lambda *args: _corrupt(real_once(*args)))
    with pytest.raises(DegenerateSpectrumError):
        irreducible_decomposition(t, seed=7)


def test_decompose_near_equivalent_pair_keeps_summands_apart():
    # equivalent within equiv_tol, but one class of multiplicity 2 would
    # miss the reassembly bound about fivefold
    a = MatrixTuple.from_mats([SX, SZ])
    b = MatrixTuple.from_mats([SX + 1e-7 * np.diag([1.0, -1.0]), SZ])
    t = direct_sum(a, b)
    dec = irreducible_decomposition(t)
    assert [(blk.n, m) for blk, m in dec.blocks] == [(2, 1), (2, 1)]
    assert dec.marginal_pairs == ((0, 1),)
    assert dec.reassembly_residual() <= _tol(t)


def _coupled_pauli_point(eps):
    """A Pauli pair and a point joined by eps in the first coordinate."""
    mats = np.array(direct_sum(PAULI, MatrixTuple.scalar_point([2.0, 0.5])).mats)
    mats[0, 0, 2] = mats[0, 2, 0] = eps
    return MatrixTuple(mats)


def test_caller_decomp_tol_decides_reducibility():
    # a Pauli pair and a point coupled by 1e-6: irreducible at the default
    # decomp_tol, a direct sum of the two within 1e-4
    t = _coupled_pauli_point(1e-6)
    assert [(b.n, m) for b, m in irreducible_decomposition(t).blocks] == [(3, 1)]
    dec = irreducible_decomposition(t, decomp_tol=1e-4)
    assert sorted((b.n, m) for b, m in dec.blocks) == [(1, 1), (2, 1)]
    assert dec.reassembly_residual() <= 1e-4 * max(1.0, np.linalg.norm(t.mats))


def test_equivalence_check_uses_the_caller_decomp_tol(rng):
    # a Pauli pair and a point coupled by 2e-8 is irreducible at
    # decomp_tol=2e-9 and reducible at the default 1e-8; two conjugate
    # copies group into one class when the equivalence check runs at the
    # caller's tolerance (at the default it raised NonIrreducibleInputError)
    blk = _coupled_pauli_point(2e-8)
    assert not is_irreducible(blk) and is_irreducible(blk, 2e-9)
    t = direct_sum(blk, conjugate(blk, rand_unitary(3, rng)))
    dec = irreducible_decomposition(t, decomp_tol=2e-9)
    assert [(b.n, m) for b, m in dec.blocks] == [(3, 2)]
    assert dec.reassembly_residual() <= 2e-9 * max(1.0, np.linalg.norm(t.mats))


@settings(derandomize=True, max_examples=12, deadline=None)
@given(planted=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)),
                        min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_decompose_recovers_planted_blocks(planted, seed):
    # random Hermitian pairs, each repeated by its multiplicity, summed and
    # conjugated by a random unitary
    rng = np.random.default_rng(seed)
    blocks = [MatrixTuple.from_mats([rand_herm(n, rng) for _ in range(2)])
              for n, _ in planted]
    parts = [b for b, (_, mult) in zip(blocks, planted) for _ in range(mult)]
    summed = direct_sum_all(parts)
    t = conjugate(summed, rand_unitary(summed.n, rng))
    dec = irreducible_decomposition(t)
    assert sorted((b.n, mult) for b, mult in dec.blocks) == sorted(planted)
    assert dec.reassembly_residual() <= decomp.DECOMP_TOL * max(1.0, frob(t.mats))


def test_classes_come_out_in_canonical_order_and_slots_address_them(rng):
    # a planted decomposition, its summands shuffled before the sum is
    # conjugated: minimal_presentation walks the classes in listed order
    # and relies on that order being canonical
    planted = [(1, 2), (2, 1), (1, 1), (3, 1), (2, 2)]
    blocks = [MatrixTuple.from_mats([rand_herm(n, rng) for _ in range(2)])
              for n, _ in planted]
    parts = [b for b, (_, mult) in zip(blocks, planted) for _ in range(mult)]
    summed = direct_sum_all([parts[i] for i in rng.permutation(len(parts))])
    t = conjugate(summed, rand_unitary(summed.n, rng))
    dec = irreducible_decomposition(t, seed=3)
    keys = [canonical_key(blk) for blk, _ in dec.blocks]
    assert len(keys) == len(planted) and keys == sorted(keys)
    slots = list(dec.slots())
    assert [c for c, _ in slots] == [c for c, (_, m) in enumerate(dec.blocks)
                                     for _ in range(m)]
    for c, w in slots:
        np.testing.assert_allclose(w.conj().T @ t.mats @ w,
                                   dec.blocks[c][0].mats, atol=_tol(t))


def test_dense_commutant_runs_only_on_leaves(monkeypatch):
    rng = np.random.default_rng(24)
    planted = [3, 2, 1, 1, 1]
    blocks = [MatrixTuple.from_mats([rand_herm(3, rng) for _ in range(2)])
              for _ in planted]
    summed = direct_sum_all([b for b, m in zip(blocks, planted) for _ in range(m)])
    t = conjugate(summed, rand_unitary(summed.n, rng))
    sides = []
    real_basis = decomp.commutant_basis

    def recorded(a, *args):
        sides.append(a.n)
        return real_basis(a, *args)

    monkeypatch.setattr(decomp, "commutant_basis", recorded)
    dec = irreducible_decomposition(t)
    assert t.n == 24 and sides and max(sides) <= 3
    assert sorted(m for _, m in dec.blocks) == sorted(planted)
    for blk, m in dec.blocks:
        assert any(unitary_equivalent(blk, b) is not None
                   for b, pm in zip(blocks, planted) if pm == m)
    assert dec.reassembly_residual() <= _tol(t)


@pytest.mark.parametrize("seed", range(6))
def test_dense_confirm_splits_a_near_commutant_off_the_eigenspaces(seed):
    # reducible at decomp_tol=1e-8 for the dense system, while the
    # eigenspace system finds only the identity: the near-commutant is not
    # aligned with the eigenspaces, so the dense confirm step must split it
    blk = _coupled_pauli_point(2e-8)
    assert not is_irreducible(blk)
    t = conjugate(blk, rand_unitary(3, np.random.default_rng(seed)))
    dec = irreducible_decomposition(t, seed=seed)
    assert sorted((b.n, m) for b, m in dec.blocks) == [(1, 1), (2, 1)]
    assert dec.reassembly_residual() <= _tol(t)


@settings(derandomize=True, max_examples=16, deadline=None)
@given(planted=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)),
                        min_size=1, max_size=3),
       coupling=st.sampled_from([0.0, 1e-10, 1e-8, 1e-6]),
       seed=st.integers(0, 2**32 - 1))
def test_eigenspace_commutant_is_within_the_dense_one(planted, coupling, seed):
    rng = np.random.default_rng(seed)
    blocks = [MatrixTuple.from_mats([rand_herm(n, rng) for _ in range(2)])
              for n, _ in planted]
    parts = [b for b, (_, mult) in zip(blocks, planted) for _ in range(mult)]
    mats = np.array(direct_sum_all(parts).mats)
    # couple the first and last basis vectors, across blocks when there are two
    mats[0, 0, -1] += coupling
    mats[0, -1, 0] += coupling
    t = conjugate(MatrixTuple(mats), rand_unitary(mats.shape[1], rng))
    basis = decomp._eigenspace_commutant(t, rng, decomp.DECOMP_TOL)
    assert 1 <= len(basis) <= commutant_dim(t)
    dense_scale = max(1.0, np.linalg.norm(decomp._commutant_system(t, t), 2))
    coords = list(t.mats) + [m.conj().T for m in t.mats]
    for x in basis:
        assert abs(frob(x) - 1.0) <= 1e-12
        resid = np.sqrt(sum(frob(x @ m - m @ x) ** 2 for m in coords))
        assert resid <= decomp.DECOMP_TOL * dense_scale


@pytest.mark.parametrize("seed", range(8))
def test_tight_decomp_tol_refuses_or_answers_correctly(seed):
    # two conjugate copies of a block that is irreducible at 1e-12 only by
    # a 1e-10 coupling: the answer may be refused, never wrong
    blk = _coupled_pauli_point(1e-10)
    rng = np.random.default_rng(seed)
    t = direct_sum(blk, conjugate(blk, rand_unitary(3, rng)))
    try:
        dec = irreducible_decomposition(t, seed=seed, decomp_tol=1e-12)
    except DegenerateSpectrumError:
        return
    assert dec.reassembly_residual() <= 1e-12 * max(1.0, frob(t.mats))
    assert all(is_irreducible(b, 1e-12) for b, _ in dec.blocks)


def _kron_commutant_system(a, b):
    """The commutant system as Kronecker products, column-major vec."""
    ia, ib = np.eye(a.n), np.eye(b.n)
    rows = []
    for am, bm in zip(a.mats, b.mats):
        rows.append(np.kron(bm.T, ia) - np.kron(ib, am))
        rows.append(np.kron(bm.conj(), ia) - np.kron(ib, am.conj().T))
    return np.vstack(rows)


@pytest.mark.parametrize("na, nb, d", [(1, 1, 2), (3, 3, 2), (4, 2, 3), (2, 5, 1)])
def test_commutant_system_matches_the_kron_reference(na, nb, d, rng):
    a, b = rand_tuple(d, na, rng), rand_tuple(d, nb, rng)
    dense = decomp._commutant_system(a, b)
    assert np.array_equal(dense, _kron_commutant_system(a, b))


def _support_of(labels):
    """The unknowns on the diagonal blocks of equal label, as
    _eigenspace_commutant keeps them."""
    labels = np.asarray(labels)
    p, q = decomp._full_support(len(labels))
    keep = labels[p] == labels[q]
    return p[keep], q[keep]


def _non_hermitian_8x8(rng):
    """One non-Hermitian 8x8 matrix, as in the Hermitian-split path of
    membership: a reducible 3+3+2 direct sum with a repeated block,
    conjugated by a random unitary."""
    blk = rand_tuple(1, 3, rng)
    t = direct_sum_all([blk, blk, rand_tuple(1, 2, rng)])
    return conjugate(t, rand_unitary(8, rng))


@pytest.mark.parametrize("kind", ["hermitian", "complex", "non-hermitian 8x8"])
@pytest.mark.parametrize("labels", [None, [0, 0, 1, 1, 1, 2, 3, 3], [0, 1, 2, 3, 4, 5, 6, 7],
                                    [0, 0, 0, 0, 1, 1, 1, 1]])
def test_hermitian_system_has_the_complex_singular_values(kind, labels, rng):
    if kind == "non-hermitian 8x8":
        t = _non_hermitian_8x8(rng)
    else:
        t = rand_tuple(2, 8, rng, hermitian=kind == "hermitian")
    if labels is None:
        support, cols = decomp._full_support(8), slice(None)
    else:
        support = _support_of(labels)
        cols = support[0] + 8 * support[1]  # column-major vec of X[P, Q]
    real = decomp._hermitian_system(t.mats, support)
    assert real.dtype == float and real.shape == (2 * t.d * 64, len(support[0]))
    sr = np.linalg.svd(real, compute_uv=False)
    sc = np.linalg.svd(decomp._commutant_system(t, t)[:, cols], compute_uv=False)
    assert np.max(np.abs(sr - sc)) <= 1e-12 * sc[0]


@pytest.mark.parametrize("seed", range(4))
def test_commutant_basis_is_hermitian_with_the_complex_dimension(seed):
    # inequivalent non-Hermitian blocks of sizes (2, 1, 3) with
    # multiplicities (2, 1, 1), and of sizes (3, 2) with multiplicities
    # (1, 2): the commutant has dimension 4 + 1 + 1 and 1 + 4
    rng = np.random.default_rng(seed)
    for planted in ([(2, 2), (1, 1), (3, 1)], [(3, 1), (2, 2)]):
        blocks = [rand_tuple(2, n, rng) for n, _ in planted]
        parts = [b for b, (_, m) in zip(blocks, planted) for _ in range(m)]
        summed = direct_sum_all(parts)
        t = conjugate(summed, rand_unitary(summed.n, rng))
        s = np.linalg.svd(decomp._commutant_system(t, t), compute_uv=False)
        null_dim = int(np.sum(s <= decomp.DECOMP_TOL * max(1.0, s[0])))
        basis = commutant_basis(t)
        assert len(basis) == null_dim == sum(m * m for _, m in planted)
        gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
        np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-12)
        for h in basis:
            assert np.array_equal(h, h.conj().T)
            for m in t.mats:
                assert np.linalg.norm(h @ m - m @ h) <= _tol(t)
                assert np.linalg.norm(h @ m.conj().T - m.conj().T @ h) <= _tol(t)
