import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matrange.errors import DimensionError, ParseError
from matrange.matcore import (
    MatrixTuple,
    compress,
    conjugate,
    direct_sum,
    direct_sum_all,
    herm_join,
    herm_split,
    tuple_from_dict,
    tuple_to_dict,
    tuple_to_json,
)
from conftest import rand_tuple, rand_unitary, rand_isometry

SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def test_herm_split_hermitian_input():
    t = MatrixTuple.from_mats([np.diag([1.0, 2.0])])
    s = herm_split(t)
    assert s.d == 2
    np.testing.assert_allclose(s.mats[0], np.diag([1.0, 2.0]))
    np.testing.assert_allclose(s.mats[1], np.zeros((2, 2)))


def test_herm_split_skew_input():
    t = MatrixTuple.from_mats([1j * np.eye(2)])
    s = herm_split(t)
    np.testing.assert_allclose(s.mats[0], np.zeros((2, 2)))
    np.testing.assert_allclose(s.mats[1], np.eye(2))


def test_herm_split_nilpotent_reconstructs():
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    t = MatrixTuple.from_mats([a])
    s = herm_split(t)
    np.testing.assert_allclose(s.mats[0], np.array([[0, 0.5], [0.5, 0]]))
    np.testing.assert_allclose(s.mats[1], np.array([[0, -0.5j], [0.5j, 0]]))
    back = herm_join(s)
    np.testing.assert_allclose(back.mats[0], a, atol=1e-15)


def test_herm_split_reconstruction_random(rng):
    for _ in range(20):
        t = rand_tuple(3, 4, rng)
        s = herm_split(t)
        back = herm_join(s)
        err = np.linalg.norm(back.mats - t.mats)
        assert err <= 1e-14 * np.linalg.norm(t.mats)


def test_direct_sum_scalars():
    t = direct_sum(MatrixTuple.scalar_point([1.0]), MatrixTuple.scalar_point([-1.0]))
    np.testing.assert_allclose(t.mats[0], np.diag([1.0, -1.0]))


def test_direct_sum_blocks():
    a = MatrixTuple.from_mats([SZ, SX])
    b = MatrixTuple.scalar_point([0.0, 0.0])
    t = direct_sum(a, b)
    assert t.n == 3
    np.testing.assert_allclose(t.mats[0], np.diag([1.0, -1.0, 0.0]))
    assert t.mats[1][0, 1] == 1 and t.mats[1][2, 2] == 0


def test_direct_sum_dim_mismatch():
    with pytest.raises(DimensionError):
        direct_sum(MatrixTuple.scalar_point([1.0]), MatrixTuple.scalar_point([1.0, 2.0]))


def test_direct_sum_associative(rng):
    a = rand_tuple(2, 2, rng)
    b = rand_tuple(2, 3, rng)
    c = rand_tuple(2, 1, rng)
    lhs = direct_sum(direct_sum(a, b), c)
    rhs = direct_sum(a, direct_sum(b, c))
    np.testing.assert_allclose(lhs.mats, rhs.mats)
    assert lhs.n == a.n + b.n + c.n


def test_compress_identity(rng):
    t = rand_tuple(2, 3, rng)
    out = compress(t, np.eye(3))
    np.testing.assert_allclose(out.mats, t.mats)


def test_compress_known_vector():
    t = MatrixTuple.from_mats([SZ, SX])
    th = np.pi / 8
    v = np.array([np.cos(th), np.sin(th)])
    out = compress(t, v)
    np.testing.assert_allclose(out.mats[0][0, 0], np.sqrt(2) / 2, atol=1e-14)
    np.testing.assert_allclose(out.mats[1][0, 0], np.sqrt(2) / 2, atol=1e-14)


def test_compress_composition(rng):
    for _ in range(10):
        t = rand_tuple(2, 5, rng)
        v = rand_isometry(5, 3, rng)
        w = rand_isometry(3, 2, rng)
        lhs = compress(compress(t, v), w)
        rhs = compress(t, v @ w)
        assert np.linalg.norm(lhs.mats - rhs.mats) <= 1e-12


def test_compress_rejects_non_isometry():
    t = MatrixTuple.from_mats([SZ])
    with pytest.raises(DimensionError):
        compress(t, np.array([[1.0], [1.0]]))
    with pytest.raises(DimensionError):
        compress(t, np.eye(3))


def test_conjugate_identity_and_permutation():
    t = MatrixTuple.from_mats([np.diag([1.0, -1.0])])
    np.testing.assert_allclose(conjugate(t, np.eye(2)).mats, t.mats)
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(conjugate(t, p).mats[0], np.diag([-1.0, 1.0]))


def test_conjugate_round_trip(rng):
    for _ in range(10):
        t = rand_tuple(3, 4, rng)
        u = rand_unitary(4, rng)
        back = conjugate(conjugate(t, u), u.conj().T)
        assert np.linalg.norm(back.mats - t.mats) <= 1e-12


def test_conjugate_preserves_spectra(rng):
    t = rand_tuple(2, 5, rng, hermitian=True)
    u = rand_unitary(5, rng)
    out = conjugate(t, u)
    for j in range(t.d):
        ev_in = np.linalg.eigvalsh(t.mats[j])
        ev_out = np.linalg.eigvalsh(out.mats[j])
        assert np.max(np.abs(ev_in - ev_out)) <= 1e-10


def test_conjugate_rejects_non_unitary():
    t = MatrixTuple.from_mats([SZ])
    with pytest.raises(DimensionError):
        conjugate(t, np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_json_round_trip_random(rng):
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        t = rand_tuple(d, n, rng, scale=float(rng.uniform(1e-8, 1e6)))
        doc = json.loads(tuple_to_json(t))
        back = tuple_from_dict(doc)
        assert np.array_equal(back.mats, t.mats)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_json_round_trip_entrywise(vals):
    m = np.array([[complex(vals[0], vals[1]), complex(vals[2], vals[3])],
                  [0.0, 1.0]])
    t = MatrixTuple.from_mats([m])
    back = tuple_from_dict(json.loads(tuple_to_json(t)))
    assert np.array_equal(back.mats, t.mats)


def test_tuple_from_dict_diagnostics():
    with pytest.raises(ParseError):
        tuple_from_dict({"d": 1, "n": 2})
    bad = tuple_to_dict(MatrixTuple.from_mats([SZ, SX]))
    bad["mats"][0] = [[[1.0, 0.0]]]
    with pytest.raises(DimensionError) as exc:
        tuple_from_dict(bad)
    assert "mats[0]" in str(exc.value)


def test_tuple_validation():
    with pytest.raises(DimensionError):
        MatrixTuple(np.zeros((2, 2, 3)))
    t = MatrixTuple.from_mats([SZ])
    with pytest.raises(ValueError):
        t.mats[0, 0, 0] = 5.0  # backing array is read-only


def test_direct_sum_all(rng):
    parts = [rand_tuple(2, k, rng) for k in (1, 2, 3)]
    t = direct_sum_all(parts)
    assert t.n == 6


def _per_entry(doc):
    """The per-entry decoding loop of tuple_from_dict, as the reference for
    its one-conversion path (header checks as in tuple_from_dict)."""
    d, n, mats = doc["d"], doc["n"], doc["mats"]
    if not isinstance(mats, list) or len(mats) != d:
        raise DimensionError(f"'mats' must list exactly d={d} matrices")
    out = np.zeros((d, n, n), dtype=complex)
    for j, rows in enumerate(mats):
        if not isinstance(rows, list) or len(rows) != n:
            raise DimensionError(f"mats[{j}] must have {n} rows")
        for r, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n:
                raise DimensionError(f"mats[{j}][{r}] must have {n} entries")
            for c, entry in enumerate(row):
                if (not isinstance(entry, list) or len(entry) != 2
                        or any(isinstance(x, bool) or not isinstance(x, (int, float))
                               for x in entry)):
                    raise ParseError(
                        f"mats[{j}][{r}][{c}] must be a [re, im] pair of numbers")
                out[j, r, c] = complex(entry[0], entry[1])
    return out


def _raised(f, doc):
    try:
        f(doc)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)
    raise AssertionError("no error raised")


def _pauli_doc():
    return json.loads(tuple_to_json(MatrixTuple.from_mats([SZ, SX])))


def _bad_docs():
    docs = {}
    for name, value in (("bool", True), ("string", "1.0"), ("none", None),
                        ("huge int", 10 ** 400), ("nested", [1.0])):
        doc = _pauli_doc()
        doc["mats"][1][1][0][1] = value
        docs[name] = doc
    doc = _pauli_doc()
    doc["mats"][0][1] = [[1.0, 0.0]]
    docs["ragged row"] = doc
    doc = _pauli_doc()
    doc["mats"][1] = doc["mats"][1][:1]
    docs["ragged matrix"] = doc
    doc = _pauli_doc()
    doc["mats"][0][0][1] = [0.0, 1.0, 2.0]
    docs["long pair"] = doc
    doc = _pauli_doc()
    doc["mats"][1][0] = tuple(doc["mats"][1][0])
    docs["tuple row"] = doc
    doc = _pauli_doc()
    doc["d"] = 3
    docs["wrong d"] = doc
    doc = _pauli_doc()
    doc["n"] = 3
    docs["wrong n"] = doc
    doc = _pauli_doc()
    doc["n"] = 1
    docs["smaller n"] = doc
    return docs


@pytest.mark.parametrize("name", sorted(_bad_docs()))
def test_decoder_raises_as_the_per_entry_loop(name):
    doc = _bad_docs()[name]
    assert _raised(tuple_from_dict, doc) == _raised(_per_entry, doc)


@pytest.mark.parametrize("doc", [
    {"d": 1, "n": 1, "mats": [[[[3, -4]]]]},
    {"d": 1, "n": 1, "mats": [[[[-0.0, 0.0]]]]},
    {"d": 2, "n": 2, "mats": [[[[0, -0.0], [2 ** 60 + 1, 5]],
                               [[-0.0, -0.0], [1e-320, -7]]],
                              [[[1, 0], [0.1, 0.2]], [[-1, 1e300], [2 ** 53 + 1, 0]]]]},
])
def test_decoder_is_bit_identical_to_the_per_entry_loop(doc):
    got = tuple_from_dict(doc).mats
    want = _per_entry(doc)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_decoder_is_bit_identical_on_random_documents(rng):
    for _ in range(50):
        d, n = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        t = rand_tuple(d, n, rng, scale=float(rng.uniform(1e-8, 1e6)))
        doc = json.loads(tuple_to_json(t))
        assert tuple_from_dict(doc).mats.tobytes() == _per_entry(doc).tobytes()
