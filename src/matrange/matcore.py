"""Dense complex-matrix kernel and the MatrixTuple data type.

A MatrixTuple is a d-tuple of n-by-n complex matrices.  It implicitly
represents its matrix range: the graded family of all images of the tuple
under unital completely positive maps into matrix algebras.  Everything in
this module is a pure function on immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, ParseError
from . import _jsonutil

HERM_TOL = 1e-8
ISO_TOL = 1e-8


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got shape {a.shape}")
    return a


def frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def is_hermitian(m: np.ndarray, tol: float = HERM_TOL) -> bool:
    m = _as_matrix(m)
    return frob(m - m.conj().T) <= tol * max(1.0, frob(m))


def is_isometry(v: np.ndarray, tol: float = ISO_TOL) -> bool:
    """V with cols <= rows and V*V = I within tol."""
    v = _as_matrix(v, "isometry")
    if v.shape[1] > v.shape[0]:
        return False
    g = v.conj().T @ v
    return frob(g - np.eye(v.shape[1])) <= tol * max(1.0, frob(g))


def is_unitary(u: np.ndarray, tol: float = ISO_TOL) -> bool:
    u = _as_matrix(u, "unitary")
    return u.shape[0] == u.shape[1] and is_isometry(u, tol)


@dataclass(frozen=True)
class MatrixTuple:
    """A d-tuple of n-by-n complex matrices, stored as a (d, n, n) array.

    The backing array is read-only; operations return new tuples.
    """

    mats: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.mats, dtype=complex)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise DimensionError(
                f"MatrixTuple needs a (d, n, n) array, got shape {a.shape}")
        if a.shape[0] == 0:
            raise DimensionError("MatrixTuple needs at least one coordinate")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "mats", a)

    @classmethod
    def from_mats(cls, mats: Iterable) -> "MatrixTuple":
        return cls(np.stack([_as_matrix(m) for m in mats]))

    @classmethod
    def scalar_point(cls, coords: Sequence[float]) -> "MatrixTuple":
        """A level-1 point: each coordinate is a 1x1 matrix."""
        return cls(np.asarray(coords, dtype=complex).reshape(-1, 1, 1))

    @property
    def d(self) -> int:
        return self.mats.shape[0]

    @property
    def n(self) -> int:
        return self.mats.shape[1]

    @cached_property
    def herm_form(self) -> np.ndarray:
        """The (2d, n, n) array of Hermitian coordinates, interleaved
        (Re A_1, Im A_1, ..., Re A_d, Im A_d)."""
        return herm_split(self).mats

    @cached_property
    def is_hermitian(self) -> bool:
        return all(is_hermitian(m) for m in self.mats)

    def scale(self) -> float:
        return max(1.0, max(frob(m) for m in self.mats))

    def __repr__(self):
        return f"MatrixTuple(d={self.d}, n={self.n})"


def herm_split(t: MatrixTuple) -> MatrixTuple:
    """Split into 2d Hermitian coordinates (Re A_1, Im A_1, ...).

    Re M = (M + M*)/2 and Im M = (M - M*)/(2i), so M = Re M + i Im M
    reconstructs exactly.
    """
    out = []
    for m in t.mats:
        re = (m + m.conj().T) / 2.0
        im = (m - m.conj().T) / 2.0j
        out.append(re)
        out.append(im)
    return MatrixTuple(np.stack(out))


def herm_join(t: MatrixTuple) -> MatrixTuple:
    """Inverse of herm_split: pair up (H_{2j-1}, H_{2j}) into H + iK."""
    if t.d % 2 != 0:
        raise DimensionError("herm_join needs an even number of coordinates")
    mats = [t.mats[2 * j] + 1j * t.mats[2 * j + 1] for j in range(t.d // 2)]
    return MatrixTuple(np.stack(mats))


def direct_sum(a: MatrixTuple, b: MatrixTuple) -> MatrixTuple:
    """Coordinate-wise block-diagonal tuple of size n_a + n_b."""
    if a.d != b.d:
        raise DimensionError(
            f"direct_sum needs matching coordinate counts, got {a.d} and {b.d}")
    n = a.n + b.n
    out = np.zeros((a.d, n, n), dtype=complex)
    out[:, : a.n, : a.n] = a.mats
    out[:, a.n :, a.n :] = b.mats
    return MatrixTuple(out)


def direct_sum_all(tuples: Sequence[MatrixTuple]) -> MatrixTuple:
    if not tuples:
        raise DimensionError("direct_sum_all needs at least one tuple")
    acc = tuples[0]
    for t in tuples[1:]:
        acc = direct_sum(acc, t)
    return acc


def compress(t: MatrixTuple, v: np.ndarray, iso_tol: float = ISO_TOL) -> MatrixTuple:
    """Compression (V* A_1 V, ..., V* A_d V) by an isometry V."""
    v = np.asarray(v, dtype=complex)
    if v.ndim == 1:
        v = v.reshape(-1, 1)
    v = _as_matrix(v, "isometry")
    if v.shape[0] != t.n:
        raise DimensionError(
            f"isometry has {v.shape[0]} rows but the tuple has side {t.n}")
    if not is_isometry(v, iso_tol):
        raise DimensionError("compress requires V*V = I within iso_tol")
    vh = v.conj().T
    return MatrixTuple(np.stack([vh @ m @ v for m in t.mats]))


def conjugate(t: MatrixTuple, u: np.ndarray, iso_tol: float = ISO_TOL) -> MatrixTuple:
    """Unitary conjugation (U* A_j U)_j."""
    u = _as_matrix(u, "unitary")
    if u.shape != (t.n, t.n):
        raise DimensionError(
            f"unitary has shape {u.shape} but the tuple has side {t.n}")
    if not is_unitary(u, iso_tol):
        raise DimensionError("conjugate requires a unitary within iso_tol")
    return compress(t, u, iso_tol)


# ---------------------------------------------------------------------------
# JSON tuple format, shared by every module:
#   {"d": 2, "n": 2, "mats": [[[[1,0],[0,0]],[[0,0],[-1,0]]], ...]}
# mats[j][r][c] = [re, im]; numbers carry 17 significant digits.
# ---------------------------------------------------------------------------

def tuple_to_dict(t: MatrixTuple) -> dict:
    return {"d": t.d, "n": t.n,
            "mats": [_jsonutil.complex_rows(m) for m in t.mats]}


def tuple_to_json(t: MatrixTuple) -> str:
    return _jsonutil.dumps(tuple_to_dict(t))


def tuple_from_dict(doc) -> MatrixTuple:
    if not isinstance(doc, dict):
        raise ParseError("tuple document must be a JSON object")
    for key in ("d", "n", "mats"):
        if key not in doc:
            raise ParseError(f"tuple document missing field '{key}'")
    d, n, mats = doc["d"], doc["n"], doc["mats"]
    if not isinstance(d, int) or not isinstance(n, int) or d < 1 or n < 1:
        raise ParseError("fields 'd' and 'n' must be positive integers")
    if not isinstance(mats, list) or len(mats) != d:
        raise DimensionError(f"'mats' must list exactly d={d} matrices")
    # one conversion when the entries are what the loop below accepts: lists
    # of shape (d, n, n, 2) holding int and float (bool is a type of its own)
    try:
        a = np.array(mats, dtype=float)
    except (TypeError, ValueError, OverflowError):
        a = None
    if a is not None and a.shape == (d, n, n, 2):
        rows = list(chain.from_iterable(mats))
        pairs = list(chain.from_iterable(rows))
        items = chain(mats, rows, pairs, chain.from_iterable(pairs))
        if set(map(type, items)) <= {list, int, float}:
            # the pairs viewed as complex keep their bits, as complex(re, im)
            return MatrixTuple(a.view(complex)[..., 0])
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
    return MatrixTuple(out)
