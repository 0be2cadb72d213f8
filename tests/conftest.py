import numpy as np
import pytest
from scipy.spatial import ConvexHull

from matrange.matcore import MatrixTuple, compress, direct_sum_all


def rand_herm(n, rng, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (g + g.conj().T) / 2.0
    return scale * h


def rand_complex(n, rng, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def rand_unitary(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_isometry(n, m, rng):
    return rand_unitary(n, rng)[:, :m]


def rand_tuple(d, n, rng, hermitian=False, scale=1.0):
    if hermitian:
        return MatrixTuple.from_mats([rand_herm(n, rng, scale) for _ in range(d)])
    return MatrixTuple.from_mats([rand_complex(n, rng, scale) for _ in range(d)])


def level3_pair(seed, push=None):
    """(point, range): a random 14x14 Hermitian pair A of norm 1 and the
    level-3 In point V*(A (x) I_2)V; with `push`, that point's coordinate 0
    lifted `push` past lambda_max(A_0), which no UCP image reaches (Out)."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(2):
        h = rand_herm(14, rng)
        mats.append(h / np.linalg.norm(h, 2))
    big = MatrixTuple.from_mats([np.kron(h, np.eye(2)) for h in mats])
    point = compress(big, rand_isometry(28, 3, rng))
    if push is not None:
        lift = np.linalg.eigvalsh(mats[0])[-1] + push \
            - np.linalg.eigvalsh(point.mats[0])[0]
        point = MatrixTuple.from_mats([point.mats[0] + lift * np.eye(3),
                                       point.mats[1]])
    return point, MatrixTuple.from_mats(mats)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def crucial_family(rng, sizes, spread=2.5, tries=40):
    """Pairwise inequivalent irreducible Hermitian pairs, each confirmed
    outside the matrix range of the direct sum of the others.

    Summand centers are pushed apart so the membership oracle confirms
    cruciality on the first draw almost always; the confirmation itself is
    always run.
    """
    from matrange.convexity import membership

    k = len(sizes)
    for _ in range(tries):
        cands = []
        for i, n in enumerate(sizes):
            angle = 2 * np.pi * i / k + rng.uniform(-0.3, 0.3)
            center = spread * np.array([np.cos(angle), np.sin(angle)])
            mats = [rand_herm(n, rng, 0.8) + center[j] * np.eye(n)
                    for j in range(2)]
            cands.append(MatrixTuple.from_mats(mats))
        ok = True
        for i in range(k):
            others = direct_sum_all([c for j, c in enumerate(cands) if j != i])
            if not membership(cands[i], others).is_out:
                ok = False
                break
        if ok:
            return cands
    raise RuntimeError("could not sample a crucial family")


def blockdiag_instance(rng, case):
    """Random block-diagonal tuple for the fully-compressed comparison.

    Cycles through: plain families, a duplicated summand, an absorbable
    compression point, and a two-summand family.
    """
    kind = case % 4
    if kind == 0:
        sizes = [int(rng.integers(1, 4)) for _ in range(3)]
        parts = [MatrixTuple.from_mats([rand_herm(n, rng) for _ in range(2)])
                 for n in sizes]
    elif kind == 1:
        base_sizes = [int(rng.integers(1, 4)) for _ in range(2)]
        base = [MatrixTuple.from_mats([rand_herm(n, rng) for _ in range(2)])
                for n in base_sizes]
        parts = base + [base[int(rng.integers(0, 2))]]
    elif kind == 2:
        base = [MatrixTuple.from_mats([rand_herm(2, rng) for _ in range(2)])
                for _ in range(2)]
        big = direct_sum_all(base)
        m = int(rng.integers(1, 3))
        v = rng.standard_normal((big.n, m)) + 1j * rng.standard_normal((big.n, m))
        v = np.linalg.qr(v)[0]
        parts = base + [compress(big, v)]
    else:
        sizes = [int(rng.integers(1, 4)) for _ in range(2)]
        parts = [MatrixTuple.from_mats([rand_herm(n, rng) for _ in range(2)])
                 for n in sizes]
    order = rng.permutation(len(parts))
    return direct_sum_all([parts[i] for i in order])


def square_halfspaces(dim=2):
    """The halfspaces +-x_j <= 1 of the cube [-1, 1]^dim."""
    out = []
    for j in range(dim):
        for sign in (1.0, -1.0):
            a = [0.0] * dim
            a[j] = sign
            out.append((tuple(a), 1.0))
    return out


def level1_hull_samples(t, num_random=100_000, num_angles=360, seed=0):
    """Samples of the first level of a d=2 Hermitian tuple: quadratic forms
    v* H v over random unit vectors, enriched with extreme eigenvectors of
    directional combinations so the hull boundary is covered."""
    assert t.d == 2 and t.is_hermitian, "level-1 sampling expects a Hermitian pair"
    h1, h2 = t.mats[0], t.mats[1]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((num_random, t.n)) + 1j * rng.standard_normal(
        (num_random, t.n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    xs = np.einsum("ki,ij,kj->k", v.conj(), h1, v).real
    ys = np.einsum("ki,ij,kj->k", v.conj(), h2, v).real
    extra = []
    for theta in np.linspace(0, 2 * np.pi, num_angles, endpoint=False):
        m = np.cos(theta) * h1 + np.sin(theta) * h2
        _, vecs = np.linalg.eigh(m)
        for w in (vecs[:, 0], vecs[:, -1]):
            extra.append((float((w.conj() @ h1 @ w).real),
                          float((w.conj() @ h2 @ w).real)))
    return np.vstack([np.stack([xs, ys], axis=1), np.array(extra)])


def planar_hull_verdict(samples, point, band=1e-3):
    """Point-in-hull test over sampled level-1 points: "in", "out", or
    "band" when within the stated distance of the hull boundary."""
    hull = ConvexHull(samples)
    eqs = hull.equations  # rows a.x + b <= 0 inside
    vals = eqs[:, :2] @ np.asarray(point) + eqs[:, 2]
    worst = float(vals.max())
    if abs(worst) <= band:
        return "band"
    return "in" if worst < 0 else "out"
