"""Seeded workload inputs whose expected answers are certified by construction.

Uses numpy only; nothing here calls matrange.  `generate(workload, seed,
out_dir)` writes one JSON tuple file per program input and returns the
manifest: the ordered operations of one round, each with its command, its
input files and what the independent checks expect of its report.

Certificates by construction:
- crucial summands sit around a circle; the level-1 functional
  phi_k(X) = cos(theta_k) X_1 + sin(theta_k) X_2 peaks on summand k above
  every other summand by a gap computed here (and asserted positive);
- duplicates are crucial summands conjugated by a random unitary;
- In points are UCP images V*(A (x) I_r)V of the range tuple A;
- Out points have a coordinate eigenvalue above lambda_max of the range's
  matching coordinate by a stated gap, so that coordinate separates them;
- decomposition inputs are direct sums of planted irreducible blocks with
  planted multiplicities, conjugated by a random unitary.
"""

from __future__ import annotations

import json
import os

import numpy as np

WORKLOADS = ("minimize", "member", "decompose")

# The summand families of `minimize` and the ranges and points of `member`
# are drawn from this fixed seed; the workload seed draws the unitaries
# that conjugate them, the order of summands and the decomposition blocks.
# Every seed so poses the same problems in another basis.
BASE_SEED = 20201

# pencil margins the checks demand, as a share of the constructed gap
# measured in units of the separating coordinate's width
PENCIL_MARGIN_SHARE = 0.1


def _herm(rng, k, traceless=False):
    g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    h = (g + g.conj().T) / 2.0
    if traceless:
        h = h - np.trace(h).real / k * np.eye(k)
    nrm = np.linalg.norm(h, 2)
    return h / nrm if nrm > 0 else h


def _unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _conj(mats, u):
    return np.stack([u.conj().T @ m @ u for m in mats])


def _direct_sum(parts):
    d = parts[0].shape[0]
    n = sum(p.shape[1] for p in parts)
    out = np.zeros((d, n, n), dtype=complex)
    pos = 0
    for p in parts:
        k = p.shape[1]
        out[:, pos:pos + k, pos:pos + k] = p
        pos += k
    return out


def tuple_doc(mats) -> dict:
    """The matrange tuple file format: mats[j][r][c] = [re, im]."""
    mats = np.asarray(mats, dtype=complex)
    d, n, _ = mats.shape
    return {"d": d, "n": n,
            "mats": [[[[float(m[r, c].real), float(m[r, c].imag)]
                       for c in range(n)] for r in range(n)] for m in mats]}


class _Writer:
    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.count = 0

    def __call__(self, mats) -> str:
        name = f"t{self.count:03d}.json"
        self.count += 1
        with open(os.path.join(self.out_dir, name), "w") as fh:
            json.dump(tuple_doc(mats), fh)
        return name


# ---------------------------------------------------------------------------
# minimize: crucial summands and duplicates
# ---------------------------------------------------------------------------

def _crucial_family(rng, sizes):
    """Hermitian pairs centred on a circle, with the level-1 gap of each."""
    k = len(sizes)
    thetas = [2 * np.pi * i / k + rng.uniform(-0.15, 0.15) / k
              for i in range(k)]
    family = []
    for th, s in zip(thetas, sizes):
        c = 2.0 * np.array([np.cos(th), np.sin(th)])
        family.append(np.stack([c[j] * np.eye(s) + 0.5 * _herm(rng, s, True)
                                for j in range(2)]))
    gaps = []
    for i, th in enumerate(thetas):
        phi = [np.cos(th) * f[0] + np.sin(th) * f[1] for f in family]
        top = [np.linalg.eigvalsh(p)[-1] for p in phi]
        gap = top[i] - max(t for j, t in enumerate(top) if j != i)
        if gap <= 0.2:
            raise AssertionError("crucial family lost its level-1 gap")
        gaps.append(float(gap))
    return family, gaps


def _minimize_op(base, rng, write, sizes):
    """The crucial family plus a conjugated copy of its second summand."""
    crucial, gaps = _crucial_family(base, sizes)
    dups = [_conj(crucial[1], _unitary(rng, sizes[1]))]
    parts = crucial + dups
    order = rng.permutation(len(parts))
    t = _direct_sum([parts[i] for i in order])
    t = _conj(t, _unitary(rng, t.shape[1]))
    return {"command": "minimize", "args": {"tuple": write(t)},
            "expect": {"crucial": [tuple_doc(c) for c in crucial],
                       "level1_gaps": gaps,
                       "duplicates": len(dups),
                       "pencil_margin": PENCIL_MARGIN_SHARE * min(gaps) / 4.0}}


def _equiv_op(base, rng, write, sizes):
    crucial, _ = _crucial_family(base, sizes)
    perm = rng.permutation(len(sizes))
    left = _conj(_direct_sum(crucial), _unitary(rng, sum(sizes)))
    right = _direct_sum([_conj(crucial[i], _unitary(rng, sizes[i]))
                         for i in perm])
    right = _conj(right, _unitary(rng, sum(sizes)))
    return {"command": "equiv", "args": {"left": write(left),
                                         "right": write(right)},
            "expect": {}}


# One round: the reference operation, a 5-summand (1,1,1,2,2) minimize plus
# a duplicate, whose Choi solves ran the same number of IPM iterations on
# every one of 14 draws tried, and two small operations on 3-summand
# (1,1,2) families.  Each operation is a family of its own.
MINIMIZE_ROUND = (("minimize", [1, 1, 1, 2, 2], True),
                  ("minimize", [1, 1, 2], False),
                  ("equiv", [1, 1, 2], False))


def _minimize_round(base, rng, write):
    ops = []
    for command, sizes, reference in MINIMIZE_ROUND:
        make = _minimize_op if command == "minimize" else _equiv_op
        ops.append(dict(make(base, rng, write, sizes), reference=reference))
    return ops


# ---------------------------------------------------------------------------
# member: In points as UCP images, Out points past a coordinate's lambda_max
# ---------------------------------------------------------------------------

def _hermitian_parts(mats):
    return [(m + m.conj().T) / 2.0 for m in mats]


def _in_point(rng, a, m, r):
    big = np.stack([np.kron(x, np.eye(r)) for x in a])
    v = _unitary(rng, big.shape[1])[:, :m]
    return _conj(big, v)


def _out_point(rng, a, m, r):
    """An In point whose first coordinate's Hermitian part is pushed past
    lambda_max of the range's by a quarter of that coordinate's width.
    Returns the point and the required pencil margin."""
    b = np.array(_in_point(rng, a, m, r))
    ha = _hermitian_parts(a)[0]
    hb = _hermitian_parts(b)[0]
    ev_a = np.linalg.eigvalsh(ha)
    width = float(ev_a[-1] - ev_a[0])
    gap = 0.25 * width
    w, vecs = np.linalg.eigh(hb)
    top = vecs[:, -1]
    b[0] = b[0] + (ev_a[-1] + gap - w[-1]) * np.outer(top, top.conj())
    if np.linalg.eigvalsh(_hermitian_parts(b)[0])[-1] < ev_a[-1] + gap * 0.999:
        raise AssertionError("out point lost its coordinate gap")
    return b, PENCIL_MARGIN_SHARE * gap / width


def _member(write, rng_file, point, expect):
    return {"command": "member",
            "args": {"point": write(point), "range": rng_file},
            "expect": expect}


def _member_round(base, rng, write, ranges):
    """Ranges and points come from `base`; `rng` conjugates every file of
    every operation by its own unitary, which changes no verdict, gap or
    certificate, so each operation is a draw of its own."""
    def put(mats):
        return write(_conj(mats, _unitary(rng, mats.shape[1])))

    ops = []
    a14, a10, a8 = ranges["a14"], ranges["a10"], ranges["a8"]
    # reference operations: level-3 In and Out points of a 14x14 pair
    for _ in range(2):
        ops.append(_member(put, put(a14), _in_point(base, a14, 3, 2),
                           {"status": "in"}))
        b, margin = _out_point(base, a14, 3, 1)
        ops.append(_member(put, put(a14), b, {"status": "out",
                                              "pencil_margin": margin}))
    b, margin = _out_point(base, a10, 3, 1)
    ops.append({"command": "separate", "args": {"range": put(a10),
                                                "point": put(b)},
                "expect": {"status": "ok", "pencil_margin": margin}})
    ops.append({"command": "separate",
                "args": {"range": put(a10),
                         "point": put(_in_point(base, a10, 3, 2))},
                "expect": {"status": "not_separable"}})
    # reducible points: the point-split path
    split_in = _direct_sum([_in_point(base, a10, 2, 1),
                            _in_point(base, a10, 2, 2)])
    ops.append(_member(put, put(a10), split_in, {"status": "in"}))
    (o1, m1), (o2, m2) = (_out_point(base, a10, 2, 1),
                          _out_point(base, a10, 2, 2))
    ops.append(_member(put, put(a10), _direct_sum([o1, o2]),
                       {"status": "out", "pencil_margin": min(m1, m2)}))
    # one non-Hermitian coordinate: the Hermitian-split path
    ops.append(_member(put, put(a8), _in_point(base, a8, 2, 2),
                       {"status": "in"}))
    b, margin = _out_point(base, a8, 2, 1)
    ops.append(_member(put, put(a8), b, {"status": "out",
                                         "pencil_margin": margin}))

    # decided before any solve: a literal sub-block, a violated relation
    blk = _conj(np.stack([_herm(base, 3), _herm(base, 3)]), _unitary(rng, 3))
    rest = _conj(np.stack([_herm(base, 6), _herm(base, 6)]), _unitary(rng, 6))
    ops.append(_member(write, write(_direct_sum([blk, rest])), blk,
                       {"status": "in"}))
    a9 = [_herm(base, 9), _herm(base, 9)]
    rel = np.stack(a9 + [0.5 * a9[0] - 0.3 * a9[1] + 0.2 * np.eye(9)])
    p = np.array(_in_point(base, rel, 3, 1))
    p[2] = p[2] + 0.5 * np.diag([1.0, 0.0, 0.0])
    ops.append(_member(put, put(rel), p,
                       {"status": "out", "pencil_margin": 0.5}))
    for i, op in enumerate(ops):
        op["reference"] = i < 4
    return ops


def _member_ranges(base) -> dict:
    """The three ranges every member round draws its points around."""
    g8 = base.standard_normal((8, 8)) + 1j * base.standard_normal((8, 8))
    return {"a14": np.stack([_herm(base, 14), _herm(base, 14)]),
            "a10": np.stack([_herm(base, 10), _herm(base, 10)]),
            "a8": (g8 / np.linalg.norm(g8, 2))[None]}


# ---------------------------------------------------------------------------
# decompose: planted 3x3 blocks with multiplicities
# ---------------------------------------------------------------------------

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def near_equivalent_pair():
    """Pauli pair + the same pair with sigma_x moved by 1e-7 diag(1, -1).
    The two summands are inequivalent but closer than the equivalence
    tolerance; independent of the seed."""
    a = np.stack([PAULI_X, PAULI_Z])
    b = np.stack([PAULI_X + 1e-7 * np.diag([1.0, -1.0]), PAULI_Z])
    return a, b


def _decompose_op(rng, write, mults):
    blocks = [np.stack([_herm(rng, 3), _herm(rng, 3)]) for _ in mults]
    parts = [b for b, m in zip(blocks, mults) for _ in range(m)]
    order = rng.permutation(len(parts))
    t = _direct_sum([parts[i] for i in order])
    t = _conj(t, _unitary(rng, t.shape[1]))
    return {"command": "decompose", "args": {"tuple": write(t)},
            "expect": {"blocks": [[tuple_doc(b), m]
                                  for b, m in zip(blocks, mults)]}}


# (multiplicities, draws per round, reference): n = 15, 18, 21, 24, 30.
# The n=24 decompositions are the reference: in ten runs the time of one
# n=21 decomposition spread by 0.15 of its median and that of one n=24
# decomposition by 0.12.
DECOMPOSE_ROUND = (([2, 1, 1, 1], 1, False), ([2, 1, 1, 1, 1], 1, False),
                   ([2, 2, 1, 1, 1], 1, False), ([3, 2, 1, 1, 1], 3, True),
                   ([3, 2, 2, 1, 1, 1], 1, False))


def _decompose_round(base, rng, write):
    ops = [dict(_decompose_op(rng, write, mults), reference=reference)
           for mults, draws, reference in DECOMPOSE_ROUND
           for _ in range(draws)]
    a, b = near_equivalent_pair()
    ops.append({"command": "decompose",
                "args": {"tuple": write(_direct_sum([a, b]))},
                "expect": {"blocks": [[tuple_doc(a), 1], [tuple_doc(b), 1]],
                           "known_failure": True},
                "reference": False})
    return ops


# Rounds of fresh draws written per run.  A run issues them in order and
# starts again from the first if it gets through them all; these cover
# about twice the rounds a 30-second run completes on a 2-CPU machine.
POOL_ROUNDS = {"minimize": 32, "member": 16, "decompose": 10}


def generate(workload: str, seed: int, out_dir: str) -> dict:
    """Write the input files of `workload`'s pool of rounds and return its
    manifest: {"workload", "seed", "rounds": [[op, ...], ...]}.  Every
    round has the same operations in the same order, on its own draws."""
    if workload not in POOL_ROUNDS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(out_dir, exist_ok=True)
    index = WORKLOADS.index(workload)
    base = np.random.default_rng([BASE_SEED, index])
    rng = np.random.default_rng([seed, index])
    write = _Writer(out_dir)
    if workload == "member":
        ranges = _member_ranges(base)
        rounds = [_member_round(base, rng, write, ranges)
                  for _ in range(POOL_ROUNDS[workload])]
    else:
        make = {"minimize": _minimize_round,
                "decompose": _decompose_round}[workload]
        rounds = [make(base, rng, write)
                  for _ in range(POOL_ROUNDS[workload])]
    ident = 0
    for ops in rounds:
        for op in ops:
            op["id"] = ident
            ident += 1
    manifest = {"workload": workload, "seed": seed, "rounds": rounds}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    return manifest
