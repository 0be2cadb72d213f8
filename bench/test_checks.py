"""The benchmark's report checks accept sound certificates and reject
corrupted ones.  Run with: python -m pytest bench/test_checks.py"""

import json
import os

import numpy as np
import pytest

import checks
import generate


def _rng():
    return np.random.default_rng(5)


def _compression(rng, n=4, m=2):
    a = np.stack([generate._herm(rng, n), generate._herm(rng, n)])
    v = generate._unitary(rng, n)[:, :m]
    b = np.stack([v.conj().T @ x @ v for x in a])
    # C = sum_{ii'} E_ii' (x) V* E_ii' V
    c = np.zeros((n * m, n * m), dtype=complex)
    for i in range(n):
        for k in range(n):
            e = np.zeros((n, n))
            e[i, k] = 1.0
            c += np.kron(e, v.conj().T @ e @ v)
    return a, b, c


def _pairs(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _choi_doc(c, n, m):
    return {"map_dims": [n, m], "choi": _pairs(c)}


def test_choi_of_a_compression_passes():
    a, b, c = _compression(_rng())
    checks.check_choi(_choi_doc(c, 4, 2), a, b)


@pytest.mark.parametrize("corrupt", ["entry", "negative", "wrong_point"])
def test_corrupted_choi_is_rejected(corrupt):
    a, b, c = _compression(_rng())
    if corrupt == "entry":
        c = c.copy()
        c[0, 3] += 1e-3
        c[3, 0] += 1e-3
    elif corrupt == "negative":
        # an eigenvalue of -1e-2 along a kernel vector of the rank-one C
        _, vecs = np.linalg.eigh(c)
        c = c - 1e-2 * np.outer(vecs[:, 0], vecs[:, 0].conj())
    else:
        b = b.copy()
        b[0] = b[0] + 1e-3 * np.eye(2)
    with pytest.raises(checks.CheckError):
        checks.check_choi(_choi_doc(c, 4, 2), a, b)


def _level1_pencil(a, point, scale=1.0):
    """X_1 / lambda_max(A_1): 1 on the range, above 1 past it."""
    lam = np.linalg.eigvalsh(a[0])[-1]
    m = point.shape[1]
    coeffs = np.zeros((a.shape[0], m, m), dtype=complex)
    coeffs[0] = scale * np.eye(m) / lam
    return {"level": m, "d": a.shape[0], "hermitian_input": True,
            "coeffs": [_pairs(g) for g in coeffs],
            "offset": _pairs(np.zeros((m, m)))}


def _out_point(a):
    lam = np.linalg.eigvalsh(a[0])[-1]
    return np.stack([np.diag([lam * 1.5, 0.0]), np.zeros((2, 2))])


def test_separating_pencil_passes():
    a, _, _ = _compression(_rng())
    point = _out_point(a)
    viol = checks.check_pencil(_level1_pencil(a, point), a, point, 0.25)
    assert viol == pytest.approx(0.5)


@pytest.mark.parametrize("scale", [0.6, 1.2])
def test_rescaled_pencil_is_rejected(scale):
    # 0.6: below 1 at the point; 1.2: above 1 on the range
    a, _, _ = _compression(_rng())
    point = _out_point(a)
    with pytest.raises(checks.CheckError):
        checks.check_pencil(_level1_pencil(a, point, scale), a, point, 0.05)


def test_pencil_below_the_constructed_margin_is_rejected():
    a, _, _ = _compression(_rng())
    point = _out_point(a)
    with pytest.raises(checks.CheckError):
        checks.check_pencil(_level1_pencil(a, point), a, point, 0.6)


def test_equivalence_checks_the_unitary():
    rng = _rng()
    s = np.stack([generate._herm(rng, 5), generate._herm(rng, 5)])
    u = generate._unitary(rng, 5)
    t = np.stack([u.conj().T @ x @ u for x in s])
    checks.check_equivalence(u, s, t)
    with pytest.raises(checks.CheckError):
        checks.check_equivalence(generate._unitary(rng, 5), s, t)
    with pytest.raises(checks.CheckError):
        checks.check_equivalence(1.001 * u, s, t)


def _decomposition(rng, mults):
    blocks = [np.stack([generate._herm(rng, 3), generate._herm(rng, 3)])
              for _ in mults]
    parts = [b for b, k in zip(blocks, mults) for _ in range(k)]
    u = generate._unitary(rng, 3 * len(parts))
    # the input is U (sum of parts) U*, so U* T U reassembles
    whole = checks.direct_sum(parts)
    t = np.stack([u @ x @ u.conj().T for x in whole])
    report = {"command": "decompose", "status": "ok", "unitary": _pairs(u),
              "blocks": [{"tuple": generate.tuple_doc(b), "multiplicity": k}
                         for b, k in zip(blocks, mults)]}
    expect = {"blocks": [[generate.tuple_doc(b), k]
                         for b, k in zip(blocks, mults)]}
    return report, t, expect


def test_decomposition_passes_and_rejects_corruption():
    report, t, expect = _decomposition(_rng(), [2, 1])
    op = {"command": "decompose", "expect": expect}
    checks.check_report(op, 0, report, {"tuple": t})

    wrong_mult = json.loads(json.dumps(report))
    wrong_mult["blocks"][0]["multiplicity"] = 1
    wrong_mult["blocks"][1]["multiplicity"] = 2
    with pytest.raises(checks.CheckError):
        checks.check_report(op, 0, wrong_mult, {"tuple": t})

    wrong_u = json.loads(json.dumps(report))
    u = checks.complex_array(report["unitary"])
    wrong_u["unitary"] = _pairs(u[:, ::-1])
    with pytest.raises(checks.CheckError):
        checks.check_report(op, 0, wrong_u, {"tuple": t})


def test_invariants_tell_near_equivalent_summands_apart():
    a, b = generate.near_equivalent_pair()
    diff = np.abs(checks.invariants(a) - checks.invariants(b)).max()
    assert diff > 1e-7


def test_real_member_reports_pass_and_corrupted_ones_fail(tmp_path):
    """Run the non-Hermitian In and Out operations of a member round through
    matrange's CLI front end; the reports pass, and a separator halved or a
    witness perturbed in the emitted JSON is rejected."""
    cli = pytest.importorskip("matrange.cli")
    jsonutil = pytest.importorskip("matrange._jsonutil")
    manifest = generate.generate("member", 3, str(tmp_path))
    runs = []
    for op in manifest["rounds"][0]:
        paths = {k: os.path.join(tmp_path, v) for k, v in op["args"].items()}
        inputs = {}
        for k, path in paths.items():
            with open(path) as fh:
                inputs[k] = checks.tuple_mats(json.load(fh))
        if inputs["range"].shape[0] == 1:
            runs.append((op, paths, inputs))
    runs = runs[:2]
    assert [op["expect"]["status"] for op, _, _ in runs] == ["in", "out"]
    for op, paths, inputs in runs:
        code, report = cli.run("member", paths, cli.RunConfig())
        report = json.loads(jsonutil.dumps(report))
        checks.check_report(op, code, report, inputs)
        if op["expect"]["status"] == "out":
            report["separator"]["coeffs"] = (
                0.5 * np.asarray(report["separator"]["coeffs"])).tolist()
            report["separator"]["offset"] = (
                0.5 * np.asarray(report["separator"]["offset"])).tolist()
        else:
            report["witness"]["choi"][0][0][0] += 1e-3
        with pytest.raises(checks.CheckError):
            checks.check_report(op, code, report, inputs)
