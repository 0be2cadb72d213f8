"""Independent numpy checks of matrange reports, read from their JSON.

Nothing here imports matrange.  Each check raises CheckError with the
reason when a report or certificate is wrong, and returns nothing
otherwise.  Conventions are the ones matrange documents:

- tuple files and reports write a complex entry as [re, im];
- a Choi matrix C of Phi: M_n -> M_m has side n*m in input (x) output order
  and Phi(X) = Tr_in[(X^T (x) I_m) C];
- a pencil L(X) = sum_j G_j (x) X_j + offset (x) I acts on the raw
  coordinates when `hermitian_input` is true and otherwise on the
  interleaved Hermitian parts (Re X_1, Im X_1, ...), Re M = (M + M*)/2,
  Im M = (M - M*)/2i; it holds the range where lambda_max(L) <= 1.
"""

from __future__ import annotations

import numpy as np

# certificate tolerances, matching matrange's own validation defaults
CERT_TOL = 1e-6
PSD_TOL = 1e-6
# block invariants must agree to this share of the input scale
INVARIANT_TOL = 1e-6
DECOMP_TOL = 1e-8
EQUIV_TOL = 1e-6


class CheckError(Exception):
    pass


def complex_array(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def tuple_mats(doc) -> np.ndarray:
    mats = complex_array(doc["mats"])
    if mats.shape != (doc["d"], doc["n"], doc["n"]):
        raise CheckError(f"tuple document has shape {mats.shape}")
    return mats


def _fro(a) -> float:
    return float(np.linalg.norm(a))


def _scale(*tuples) -> float:
    return max([1.0] + [float(np.abs(t).max()) for t in tuples])


def _is_hermitian(mats) -> bool:
    return all(_fro(m - m.conj().T) <= 1e-8 * max(1.0, _fro(m)) for m in mats)


def hermitian_coordinates(mats) -> np.ndarray:
    out = []
    for m in mats:
        out.append((m + m.conj().T) / 2.0)
        out.append((m - m.conj().T) / 2.0j)
    return np.stack(out)


def direct_sum(parts) -> np.ndarray:
    d = parts[0].shape[0]
    n = sum(p.shape[1] for p in parts)
    out = np.zeros((d, n, n), dtype=complex)
    pos = 0
    for p in parts:
        k = p.shape[1]
        out[:, pos:pos + k, pos:pos + k] = p
        pos += k
    return out


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def apply_choi(choi: np.ndarray, n: int, m: int, x: np.ndarray) -> np.ndarray:
    """Phi(X) = Tr_in[(X^T (x) I_m) C]."""
    prod = np.kron(x.T, np.eye(m)) @ choi
    return np.einsum("iris->rs", prod.reshape(n, m, n, m))


def check_choi(doc, range_mats, point_mats, tol: float = CERT_TOL) -> None:
    """A PSD, unital Choi matrix whose map sends each range coordinate to
    the point's."""
    n, m = doc["map_dims"]
    c = complex_array(doc["choi"])
    if c.shape != (n * m, n * m):
        raise CheckError(f"Choi matrix has shape {c.shape}, want {n * m}")
    if range_mats.shape[1] != n or point_mats.shape[1] != m:
        raise CheckError("Choi map dimensions do not match the tuples")
    cnorm = max(1.0, _fro(c))
    if _fro(c - c.conj().T) > PSD_TOL * cnorm:
        raise CheckError("Choi matrix is not Hermitian")
    lam = float(np.linalg.eigvalsh((c + c.conj().T) / 2.0)[0])
    if lam < -PSD_TOL * cnorm:
        raise CheckError(f"Choi matrix has eigenvalue {lam:.3g}")
    scale = _scale(range_mats, point_mats)
    if _fro(apply_choi(c, n, m, np.eye(n)) - np.eye(m)) > tol * scale:
        raise CheckError("Choi map is not unital")
    for a, b in zip(range_mats, point_mats):
        resid = _fro(apply_choi(c, n, m, a) - b)
        if resid > tol * scale:
            raise CheckError(f"Choi map misses a coordinate by {resid:.3g}")


def pencil_max_eig(doc, mats) -> float:
    coeffs = complex_array(doc["coeffs"])
    offset = complex_array(doc["offset"])
    coords = mats if doc["hermitian_input"] else hermitian_coordinates(mats)
    if coords.shape[0] != coeffs.shape[0]:
        raise CheckError("pencil and tuple differ in coordinate count")
    n = coords.shape[1]
    val = np.kron(np.eye(n), offset)
    for x, g in zip(coords, coeffs):
        val = val + np.kron(x, g)
    return float(np.linalg.eigvalsh((val + val.conj().T) / 2.0)[-1])


def check_pencil(doc, range_mats, point_mats, margin: float,
                 tol: float = CERT_TOL) -> float:
    """lambda_max <= 1 + tol on the range and >= 1 + margin at the point;
    returns the violation at the point."""
    if doc["level"] != point_mats.shape[1]:
        raise CheckError("pencil level differs from the point's")
    on_range = pencil_max_eig(doc, range_mats)
    if on_range > 1.0 + tol:
        raise CheckError(f"pencil exceeds 1 on the range: {on_range:.9g}")
    at_point = pencil_max_eig(doc, point_mats)
    if at_point < 1.0 + margin:
        raise CheckError(f"pencil reaches {at_point:.9g} at the point, "
                         f"below 1 + {margin:.3g}")
    return at_point - 1.0


def check_unitary(u: np.ndarray, tol: float = 1e-8) -> None:
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise CheckError(f"unitary has shape {u.shape}")
    if _fro(u.conj().T @ u - np.eye(u.shape[0])) > tol * max(1.0, u.shape[0]):
        raise CheckError("matrix is not unitary")


def check_equivalence(u, s, t, tol: float = EQUIV_TOL) -> None:
    """U is unitary and max_j ||U* S_j U - T_j|| is within tolerance."""
    check_unitary(u)
    resid = max(_fro(u.conj().T @ a @ u - b) for a, b in zip(s, t))
    if resid > tol * _scale(s, t):
        raise CheckError(f"U*SU misses T by {resid:.3g}")


# ---------------------------------------------------------------------------
# Conjugation invariants
# ---------------------------------------------------------------------------

def invariants(mats) -> np.ndarray:
    """Size, sorted spectra of the Hermitian coordinates and their pairwise
    trace moments: unchanged by unitary conjugation."""
    h = mats if _is_hermitian(mats) else hermitian_coordinates(mats)
    spectra = [np.linalg.eigvalsh(x) for x in h]
    moments = [np.trace(h[j] @ h[k]).real
               for j in range(len(h)) for k in range(j, len(h))]
    return np.concatenate([[mats.shape[1]], *spectra, moments])


def match_blocks(found, planted, tol: float) -> None:
    """found and planted are lists of (mats, multiplicity); each found block
    must match a distinct planted block by invariants, with equal
    multiplicity, and every planted block must be found."""
    if len(found) != len(planted):
        raise CheckError(f"{len(found)} blocks returned, {len(planted)} planted")
    left = [(invariants(m), k) for m, k in planted]
    for mats, mult in found:
        inv = invariants(mats)
        hit = None
        for i, (pinv, pmult) in enumerate(left):
            if pinv.shape == inv.shape and np.abs(pinv - inv).max() <= tol:
                hit = i
                break
        if hit is None:
            raise CheckError(f"a returned block of size {mats.shape[1]} "
                             "matches no planted block")
        if left[hit][1] != mult:
            raise CheckError(f"multiplicity {mult}, planted {left[hit][1]}")
        left.pop(hit)


# ---------------------------------------------------------------------------
# Reports, one check per command
# ---------------------------------------------------------------------------

def _check_decompose(report, inputs, expect):
    t = inputs["tuple"]
    u = complex_array(report["unitary"])
    check_unitary(u)
    blocks = [(tuple_mats(b["tuple"]), b["multiplicity"])
              for b in report["blocks"]]
    assembled = direct_sum([m for m, k in blocks for _ in range(k)])
    if assembled.shape != t.shape:
        raise CheckError("blocks do not add up to the input size")
    resid = _fro(np.stack([u.conj().T @ x @ u for x in t]) - assembled)
    if resid > DECOMP_TOL * max(1.0, _fro(t)):
        raise CheckError(f"blocks reassemble the input only to {resid:.3g}")
    planted = [(tuple_mats(doc), k) for doc, k in expect["blocks"]]
    match_blocks(blocks, planted, INVARIANT_TOL * _scale(t))


def _check_minimize(report, inputs, expect):
    if report.get("status") != "ok" or report.get("verified") is not True:
        raise CheckError("minimal presentation is not verified")
    summands = report["summands"]
    crucial = [s for s in summands if s["status"] == "crucial"]
    dups = [s for s in summands if s["status"] == "redundant_duplicate"]
    if len(crucial) + len(dups) != len(summands):
        raise CheckError("a summand was removed as absorbed; none was planted")
    if len(dups) != expect["duplicates"]:
        raise CheckError(f"{len(dups)} duplicates removed, "
                         f"{expect['duplicates']} planted")
    tol = INVARIANT_TOL * _scale(inputs["tuple"])
    planted = [tuple_mats(doc) for doc in expect["crucial"]]
    kept = [tuple_mats(s["tuple"]) for s in crucial]
    match_blocks([(m, 1) for m in kept], [(m, 1) for m in planted], tol)
    planted_inv = [invariants(m) for m in planted]
    for s in dups:
        inv = invariants(tuple_mats(s["tuple"]))
        if not any(p.shape == inv.shape and np.abs(p - inv).max() <= tol
                   for p in planted_inv):
            raise CheckError("a removed duplicate matches no crucial summand")

    minimal = tuple_mats(report["minimal"])
    if _fro(minimal - direct_sum(kept)) > 1e-12 * max(1.0, _fro(minimal)):
        raise CheckError("minimal tuple is not the sum of the crucial summands")
    if report["input_n"] != inputs["tuple"].shape[1]:
        raise CheckError("report names another input size")
    for i, s in enumerate(crucial):
        others = direct_sum([m for j, m in enumerate(kept) if j != i])
        check_pencil(s["separator"], others, kept[i], expect["pencil_margin"])
        if not s.get("exposing_gap", 0.0) > 0.0:
            raise CheckError("crucial summand without an exposing gap")


def _check_equiv(report, inputs, expect):
    if report.get("status") != "equivalent":
        raise CheckError(f"equiv returned {report.get('status')!r}")
    u = complex_array(report["unitary"])
    check_equivalence(u, inputs["left"], inputs["right"])


def _check_member(report, inputs, expect):
    status = report.get("status")
    if status != expect["status"]:
        raise CheckError(f"verdict {status!r}, constructed {expect['status']!r}")
    point, rng = inputs["point"], inputs["range"]
    if status == "in":
        check_choi(report["witness"], rng, point)
    else:
        check_pencil(report["separator"], rng, point, expect["pencil_margin"])


def _check_separate(report, inputs, expect):
    status = report.get("status")
    if status != expect["status"]:
        raise CheckError(f"separate returned {status!r}, "
                         f"constructed {expect['status']!r}")
    if status == "ok":
        viol = check_pencil(report["separator"], inputs["range"],
                            inputs["point"], expect["pencil_margin"])
        if abs(viol - report["margin"]) > CERT_TOL * max(1.0, viol):
            raise CheckError("reported margin differs from the violation")


_EXIT = {"decompose": {"ok": 0}, "minimize": {"ok": 0},
         "equiv": {"equivalent": 0},
         "member": {"in": 0, "out": 1},
         "separate": {"ok": 0, "not_separable": 1}}

_CHECKS = {"decompose": _check_decompose, "minimize": _check_minimize,
           "equiv": _check_equiv, "member": _check_member,
           "separate": _check_separate}


def check_report(op: dict, exit_code: int, report: dict, inputs: dict) -> None:
    """Check one operation's report against its constructed expectation.

    inputs maps each argument name of the operation to its (d, n, n)
    complex array."""
    command = op["command"]
    if report.get("command") != command:
        raise CheckError("report names another command")
    want = _EXIT[command].get(report.get("status"))
    if want is None or exit_code != want:
        raise CheckError(f"exit code {exit_code} with status "
                         f"{report.get('status')!r}")
    _CHECKS[command](report, inputs, op["expect"])
