import json
import os
import subprocess
import sys

import numpy as np
import pytest

from matrange import _jsonutil
from matrange.cli import EXIT_ERROR, EXIT_MARGINAL, EXIT_NO, EXIT_YES, load_tuple, main
from matrange.convexity import (
    ChoiCertificate,
    Pencil,
    validate_separator,
    validate_witness,
)
from matrange.errors import DimensionError, ParseError
from matrange.matcore import MatrixTuple, direct_sum_all, tuple_to_dict, tuple_to_json

SZ = np.diag([1.0 + 0j, -1.0])
SX = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI = MatrixTuple.from_mats([SZ, SX])
VERTS = [MatrixTuple.scalar_point(p) for p in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))]


def write_tuple(path, t):
    path.write_text(tuple_to_json(t))
    return str(path)


def write_polytope(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def simplex_file(tmp_path):
    return write_tuple(tmp_path / "simplex.json", direct_sum_all(VERTS))


@pytest.fixture
def bary_file(tmp_path):
    return write_tuple(tmp_path / "bary.json",
                       MatrixTuple.scalar_point([1 / 3, 1 / 3]))


@pytest.fixture
def pauli_file(tmp_path):
    return write_tuple(tmp_path / "pauli.json", PAULI)


@pytest.fixture
def square_vertices_file(tmp_path):
    pts = [MatrixTuple.scalar_point(p) for p in ((1.0, 1.0), (1.0, -1.0),
                                                 (-1.0, 1.0), (-1.0, -1.0))]
    return write_tuple(tmp_path / "square_vertices.json", direct_sum_all(pts))


def test_load_tuple_round_trip(tmp_path, rng):
    from conftest import rand_tuple
    for i in range(25):
        t = rand_tuple(2, 3, rng, scale=float(rng.uniform(0.1, 100)))
        path = write_tuple(tmp_path / f"t{i}.json", t)
        back = load_tuple(path)
        assert np.array_equal(back.mats, t.mats)


def test_load_tuple_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError) as exc:
        load_tuple(str(bad))
    assert "line" in str(exc.value)
    doc = tuple_to_dict(PAULI)
    doc["mats"][0] = [[[1.0, 0.0]]]
    shaped = tmp_path / "shape.json"
    shaped.write_text(json.dumps(doc))
    with pytest.raises(DimensionError) as exc:
        load_tuple(str(shaped))
    assert "mats[0]" in str(exc.value)


def test_member_in_exit_zero(bary_file, simplex_file, capsys):
    code = main(["member", "--point", bary_file, "--range", simplex_file])
    assert code == EXIT_YES
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "in"
    assert "witness" in report


def test_member_out_exit_one(pauli_file, square_vertices_file, capsys):
    code = main(["member", "--point", pauli_file,
                 "--range", square_vertices_file])
    assert code == EXIT_NO
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "out"
    assert "separator" in report


def test_member_boundary_flag(tmp_path, pauli_file, capsys):
    pt = write_tuple(tmp_path / "edge.json", MatrixTuple.scalar_point([1.0, 0.0]))
    code = main(["--boundary", "marginal", "member", "--point", pt,
                 "--range", pauli_file])
    assert code == EXIT_MARGINAL
    code = main(["--boundary", "in", "member", "--point", pt,
                 "--range", pauli_file])
    assert code == EXIT_YES


def test_env_override_and_flag_precedence(tmp_path, pauli_file, monkeypatch,
                                          capsys):
    pt = write_tuple(tmp_path / "edge.json", MatrixTuple.scalar_point([1.0, 0.0]))
    monkeypatch.setenv("MATRANGE_BOUNDARY", "marginal")
    assert main(["member", "--point", pt, "--range", pauli_file]) == EXIT_MARGINAL
    capsys.readouterr()
    # explicit flag wins over the environment
    assert main(["--boundary", "in", "member", "--point", pt,
                 "--range", pauli_file]) == EXIT_YES


@pytest.mark.parametrize("name, value", [("MATRANGE_TOL", "abc"),
                                         ("MATRANGE_SEED", "1.5")])
def test_malformed_env_default_is_a_usage_error(name, value, bary_file,
                                                simplex_file, monkeypatch, capsys):
    monkeypatch.setenv(name, value)
    assert main(["member", "--point", bary_file,
                 "--range", simplex_file]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert "usage:" in err and "error:" in err


def test_minimize_report(tmp_path, capsys):
    t = direct_sum_all(VERTS + [MatrixTuple.scalar_point([1 / 3, 1 / 3])])
    path = write_tuple(tmp_path / "vpb.json", t)
    code = main(["minimize", "--tuple", path])
    assert code == EXIT_YES
    report = json.loads(capsys.readouterr().out)
    statuses = [s["status"] for s in report["summands"]]
    assert statuses.count("crucial") == 3
    assert statuses.count("redundant_absorbed") == 1
    assert report["verified"] is True


def test_decompose_and_fully_compressed(tmp_path, capsys):
    path = write_tuple(tmp_path / "xx.json", direct_sum_all([PAULI, PAULI]))
    assert main(["decompose", "--tuple", path]) == EXIT_YES
    report = json.loads(capsys.readouterr().out)
    assert report["blocks"][0]["multiplicity"] == 2
    assert main(["fully-compressed", "--tuple", path]) == EXIT_NO
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "not_fully_compressed"


def test_include_and_separate(pauli_file, square_vertices_file, tmp_path,
                              capsys):
    assert main(["include", "--inner", pauli_file,
                 "--outer", square_vertices_file]) == EXIT_NO
    capsys.readouterr()
    assert main(["separate", "--range", square_vertices_file,
                 "--point", pauli_file]) == EXIT_YES
    report = json.loads(capsys.readouterr().out)
    assert report["separator"]["level"] == 2
    # separation of an interior point is refused
    bary = write_tuple(tmp_path / "b.json",
                       MatrixTuple.scalar_point([0.1, 0.1]))
    assert main(["separate", "--range", pauli_file, "--point", bary]) == EXIT_NO


def test_separate_exit_code_follows_the_verdict_status(pauli_file, tmp_path,
                                                       monkeypatch, capsys):
    from matrange import cli
    from matrange.errors import NotSeparableError

    def refuse(status):
        def separating_pencil(*args, **kwargs):
            raise NotSeparableError("no separating pencil", status=status)
        return separating_pencil

    point = write_tuple(tmp_path / "p.json", MatrixTuple.scalar_point([0.1, 0.1]))
    args = ["separate", "--range", pauli_file, "--point", point]
    monkeypatch.setattr(cli, "separating_pencil", refuse("marginal"))
    assert main(args) == EXIT_MARGINAL
    assert json.loads(capsys.readouterr().out)["status"] == "not_separable"
    monkeypatch.setattr(cli, "separating_pencil", refuse("in"))
    assert main(args) == EXIT_NO


def test_unexpected_exception_is_an_error_not_a_negative(
        bary_file, simplex_file, monkeypatch, capsys):
    from matrange import cli

    def broken(*args, **kwargs):
        raise RuntimeError("broken solver")

    monkeypatch.setattr(cli, "membership", broken)
    assert main(["member", "--point", bary_file,
                 "--range", simplex_file]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert "RuntimeError: broken solver" in err


def test_equiv_round_trip(tmp_path, rng, capsys):
    from conftest import rand_unitary
    from matrange.matcore import conjugate
    t = direct_sum_all(VERTS)
    s = conjugate(t, rand_unitary(3, rng))
    left = write_tuple(tmp_path / "left.json", s)
    right = write_tuple(tmp_path / "right.json", t)
    assert main(["equiv", "--left", left, "--right", right]) == EXIT_YES
    report = json.loads(capsys.readouterr().out)
    assert report["residual"] <= 1e-8


def test_equiv_not_equivalent(simplex_file, square_vertices_file, capsys):
    assert main(["equiv", "--left", simplex_file,
                 "--right", square_vertices_file]) == EXIT_NO
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "not_equivalent"
    assert "separator" in report


def test_wmin_wmax_commands(tmp_path, pauli_file, capsys):
    poly = write_polytope(tmp_path / "square.json", {
        "dim": 2,
        "vertices": [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]],
        "halfspaces": [{"a": [1.0, 0.0], "b": 1.0}, {"a": [-1.0, 0.0], "b": 1.0},
                       {"a": [0.0, 1.0], "b": 1.0}, {"a": [0.0, -1.0], "b": 1.0}],
    })
    assert main(["wmax", "--point", pauli_file, "--polytope", poly]) == EXIT_YES
    capsys.readouterr()
    assert main(["wmin", "--point", pauli_file, "--polytope", poly]) == EXIT_NO
    capsys.readouterr()
    half = write_tuple(tmp_path / "half.json",
                       MatrixTuple.from_mats([SZ / 2, SX / 2]))
    assert main(["wmin", "--point", half, "--polytope", poly]) == EXIT_YES


def test_unknown_command_usage(capsys):
    assert main(["frobnicate"]) == 3
    assert main([]) == 3


def test_missing_file_is_error(capsys):
    assert main(["decompose", "--tuple", "/nonexistent.json"]) == 3


def test_text_format(bary_file, simplex_file, capsys):
    code = main(["--format", "text", "member", "--point", bary_file,
                 "--range", simplex_file])
    assert code == EXIT_YES
    out = capsys.readouterr().out
    assert "status: in" in out


def test_byte_identical_reports(tmp_path, capsys):
    t = direct_sum_all(VERTS + [MatrixTuple.scalar_point([1 / 3, 1 / 3])])
    path = write_tuple(tmp_path / "t.json", t)
    main(["--seed", "5", "minimize", "--tuple", path])
    out1 = capsys.readouterr().out
    main(["--seed", "5", "minimize", "--tuple", path])
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_console_entry_point(tmp_path):
    t = direct_sum_all(VERTS)
    path = write_tuple(tmp_path / "t.json", t)
    proc = subprocess.run(
        [sys.executable, "-m", "matrange.cli", "fully-compressed",
         "--tuple", path],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_YES
    assert json.loads(proc.stdout)["status"] == "fully_compressed"


def _matrix(rows):
    """A report's matrix, written as rows of [re, im] pairs."""
    a = np.asarray(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _witness(doc):
    return ChoiCertificate(_matrix(doc["choi"]), tuple(doc["map_dims"]))


def _pencil(doc):
    return Pencil(coeffs=_matrix(doc["coeffs"]), offset=_matrix(doc["offset"]),
                  level=doc["level"], hermitian_input=doc["hermitian_input"])


# the variables OpenBLAS and MKL read their thread count from
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
             "MKL_NUM_THREADS")


@pytest.mark.parametrize("push, code", [(None, EXIT_YES), (0.05, EXIT_NO)],
                         ids=["in", "out"])
def test_member_verdict_does_not_depend_on_blas_threads(tmp_path, push, code):
    # which iterate a Choi solve ends certified at turns on rounding, and
    # so on the BLAS thread count; the verdict and its validity must not
    from conftest import level3_pair
    point, rng_t = level3_pair(0, push)
    args = [sys.executable, "-m", "matrange.cli", "member",
            "--point", write_tuple(tmp_path / "point.json", point),
            "--range", write_tuple(tmp_path / "range.json", rng_t)]
    for threads in ("1", "2", None):
        # None leaves the thread count to the BLAS library's default
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run(args, capture_output=True, text=True, env=env)
        assert proc.returncode == code, proc.stderr
        report = json.loads(proc.stdout)
        if push is None:
            validate_witness(_witness(report["witness"]), rng_t.mats,
                             point.mats)
        else:
            validate_separator(_pencil(report["separator"]), rng_t, point)


def test_cli_import_leaves_out_scipy_optimize():
    # only the polytope commands need scipy, for scipy.optimize's linear
    # programs, so they import it when they need it; scipy would also load
    # a second BLAS library into the process
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, matrange.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _complex(re, im):
    """re + i im with the signs of zeros kept, which re + 1j * im loses."""
    m = np.empty(np.shape(re), dtype=complex)
    m.real, m.imag = re, im
    return m


@pytest.mark.parametrize("entries", [
    [0.0, -0.0, 1.0, -1.0], [5e-324, -5e-324, 1e308, -1e308],
    [0.1, 1.0 / 3.0, 1e16, 123456789.0]], ids=["zeros", "extremes", "digits"])
def test_complex_rows_emit_as_the_generic_encoder_does(entries):
    # complex_rows is written a row at a time; a plain list of the same rows
    # goes through the generic encoder, one float at a time
    rng = np.random.default_rng(len(entries))
    e = np.array(entries)
    for m in (_complex(e.reshape(2, 2), e[::-1].reshape(2, 2)),
              _complex(e[None], -e[None]),
              _complex(rng.standard_normal((5, 3)), rng.standard_normal((5, 3))),
              np.zeros((0, 3), dtype=complex), np.zeros((2, 0), dtype=complex)):
        rows = _jsonutil.complex_rows(m)
        assert rows == [[[z.real, z.imag] for z in r] for r in m]
        assert _jsonutil.dumps({"m": rows}) == _jsonutil.dumps({"m": list(rows)})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_complex_rows_refuse_non_finite_entries(bad):
    m = np.array([[1.0, 2.0 + 1j * bad]])
    with pytest.raises(ValueError) as fast:
        _jsonutil.dumps(_jsonutil.complex_rows(m))
    with pytest.raises(ValueError) as generic:
        _jsonutil.dumps(list(_jsonutil.complex_rows(m)))
    assert str(fast.value) == str(generic.value)
