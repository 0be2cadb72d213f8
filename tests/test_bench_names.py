"""The benchmark's traced run wraps matrange functions at the module
attributes its callers look up; a refactor that deletes or renames one of
them should fail here rather than in the benchmark."""

import importlib
import os

import numpy as np
import pytest

from matrange import convexity, sdp
from matrange.matcore import MatrixTuple

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")


def test_tracer_wraps_and_restores_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    spans = importlib.import_module("spans")
    originals = [(module, attr, getattr(module, attr))
                 for module, attr, _ in spans.TRACED]
    ipm_result = sdp.IpmResult
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert sdp.IpmResult is not ipm_result
        for module, attr, fn in originals:
            assert getattr(module, attr) is not fn
    finally:
        tracer.uninstall()
    assert sdp.IpmResult is ipm_result
    for module, attr, fn in originals:
        assert getattr(module, attr) is fn


@pytest.mark.parametrize("coords, boundary, stop", [
    ([0.3, 0.2], "in", "certified"), ([1.0, 0.0], "marginal", "band")],
    ids=["certified", "band"])
def test_tracer_reads_iterations_and_stops_from_sdp(coords, boundary, stop,
                                                    monkeypatch):
    # the tracer counts one IpmResult construction per iterate, which is
    # iterations + 1 of the returned (last) iterate, and reads a solve as
    # unconverged only when it ended on a failure stop
    monkeypatch.syspath_prepend(BENCH)
    spans = importlib.import_module("spans")
    solves = []
    solve = convexity.solve_feasibility

    def traced(prog, settle):
        solves.append(solve(prog, settle))
        return solves[-1]

    monkeypatch.setattr(convexity, "solve_feasibility", traced)
    pauli = MatrixTuple.from_mats([np.diag([1.0 + 0j, -1.0]),
                                   np.array([[0, 1], [1, 0]], dtype=complex)])
    tracer = spans.Tracer()
    tracer.install()
    try:
        convexity.membership(MatrixTuple.scalar_point(coords), pauli,
                             boundary=boundary)
    finally:
        tracer.uninstall()
    assert [r.ipm.stop for r in solves] == [stop]
    assert tracer.counts["ipm_iterations"] == solves[0].ipm.iterations + 1
    assert tracer.counts["unconverged"] == 0
