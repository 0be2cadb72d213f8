"""The benchmark's traced run wraps matrange functions at the module
attributes its callers look up; a refactor that deletes or renames one of
them should fail here rather than in the benchmark."""

import importlib
import os

from matrange import sdp

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
