"""The tracer catches calls through every module that imported a function, and
tolerates names the program no longer has.

    python3 -m pytest bench/test_tracing.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import tracing

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import qlens.classify  # noqa: E402
import qlens.pathmatrix  # noqa: E402


def test_wrappers_reach_imported_names_and_are_removed(monkeypatch):
    monkeypatch.setitem(tracing.TRACED, "qlens.pathmatrix", ("count_matrix", "no_such_function"))
    original = qlens.pathmatrix.count_matrix
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qlens.classify.count_matrix is not original
        assert qlens.classify.count_matrix is qlens.pathmatrix.count_matrix
        part = qlens.classify.partition_classes(5, 5, jobs=1)
    finally:
        tracer.uninstall()
    assert qlens.classify.count_matrix is original
    assert tracer.missing == ["pathmatrix.no_such_function"]
    metrics = tracing.layer_metrics(tracer.spans)
    # phi(5)^(5-3) = 16 vectors, one matrix each.
    assert metrics["pathmatrix.count_matrix.calls"] == 16
    assert metrics["pathmatrix.cells"] == 16 * 5 * 15
    assert metrics["invariants.signature.calls"] == 16
    calls = metrics["equivalence.decide_equiv.calls"]
    assert calls == metrics["equivalence.solve_diophantine.calls"] > 0
    # One class at n = 5 < phitilde(5): every comparison joins.
    assert part.phi == 1 and metrics["classify.join_ratio"] == 1.0
    assert metrics["equivalence.outcome.witness"] == calls
    assert 0 < metrics["classify.self_s"] < sum(s.seconds for s in tracer.spans if s.parent < 0)


def test_missing_module_reports_zero_calls(monkeypatch):
    monkeypatch.setattr(tracing, "TRACED", {"qlens.gone": ("decide_equiv",)})
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["gone.decide_equiv"]
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["equivalence.decide_equiv.calls"] == 0
    assert metrics["equivalence.solve_diophantine.tail_s"] == 0.0
