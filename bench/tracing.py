"""Outside-in tracing of qlens: timing wrappers around each layer's public calls.

A ``Tracer`` replaces each function named in ``TRACED`` with a wrapper that
records a span (name, start, end, parent, details). The wrapper is set on
every loaded ``qlens`` module that holds the same function object, so calls
made through ``from .x import f`` are caught as well as calls inside the
module. A name the program no longer has is skipped and reports zero calls.
Spans stay in memory; ``layer_metrics`` turns them into per-layer figures.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field

TRACED = {
    "qlens.cli": ("main",),
    "qlens.classify": ("partition_classes", "phitilde_search", "verify_conjectures"),
    "qlens.pathmatrix": ("count_matrix",),
    "qlens.invariants": ("signature",),
    "qlens.equivalence": ("decide_equiv", "solve_diophantine", "verify_witness"),
}
CLASSIFY_NAMES = ("classify.partition_classes", "classify.phitilde_search", "classify.verify_conjectures")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _details(name: str, args: tuple, result) -> dict:
    """Counts read from a call's inputs and result, outside the timed interval."""
    if name == "pathmatrix.count_matrix":
        params = args[0]
        n = len(params.m)
        return {"cells": params.r * n * (n + 1) // 2}
    if name == "equivalence.decide_equiv":
        if result.witness is None:
            outcome = "corner" if result.obstruction is not None else "infeasible"
            return {"outcome": outcome, "equivalent": False}
        if result.reason == "matrices are equal":
            return {"outcome": "equal", "equivalent": True}
        bits = max(abs(v).bit_length() for mat in (result.witness.U, result.witness.V) for row in mat for v in row)
        return {"outcome": "witness", "equivalent": True, "bits": bits}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        loaded = [m for name, m in list(sys.modules.items()) if name == "qlens" or name.startswith("qlens.")]
        for module_name, names in TRACED.items():
            module = sys.modules.get(module_name)
            for fname in names:
                label = f"{module_name.removeprefix('qlens.')}.{fname}"
                original = getattr(module, fname, None) if module is not None else None
                if not callable(original):
                    self.missing.append(label)
                    continue
                wrapper = self._wrap(label, original)
                for holder in loaded:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._patched.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def _wrap(self, label: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(label, 0.0, 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if result is not None:
                    try:
                        span.info = _details(label, args, result)
                    except (AttributeError, IndexError, TypeError):
                        pass  # a changed signature or result type loses only the details

        return traced


def _tail(values: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it; with fewer
    than forty samples that is no tail, so the median stands in."""
    if len(values) < 40:
        return statistics.median(values) if values else 0.0
    return sorted(values)[len(values) - 11]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times summed over the traced commands."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.seconds

    def by(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum((s.seconds for s in by(name)), 0.0)

    def self_time(names):
        return sum((s.seconds - child[i] for i, s in enumerate(spans) if s.name in names), 0.0)

    def under_classify(index):
        while index >= 0:
            if spans[index].name in CLASSIFY_NAMES:
                return True
            index = spans[index].parent
        return False

    out: dict[str, float] = {}
    counts = by("pathmatrix.count_matrix")
    out["pathmatrix.count_matrix.calls"] = len(counts)
    out["pathmatrix.count_matrix.s"] = total("pathmatrix.count_matrix")
    out["pathmatrix.cells"] = sum(s.info.get("cells", 0) for s in counts)
    out["pathmatrix.cells_per_s"] = (
        out["pathmatrix.cells"] / out["pathmatrix.count_matrix.s"] if out["pathmatrix.count_matrix.s"] else 0.0
    )
    out["invariants.signature.calls"] = len(by("invariants.signature"))
    out["invariants.signature.s"] = total("invariants.signature")
    out["classify.self_s"] = self_time(CLASSIFY_NAMES)
    decisions = by("equivalence.decide_equiv")
    from_classify = [s for s in decisions if under_classify(s.parent)]
    joins = sum(1 for s in from_classify if s.info.get("equivalent"))
    out["classify.join_ratio"] = joins / len(from_classify) if from_classify else 0.0
    out["equivalence.decide_equiv.calls"] = len(decisions)
    out["equivalence.decide_equiv.s"] = total("equivalence.decide_equiv")
    out["equivalence.decide_equiv.self_s"] = self_time(("equivalence.decide_equiv",))
    solves = [s.seconds for s in by("equivalence.solve_diophantine")]
    out["equivalence.solve_diophantine.calls"] = len(solves)
    out["equivalence.solve_diophantine.s"] = sum(solves, 0.0)
    out["equivalence.solve_diophantine.p50_s"] = statistics.median(solves) if solves else 0.0
    out["equivalence.solve_diophantine.tail_s"] = _tail(solves)
    out["equivalence.verify_witness.s"] = total("equivalence.verify_witness")
    outcomes = [s.info.get("outcome") for s in decisions]
    for kind in ("equal", "corner", "witness", "infeasible"):
        out[f"equivalence.outcome.{kind}"] = outcomes.count(kind)
    proofs = outcomes.count("corner") + outcomes.count("infeasible")
    out["equivalence.prefilter_ratio"] = outcomes.count("corner") / proofs if proofs else 0.0
    out["equivalence.witness_bits_max"] = max((s.info.get("bits", 0) for s in decisions), default=0)
    out["cli.self_s"] = self_time(("cli.main",))
    return out
