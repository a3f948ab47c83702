"""Spans around calls into the package's layers, recorded from outside it.

During a traced pass, `patched(tracer)` swaps each layer entry point named in
PATCHES for a wrapper that records a span, in the module namespace the caller
looks it up in.  rscwe.cli.run_cli therefore calls gf, codes and cwe exactly
as it does untraced, and cwe_formula's calls to the closed-form builders nest
under it.  Nothing inside the package is edited.  An entry point a later
version no longer has is skipped and listed in Tracer.missing, and the run
that traced without it reports correct=false: its layer metric would read 0.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name).  The span name's prefix is the layer.
PATCHES = [
    ("rscwe.cli", "build_field", "gf.build_field"),
    ("rscwe.cwe", "build_field", "gf.build_field"),
    ("rscwe", "build_field", "gf.build_field"),
    ("rscwe.cli", "make_eval_set", "codes.make_eval_set"),
    ("rscwe", "make_eval_set", "codes.make_eval_set"),
    ("rscwe.cli", "CodeSpec", "codes.CodeSpec"),
    ("rscwe.cwe", "CodeSpec", "codes.CodeSpec"),
    ("rscwe", "CodeSpec", "codes.CodeSpec"),
    ("rscwe.cli", "cwe_bruteforce", "cwe.brute"),
    ("rscwe.cli", "cwe_formula", "cwe.formula"),
    ("rscwe", "cwe_formula", "cwe.formula"),
    ("rscwe.cwe", "cwe_rs2", "cwe.rs2"),
    ("rscwe.cwe", "cwe_k3_fullfield", "cwe.k3_full"),
    ("rscwe.cwe", "cwe_k3_punctured", "cwe.k3_punct"),
    ("rscwe.cli", "cwe_equal", "cwe.equal"),
    ("rscwe", "cwe_equal", "cwe.equal"),
    ("rscwe.cli", "serialize", "cwe.serialize"),
    ("rscwe", "serialize", "cwe.serialize"),
    ("rscwe", "deserialize", "cwe.deserialize"),
    ("rscwe.cli", "render_terms", "cwe.render"),
    ("rscwe", "render_terms", "cwe.render"),
]


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, job id, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job: str | None = None
        # (span name, args, result) of each wrapped call while capturing
        self.captured: list[tuple] = []
        self.capture = False
        # "module.attr" of each PATCHES entry the package did not have
        self.missing: set[str] = set()

    @contextmanager
    def span(self, name: str):
        record = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self.job, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            record[5] = _describe(result)
            if self.capture:
                self.captured.append((name, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "job": j, "info": i}
            for n, s, e, p, j, i in self.spans
        ]


def _describe(result):
    """Sizes the per-layer counters need: term count and length, or bytes."""
    if isinstance(result, str):
        return {"bytes": len(result.encode())}
    if hasattr(result, "terms") and hasattr(result, "n"):
        return {"terms": len(result.terms), "length": result.n}
    return None


@contextmanager
def patched(tracer: Tracer):
    saved = []
    try:
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                tracer.missing.add(f"{module_name}.{attr}")
            else:
                saved.append((module, attr, fn))
                setattr(module, attr, tracer.wrap(name, fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _union(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _union(children.get(i, []))
        for i, (name, start, end, _, _, _) in enumerate(spans)
    ]


def child_coverage(spans: list[list], index: int) -> float:
    """Share of span `index` that its direct children cover."""
    _, start, end, _, _, _ = spans[index]
    kids = [(s, e) for _, s, e, parent, _, _ in spans if parent == index]
    return _union(kids) / (end - start) if end > start else 1.0
