"""In-memory spans around calls into the package, and self-time arithmetic.

A span records name, start, end, parent and, when tracemalloc is running, two
memory peaks above the memory held at span start: ``peak_mb`` over the whole
span and ``self_peak_mb`` over the parts not covered by child spans. Spans are
kept in a list and written out once, by the caller, when the run ends.
"""
from __future__ import annotations

import functools
import time
import tracemalloc


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def _enter(self, name):
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None}
        self.spans.append(span)
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent["_self_peak"] = max(parent["_self_peak"], peak)
            tracemalloc.reset_peak()
            span.update(_base=current, _self_peak=current, _child_peak=current)
        self._stack.append(span)
        span["start"] = self.clock()
        return span

    def _exit(self, span):
        span["end"] = self.clock()
        self._stack.pop()
        if "_base" in span:
            _, peak = tracemalloc.get_traced_memory()
            self_peak = max(span.pop("_self_peak"), peak)
            inclusive = max(self_peak, span.pop("_child_peak"))
            base = span.pop("_base")
            span["peak_mb"] = (inclusive - base) / 1e6
            span["self_peak_mb"] = (self_peak - base) / 1e6
            tracemalloc.reset_peak()
            if self._stack:
                parent = self._stack[-1]
                parent["_child_peak"] = max(parent["_child_peak"], inclusive)

    def call(self, name, fn, *args, counts=None, **kwargs):
        """Run fn inside a span; ``counts(args, kwargs, result)`` adds a dict
        of counts to the span after its end time is taken."""
        span = self._enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._exit(span)
        if counts is not None:
            span["counts"] = counts(args, kwargs, result)
        return result

    def wrap(self, name, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, counts=counts, **kwargs)

        return traced


def patch(tracer, targets):
    """Replace module attributes with traced wrappers.

    ``targets`` holds (module, attribute, span name, counts) tuples. An
    attribute the module no longer has is skipped, so its spans are simply
    missing. Returns the originals as (module, attribute, function) for
    ``unpatch``.
    """
    originals = []
    for module, attr, name, counts in targets:
        fn = getattr(module, attr, None)
        if fn is None:
            continue
        originals.append((module, attr, fn))
        setattr(module, attr, tracer.wrap(name, fn, counts))
    return originals


def unpatch(originals):
    for module, attr, fn in reversed(originals):
        setattr(module, attr, fn)


def self_times(spans):
    """Span id -> duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
