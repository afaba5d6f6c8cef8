"""In-memory spans around calls into the package's modules.

A span records name, start, end and the index of its parent span. Spans
stay in memory until the traced operation ends; the summary then gives
each name's call count, total time and self time, where self time is the
span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Records spans and counters for one operation in one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span called name and return its result."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        parent = stack[-1] if stack else None
        spans.append(None)
        stack.append(index)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            spans[index] = Span(name, start, end, parent)

    def wrap(self, module, attr: str, name: str, on_call: Callable | None = None) -> bool:
        """Replace module.attr by a spanned wrapper; False if attr is gone.

        ``on_call(tracer, args, kwargs, result)`` may add to the counters.
        A missing attribute is skipped, so the span reads as zero calls.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            return False

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_call is not None:
                on_call(self, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        return True


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append((span.end - span.start) - covered)
    return result


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s and self_s."""
    summary: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = summary.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span.end - span.start
        entry["self_s"] += own
    return summary
