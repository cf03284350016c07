"""In-memory spans for the benchmark's traced passes.

A span is (name, start, end, parent, row).  Spans are recorded around calls
into pcg from the benchmark's own code; the program itself is not
instrumented.  A span's self time is its duration minus the time its
children cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Collects properly nested spans of one thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, row: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if row is None and parent is not None:
            row = self.spans[parent]["row"]
        rec = {"name": name, "start": 0.0, "end": 0.0, "parent": parent,
               "row": row}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def span_cost(n: int = 5000) -> float:
    """Seconds one empty span costs in this process (enter plus exit)."""
    tr = Tracer()
    t0 = time.perf_counter()
    with tr.span("outer", "probe"):
        for _ in range(n):
            with tr.span("inner"):
                pass
    return (time.perf_counter() - t0) / n


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its children's durations.

    Children of one span never overlap (one thread, properly nested), so
    subtracting their durations removes exactly the interval they cover.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
