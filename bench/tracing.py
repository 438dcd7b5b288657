"""In-memory spans recorded by the benchmark around its calls into cesaro.

A span is (id, parent, op, name, start_ns, end_ns, attrs).  Spans are
kept in a list and written out when the run ends; self time is a span's
duration minus the time its child spans cover.  ``NULL`` is the tracer of
untraced runs: its spans record nothing.
"""

from __future__ import annotations

import time
from collections import defaultdict


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class _NullTracer:
    enabled = False
    op = None
    _span = _NullSpan()

    def span(self, name, **attrs):
        return self._span

    def note(self, **attrs):
        pass


NULL = _NullTracer()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        t = self.tracer
        self.record[1] = t.stack[-1] if t.stack else None
        t.stack.append(self.record[0])
        self.record[4] = time.perf_counter_ns()
        return self.record[0]

    def __exit__(self, exc_type, exc, tb):
        self.record[5] = time.perf_counter_ns()
        if exc_type is not None:
            self.record[6]["error"] = exc_type.__name__
        t = self.tracer
        t.stack.pop()
        t.spans.append(self.record)
        return False


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self._next = 0

    def span(self, name, **attrs):
        self._next += 1
        return _Span(self, [self._next, None, self.op, name, 0, 0, attrs])

    def note(self, **attrs):
        """Attach attributes to the span that closed last."""
        self.spans[-1][6].update(attrs)

    def dump(self) -> list[dict]:
        """The spans as dicts, each with its self time."""
        keys = ("id", "parent", "op", "name", "start_ns", "end_ns", "attrs")
        spans = [dict(zip(keys, r)) for r in self.spans]
        own = self_times(spans)
        for s in spans:
            s["self_ns"] = own[s["id"]]
        return spans


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the time covered by its child spans (one
    thread, so children never overlap)."""
    child = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end_ns"] - s["start_ns"]
    return {s["id"]: s["end_ns"] - s["start_ns"] - child[s["id"]] for s in spans}
