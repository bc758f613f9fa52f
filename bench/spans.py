"""In-memory spans recorded around the benchmark's calls into the library.

A span has a name, a start and end time, the index of its parent span and a
job id shared by every span of one job.  Spans are appended to a list while
the run goes on and summarised when it ends; nothing is written before then.
The untraced run uses `NULL_TRACER`, whose spans record nothing.
"""

from __future__ import annotations

import statistics
from time import perf_counter


class Span:
    __slots__ = ("name", "job", "parent", "start", "end", "_tracer")

    def __init__(self, tracer: Tracer | None, name: str, job: str | None):
        self._tracer = tracer
        self.name = name
        self.job = job
        self.parent: int | None = None
        self.start = self.end = 0.0

    def __enter__(self) -> Span:
        t = self._tracer
        if t is not None:
            if t._open:
                self.parent = t._open[-1]
                if self.job is None:
                    self.job = t.spans[self.parent].job
            t._open.append(len(t.spans))
            t.spans.append(self)
            self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        t = self._tracer
        if t is not None:
            self.end = perf_counter()
            t._open.pop()
        return False

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "job": self.job,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
        }


class Tracer:
    """Records every span opened through it, nested by the order they open."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def span(self, name: str, job: str | None = None) -> Span:
        return Span(self, name, job)


class _NullTracer:
    def span(self, name: str, job: str | None = None) -> Span:
        return Span(None, name, job)


NULL_TRACER = _NullTracer()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        edge = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(s.duration - covered)
    return out


def summarise(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total and self seconds, median per call."""
    selfs = self_times(spans)
    by_name: dict[str, list[tuple[float, float]]] = {}
    for s, own in zip(spans, selfs):
        by_name.setdefault(s.name, []).append((s.duration, own))
    return {
        name: {
            "calls": len(rows),
            "total_s": sum(d for d, _ in rows),
            "self_s": sum(o for _, o in rows),
            "median_s": statistics.median(d for d, _ in rows),
        }
        for name, rows in sorted(by_name.items())
    }
