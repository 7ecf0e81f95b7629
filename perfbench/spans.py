"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own code, around calls into the
program's public functions; nothing inside ``src/repro`` is instrumented.
Each span has a name, a start, an end, the span that caused it and a trace
identifier shared by the spans of one job.  Everything stays in memory
until :meth:`write_ndjson`, which appends the run's per-layer counts.

Per-message layers (tracer hooks, flow-control hooks) are far too frequent
for one span per call; their timing subclasses accumulate a call count and
busy seconds instead, and :meth:`Span.add_child_time` charges
that time to the enclosing span so self times stay correct.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = ["OUT_DIR", "NullRecorder", "SpanRecorder"]

#: Scratch output of the benchmark, relative to the repository root.
OUT_DIR = ".perfbench_out"


class Span:
    """One timed interval; ``child_s`` is time covered by children."""

    __slots__ = ("span_id", "parent", "trace", "name", "start", "end", "attrs", "child_s")

    def __init__(self, span_id: int, parent: int | None, trace: str, name: str, attrs: dict):
        self.span_id = span_id
        self.parent = parent
        self.trace = trace
        self.name = name
        self.attrs = attrs
        self.start = time.perf_counter()
        self.end = self.start
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the part of it that child spans and hooks cover."""
        return self.duration - self.child_s

    def add_child_time(self, seconds: float) -> None:
        self.child_s += seconds

    def record(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent,
            "trace": self.trace,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "self_s": self.self_s,
            **self.attrs,
        }


class SpanRecorder:
    """Records nested spans for one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._trace = "setup"

    def set_trace(self, trace: str) -> None:
        """Spans opened from now on belong to ``trace`` (one job, say)."""
        self._trace = trace

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        span = Span(
            len(self.spans),
            parent.span_id if parent is not None else None,
            self._trace,
            name,
            attrs,
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.add_child_time(span.duration)

    def total(self, name: str, trace: str | None = None) -> float:
        """Summed duration of every span called ``name`` (in ``trace``)."""
        return sum(
            s.duration for s in self.spans
            if s.name == name and (trace is None or s.trace == trace)
        )

    def total_self(self, name: str, trace: str | None = None) -> float:
        """Summed self time of every span called ``name`` (in ``trace``)."""
        return sum(
            s.self_s for s in self.spans
            if s.name == name and (trace is None or s.trace == trace)
        )

    def write_ndjson(self, path: Path, metrics: dict) -> None:
        """Write every span, then one line with the run's per-layer metrics."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.record(), sort_keys=True) + "\n")
            handle.write(json.dumps({"metrics": metrics}, sort_keys=True) + "\n")


class _NullSpan:
    def add_child_time(self, seconds: float) -> None:
        pass


class NullRecorder:
    """The untraced run's recorder: every call is a no-op."""

    _span = _NullSpan()

    def set_trace(self, trace: str) -> None:
        pass

    @contextmanager
    def span(self, name: str, **attrs):
        yield self._span
