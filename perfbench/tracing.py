"""In-memory spans around the benchmark's calls into the library.

A span records a name, its start and end (perf_counter_ns), the index
of the span that was open when it started, and the instance it belongs
to.  Spans stay in memory until the run ends; `write` dumps them as
JSON lines.  NullTracer has the same interface and records nothing, so
the untraced loop runs the same code with no bookkeeping.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int
    parent: int  # index into the span list, -1 for a root
    instance: int  # -1 outside any instance


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, instance: int | None = None):
        parent = self._open[-1] if self._open else -1
        if instance is None:
            instance = self.spans[parent].instance if parent >= 0 else -1
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, instance))
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter_ns()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


class NullTracer:
    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str, instance: int | None = None):
        return self._null

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its direct children cover
    (children of one span run one after another, never overlapping)."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def roots(spans: list[Span]) -> list[int]:
    """Index of the root span above each span."""
    out = []
    for i, s in enumerate(spans):
        out.append(i if s.parent < 0 else out[s.parent])
    return out
