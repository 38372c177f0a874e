"""In-memory span recorder for the traced run.

A span is (id, name, start, end, parent).  The benchmark records spans
around its own calls into norsim's modules; the program itself has no
spans yet.  Where a layer's work runs inside another call that the
benchmark cannot reach (sampling inside ``run_trials``), the benchmark
replays that layer's public call on identical inputs and records the
replay as a child of the enclosing span, so self time is still "span
minus child spans".  Spans stay in memory and are written once, at the end.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name: str, parent: Span | None = None):
        """Record the wall time of the block as a span named ``name``."""
        s = Span(next(self._ids), name, time.perf_counter(), 0.0, parent.id if parent else None)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self.spans.append(s)

    def self_seconds(self, span: Span) -> float:
        """The span's duration minus the durations of its child spans."""
        return span.seconds - sum(c.seconds for c in self.spans if c.parent == span.id)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def span_cost_seconds(n: int = 20000) -> float:
    """Wall time that recording one span adds, from n empty spans."""
    tracer = Tracer()
    t0 = time.perf_counter()
    for _ in range(n):
        with tracer.span("empty"):
            pass
    return (time.perf_counter() - t0) / n
