"""In-memory spans and counts recorded around the benchmark's calls into nsflow.

A span is (name, start, end, parent, op, calls, tags).  ``parent`` is the index
of the enclosing span or -1; ``op`` is the index of the workload op the span
belongs to (-1 during set-up); ``calls`` is how many calls of the same function
on consecutive inputs one span covers, so a tight loop is timed once rather
than per call.  Untraced runs use :data:`OFF`, whose spans cost one attribute
lookup and an empty context manager.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int
    op: int
    calls: int
    tags: dict

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9

    @property
    def per_call(self) -> float:
        return self.seconds / self.calls


class _Off:
    enabled = False
    op = -1
    _null = contextlib.nullcontext()

    def span(self, name, calls=1, counter=None, **tags):
        return self._null

    def count(self, name, k=1):
        pass


OFF = _Off()


@dataclass
class Tracer:
    enabled = True
    op: int = -1
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    op_counts: Counter = field(default_factory=Counter)  # moved inside timed ops
    _stack: list = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name, calls=1, counter=None, **tags):
        """Time the block; with ``counter`` set, the span's tags also record
        how far that count moved inside it."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        before = self.counts[counter] if counter else 0
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            if counter:
                tags[counter] = self.counts[counter] - before
            self.spans[index] = Span(name, start, end, parent, self.op, calls, tags)

    def count(self, name, k=1):
        self.counts[name] += k

    # -- queries used by the per-layer metrics ----------------------------

    def select(self, name, setup=False, **tags):
        """Spans called ``name`` with matching tags, from the timed ops (or,
        with ``setup``, from the set-up)."""
        return [
            s for s in self.spans
            if s.name == name and (s.op < 0) == setup
            and all(s.tags.get(k) == v for k, v in tags.items())
        ]

    def median_per_call(self, name, setup=False, **tags):
        spans = self.select(name, setup, **tags)
        return statistics.median(s.per_call for s in spans) if spans else None

    def total(self, name, setup=False, **tags):
        spans = self.select(name, setup, **tags)
        return sum(s.seconds for s in spans) if spans else None

    def dump(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start_ns, s.end_ns, s.parent, s.op, s.calls, s.tags]))
                fh.write("\n")
            fh.write(json.dumps({"counts": self.counts, "op_counts": self.op_counts}) + "\n")
