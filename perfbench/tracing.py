"""In-memory spans and counters taken at the benchmark's own call sites.

A span records its name, start, end, parent span and op id.  Spans stay in
memory while the workload runs and are written out once, when it ends.
While the tracer is inactive, ``span`` hands back one shared no-op context
and ``count`` returns at once, so untraced passes pay almost nothing.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import nullcontext
from time import perf_counter

_NULL = nullcontext()

# A span record is [name, start, end, parent index or -1, op id or -1].
_END = 2


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else -1
        self.index = len(tr.spans)
        tr.spans.append([self.name, perf_counter(), None, parent, tr.op_id])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][_END] = perf_counter()
        tr._stack.pop()
        return False


class Tracer:
    def __init__(self, active=False):
        self.active = active
        self.spans = []
        self.counts = Counter()
        self.op_id = -1
        self._stack = []

    def span(self, name):
        return _Span(self, name) if self.active else _NULL

    def count(self, name, k=1):
        if self.active:
            self.counts[name] += k

    def op(self, op_id, label):
        """Root span of one op; spans opened inside it carry its id."""
        self.op_id = op_id
        return self.span("op." + label)

    def summary(self):
        """Per span name: calls, busy seconds, and self seconds (duration
        minus the part covered by direct children, which never overlap
        because the benchmark runs one call at a time)."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return dict(out)

    def write(self, path):
        path.write_text(
            json.dumps(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                }
            )
        )
