"""In-memory spans for the traced run.

A span is (name, start, end, parent index).  Spans come from the
benchmark's own code: `span` around a call it makes, and `wrap` on a
public method of an object the benchmark holds, which shadows the method
on that one instance and leaves classes and modules untouched.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []     # [name, start, end, parent]
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def wrap(self, obj, method: str, name: str, after=None) -> None:
        """Record a span around every call of obj.method; `after(result,
        *args, **kwargs)` sees each successful call's result."""
        inner = getattr(obj, method)

        def traced(*args, **kwargs):
            result = self.call(name, inner, *args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        setattr(obj, method, traced)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time (total minus
        the time its direct children cover)."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children[index]
        return dict(out)
