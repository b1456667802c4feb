"""Spans around the benchmark's calls into the library, and counters.

A span records its name, its start and end, and the span that was open
when it began.  A layer's self time is its span's duration minus the
part covered by its child spans.  Spans stay in memory; ``self_times``
folds them when the pass is over.  An untraced ``Tracer`` only forwards
each call, so untraced passes pay one extra Python call per library call.
"""

import time
from collections import defaultdict


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = defaultdict(int)
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, inside a span called ``name`` when tracing."""
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name, amount=1):
        if self.enabled:
            self.counts[name] += amount

    def self_times(self):
        """Self time in seconds per span name."""
        out = defaultdict(float)
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return out
