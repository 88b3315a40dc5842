"""Spans and call counts taken from outside egr.

`patched` swaps a function for a wrapper wherever egr's modules (or the
class that owns it) bind it, and puts the original back on exit.  A
`Tracer` wrapper records one span per call; a `CallCounter` wrapper counts
calls.  The two are used in separate passes so that counting the hot
field operations does not slow the traced times.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager


@contextmanager
def patched(targets):
    """targets: (owner, attribute name, make) triples; make(original)
    returns the wrapper.  A module owner stands for every egr module."""
    undo = []
    try:
        for owner, name, make in targets:
            original = vars(owner)[name]
            wrapper = make(original)
            if isinstance(owner, type):
                homes = [owner]
            else:
                homes = [m for n, m in list(sys.modules.items()) if n == "egr" or n.startswith("egr.")]
            for home in homes:
                for attr, value in list(vars(home).items()):
                    if value is original:
                        setattr(home, attr, wrapper)
                        undo.append((home, attr, original))
        yield
    finally:
        for home, attr, original in reversed(undo):
            setattr(home, attr, original)


class Tracer:
    """Spans as (layer, start, end, parent index), kept in memory."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []

    def wrap(self, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = (layer, start, end, parent)

            return traced

        return make

    def layers(self) -> dict[str, tuple[float, int]]:
        """layer -> (self time, calls); self time is a span's duration
        minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, tuple[float, int]] = {}
        for (layer, start, end, _), child in zip(self.spans, covered):
            total, calls = out.get(layer, (0.0, 0))
            out[layer] = (total + (end - start) - child, calls + 1)
        return out

    def to_json(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        code = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "layers": names,
            "spans": [
                [code[layer], round(start - origin, 9), round(end - origin, 9), parent]
                for layer, start, end, parent in self.spans
            ],
        }


class CallCounter:
    """Call counts per key."""

    def __init__(self):
        self.counts: Counter = Counter()

    def wrap(self, key: str):
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        return make
