"""Spans around calls into sigmine, recorded from outside the program.

`Tracer.wrap` replaces a function at the name the calling module looks it up
under (``sigmine.resample.sup_quality``, not ``sigmine.search.sup_quality``),
so the program's own code is untouched and `restore` puts every original
back.  Spans live in memory as (name, start, end, parent) and are written out
by the caller when the run ends.

Self time comes from `attribute`: every instant of an op goes to the
innermost spans open at that instant.  With one thread that is a span's
duration minus the time its children cover; when worker threads run several
searches at once the instant is shared equally between them, so the self
times of one op always add up to the op's wall time.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for an op root
    counts: tuple = ()


class Patcher:
    """Replaces module or class attributes and puts the originals back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._patcher = Patcher()

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        # a worker thread's first span hangs under the span that started it
        main = self._stacks.get(self._main)
        return main[-1] if main else -1

    def call(self, name: str, fn, args=(), kwargs=None, counter=None):
        """Run fn(*args, **kwargs) inside a span; `counter(args, result)`
        returns the counts stored on the span."""
        stack = self._stacks.setdefault(threading.get_ident(), [])
        span = Span(name, 0.0, 0.0, self._parent(stack))
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span.end = time.perf_counter()
            stack.pop()
        if counter is not None:
            span.counts = counter(args, result)
        return result

    def wrap(self, owner, attr: str, name: str, counter=None) -> None:
        def make(original):
            def traced(*args, **kwargs):
                return self.call(name, original, args, kwargs, counter)

            return traced

        self._patcher.patch(owner, attr, make)

    def restore(self) -> None:
        self._patcher.restore()


def attribute(spans: list[Span], base: int) -> dict[str, float]:
    """Self time per span name for one op.

    `spans` is the contiguous slice of Tracer.spans that starts at the op's
    root span, whose index in Tracer.spans is `base`.
    """
    events = []
    for k, s in enumerate(spans):
        events.append((s.start, 1, k))
        events.append((s.end, 0, k))
    events.sort()  # at equal times, ends sort before starts
    totals: dict[str, float] = defaultdict(float)
    open_spans: set[int] = set()
    last = 0.0
    for t, is_start, k in events:
        if open_spans and t > last:
            parents = {spans[j].parent - base for j in open_spans}
            leaves = [j for j in open_spans if j not in parents]
            share = (t - last) / len(leaves)
            for j in leaves:
                totals[spans[j].name] += share
        last = t
        if is_start:
            open_spans.add(k)
        else:
            open_spans.discard(k)
    return totals
