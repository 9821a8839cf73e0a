"""A fixed reference computation that gauges how fast the host runs right now.

The benchmark runs on a small shared virtual machine whose CPUs change speed
by up to 2x within seconds to minutes: a single-threaded pure-Python loop and
the program slow down together, in CPU time as well as wall time.  Timing
this kernel before and after each op, on the same CPU, and dividing it out
turns the op times of runs made minutes apart into comparable numbers.

The kernel never changes with the program.  It is a frozen copy of the shape
of sigmine's supremum search: a depth-3 walk over 80 random 8192-bit Python
ints (85 400 nodes), each node an AND, two population counts, the centered
quality, a tuple for the pattern and the optimistic-estimate test.  A
rescaled time is `wall * NOMINAL_S / gauge`, where `gauge` is the kernel's
wall time measured around it, so it reads in seconds on a host that runs the
kernel in exactly NOMINAL_S.
"""

from __future__ import annotations

import random
import time

NOMINAL_S = 0.2  # a fixed unit, near the kernel's time on one 2 GHz Xeon vCPU
EVERY_S = 1.0  # least time between two passes of the kernel
BITS = 8192
MASKS = 80
DEPTH = 3
CHECKSUM = 6832000

_rng = random.Random(20240617)
_masks = [_rng.getrandbits(BITS) & _rng.getrandbits(BITS) for _ in range(MASKS)]
_labels = _rng.getrandbits(BITS)


def work() -> int:
    """Best centered quality over every combination of up to DEPTH masks;
    returns the nodes visited and pruned as one checksum."""
    masks, labels, n = _masks, _labels, len(_masks)
    center, one_minus_c = 0.5, 0.5
    best = float("-inf")
    visited = pruned = 0

    def rec(cover: int, chosen: tuple[int, ...], start: int, depth: int) -> None:
        nonlocal best, visited, pruned
        for i in range(start, n):
            child = cover & masks[i]
            pos = (child & labels).bit_count()
            val = (pos - child.bit_count() * center) / BITS
            visited += 1
            here = chosen + (i,)
            if val > best:
                best = val
            if depth + 1 < DEPTH:
                if pos * one_minus_c / BITS > best:
                    rec(child, here, i + 1, depth + 1)
                else:
                    pruned += 1

    rec((1 << BITS) - 1, (), 0, 0)
    return visited * n + pruned


def gauge() -> float:
    """Wall time of one pass of the kernel, checked against its checksum."""
    t0 = time.perf_counter()
    total = work()
    elapsed = time.perf_counter() - t0
    if total != CHECKSUM:
        raise RuntimeError(f"reference kernel checksum {total} != {CHECKSUM}")
    return elapsed


class Drift:
    """Rescale factors for a stream of timed ops.

    The kernel is timed at the start and then after the first op that ends
    EVERY_S or more after the last pass, so ops of a few milliseconds share
    one pass and ops of seconds get one each.  Every op between two passes
    is rescaled by NOMINAL_S over the mean of those two passes.  Call
    `after_op` after each op, outside its timer.
    """

    def __init__(self):
        self.gauges = [gauge()]
        self.factors: list[float] = []
        self.pending = 0
        self.since = time.perf_counter()

    def after_op(self) -> None:
        self.pending += 1
        if time.perf_counter() - self.since >= EVERY_S:
            self.flush()

    def flush(self) -> None:
        if self.pending:
            self.gauges.append(gauge())
            factor = NOMINAL_S / ((self.gauges[-2] + self.gauges[-1]) / 2)
            self.factors += [factor] * self.pending
            self.pending = 0
        self.since = time.perf_counter()

    def rescale(self, walls: list[float]) -> list[float]:
        """The wall times of the ops seen so far, at the nominal speed."""
        self.flush()
        return [wall * f for wall, f in zip(walls, self.factors, strict=True)]
