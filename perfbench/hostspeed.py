"""The host's speed, measured between the timed operations, so that
timings can be scaled to a reference speed.

A shared host runs the same code up to 1.6 times slower for tens of seconds
at a time.  A run of the benchmark cannot avoid such a phase, but it can see
it, by timing a fixed reference job that does not touch the program and runs
the way the operations run:

- a library call in this process is set against kernel_seconds(), a fixed
  pure-Python job in this process;
- a CLI process, and the set-up sample, against the start of a bare
  interpreter (`python -c pass`), which the caller measures.

An operation's time is multiplied by the reference job's time on a reference
host over its time around the operation: the time the operation would take
on that host.  A change to the program moves the scaled time as it moves the
raw one; the reference jobs do not run the program.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction
from itertools import combinations
from typing import Callable

# The reference jobs' times on an uncontended x86-64 host with CPython 3.11.
KERNEL_REFERENCE_S = 0.007
START_REFERENCE_S = 0.07
# A calibration point is taken at most this often between operations.  The
# kernel is cheap, and frequent points follow short slow phases that a 40-ms
# tail call can fall into; an interpreter start costs about a third of a
# CLI operation, so it is taken less often.
KERNEL_EVERY_S = 0.1
START_EVERY_S = 0.5


def _kernel() -> int:
    """Fraction arithmetic, tuples, subsets, a dict and a sort: the mix the
    engine's quotient screen runs, at a fixed size."""
    counts: dict[tuple[int, Fraction], int] = {}
    for n in range(4, 9):
        xs = tuple(Fraction(k * 7 % 13 - 6, k % 3 + 1) for k in range(n))
        for r in range(1, n):
            for subset in combinations(xs, r):
                key = (r, sum(subset) / r)
                counts[key] = counts.get(key, 0) + 1
    return len(sorted(counts.items()))


def kernel_seconds() -> float:
    """Time of one kernel run, with the garbage collector off so that the
    program's heap does not slow the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Track:
    """Calibration points interleaved with timed operations: each point is
    one measure() of the reference job.  Operations recorded between points
    k and k + 1 belong to segment k and are scaled by the mean of those two
    points."""

    def __init__(self, measure: Callable[[], float], reference_s: float, every_s: float) -> None:
        self.measure = measure
        self.reference_s = reference_s
        self.every_s = every_s
        self.points = [measure()]
        self.last = time.perf_counter()

    @property
    def segment(self) -> int:
        return len(self.points) - 1

    def tick(self, force: bool = False) -> None:
        """Take a calibration point if every_s has passed since the last one."""
        if force or time.perf_counter() - self.last >= self.every_s:
            self.points.append(self.measure())
            self.last = time.perf_counter()

    def factor(self, segment: int) -> float:
        after = self.points[min(segment + 1, len(self.points) - 1)]
        return self.reference_s / ((self.points[segment] + after) / 2)

    def speeds(self) -> list[float]:
        """The host's speed over the reference host's at the fastest, median
        and slowest point."""
        return [self.reference_s / t for t in (min(self.points), statistics.median(self.points),
                                               max(self.points))]
