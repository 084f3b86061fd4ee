"""A speed probe: how fast the machine runs this process at each moment.

On a shared machine the cores change speed many times a second: a fixed
piece of Python code runs in one time in one 50 ms stretch and about 1.5
times as long in the next, and the share of slow stretches moves between 10%
and 90% from one second to the next. A verdict that takes longer than a few
such stretches averages over them, so its wall time measures the neighbours
as much as fellsem, and no choice among repeats takes that out.

The probe samples the speed while the workload runs. Every ``INTERVAL``
seconds an interval timer interrupts the process, and the signal handler
times a fixed sum of ``TERMS`` fractions. Exact fraction arithmetic is what
fellsem's checks spend their time on, and it slows under contention about
as much as they do; a loop of small-integer arithmetic slows less, and a
walk over a large table much more. ``clock()`` is the wall clock without
the time spent in the handler, so the workload is timed as if the probe had
not run. ``factor(start, end)`` is the mean probe time over an interval of
that clock, over ``REFERENCE_S``: how much slower than the reference speed
the machine ran then. A time divided by the factor of its own interval is in
reference seconds, the time the same work takes on a machine where the
probe takes ``REFERENCE_S``. On 2 shared cores of an Intel Xeon, with
Python 3.11.7, the probe takes 85-100 us in fast stretches and about
150 us at the median, so reference seconds there are close to wall seconds.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

INTERVAL = 0.01
TERMS = 24
REFERENCE_S = 1.5e-4
# an interval with fewer probes in it than this takes the nearest ones
MIN_PROBES = 4


class SpeedProbe:
    def __init__(self):
        self.starts = []
        self.sums = [0.0]  # prefix sums of the probe times
        self.spent = 0.0
        self._previous = None

    def clock(self) -> float:
        # a probe that runs between the two reads would be counted on one
        # side only; read again until none did
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def _sample(self, signum, frame):
        entered = time.perf_counter()
        start = time.perf_counter()
        x = Fraction(0)
        for i in range(1, TERMS + 1):
            x = (x + Fraction(1, i)) % 1
        end = time.perf_counter()
        self.starts.append(start - self.spent)
        self.sums.append(self.sums[-1] + end - start)
        self.spent += time.perf_counter() - entered

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start: float, end: float) -> float:
        """Mean probe time over [start, end] of ``clock()``, over the
        reference; over the nearest ``MIN_PROBES`` probes when fewer fell
        inside."""
        n = len(self.starts)
        if n < MIN_PROBES:
            raise RuntimeError(f"the speed probe ran {n} times, fewer than {MIN_PROBES}")
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_right(self.starts, end)
        if hi - lo < MIN_PROBES:
            lo = min(max(0, bisect.bisect_left(self.starts, (start + end) / 2) - MIN_PROBES // 2),
                     n - MIN_PROBES)
            hi = lo + MIN_PROBES
        return (self.sums[hi] - self.sums[lo]) / (hi - lo) / REFERENCE_S
