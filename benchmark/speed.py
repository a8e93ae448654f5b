"""Wall time corrected for CPU contention from outside the benchmark.

On a shared host the speed of a core swings by tens of percent within a
second as other tenants come and go, and a plain wall-time average over
a run moves with it.  While work is being measured, a 20 ms interval
timer runs a fixed dict-and-integer snippet twice in a signal handler
and records how long the second run took; the first run refills the
caches that the program evicted, so the timed run measures the core and
not the program's own memory footprint.  Each measured interval's wall
time is scaled by the mean of ``NOMINAL_S / duration`` over the samples
taken in it, which gives the time the work would take on a core that
runs the snippet in ``NOMINAL_S``: the reported seconds are seconds of
that reference core.  ``NOMINAL_S`` is the snippet's duration on an
uncontended core of the machine the benchmark was written on (a 2.1 GHz
x86-64 virtual machine), so there the correction is close to 1 when
nothing else runs.

The snippet touches no state of the program.  Its cost, about 170 us per
20 ms, lands in every measured interval alike.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array

INTERVAL_S = 0.02
SNIPPET_STEPS = 800
NOMINAL_S = 80e-6


def _snippet() -> int:
    table = {}
    acc = 0
    for i in range(SNIPPET_STEPS):
        table[i & 255] = i
        acc += table.get(i >> 1, 0)
    return acc


class SpeedSampler:
    def __init__(self) -> None:
        self.at = array("d")
        self.cost = array("d")

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _snippet()
        warm = time.perf_counter()
        _snippet()
        self.cost.append(time.perf_counter() - warm)
        self.at.append(start)

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def corrected(self, start: float, end: float) -> float:
        """Reference seconds of the interval ``[start, end]``.  An interval
        too short to hold a sample takes the nearest sample's ratio."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        if lo == hi:
            nearest = min(
                (i for i in (lo - 1, lo) if 0 <= i < len(self.at)),
                key=lambda i: abs(self.at[i] - start),
            )
            lo, hi = nearest, nearest + 1
        ratio = sum(NOMINAL_S / self.cost[i] for i in range(lo, hi)) / (hi - lo)
        return (end - start) * ratio
