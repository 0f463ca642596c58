"""Machine-speed calibration for the in-process workloads.

On a shared machine the speed of identical pure-Python work drifts by up
to a factor of two over minutes (other tenants, frequency), which buries
any change to the program.  A fixed kernel that does not touch the
package -- dict, tuple, int and Fraction work like the package's -- is
timed every 100 ms from a timer signal, also in the middle of a long op,
and each op's time is scaled by ``REFERENCE_S / kernel time`` around
that op: the time the op would take on a machine that runs the kernel in
``REFERENCE_S``.  On the machine this was built on, that is about its
ordinary speed.  The kernel's own time is taken out of the op it
interrupted.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 1.7e-3
INTERVAL_S = 0.1
WINDOW_S = 0.25


def kernel():
    table = {}
    acc = Fraction(0)
    for i in range(400):
        key = (i % 37, i * 3 % 7)
        table[key] = table.get(key, 0) + i
        acc += Fraction(i % 5, 7)
    return acc


class Speed:
    """Kernel timings taken along a pass."""

    def __init__(self):
        self.at = []       # start of each sample (perf_counter)
        self.took = []     # kernel time of each sample

    def sample(self, count=1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            kernel()
            self.at.append(t0)
            self.took.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def inside(self, start, end) -> float:
        """Kernel time spent in samples taken between ``start`` and ``end``."""
        lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_left(self.at, end)
        return sum(self.took[lo:hi])

    def around(self, start, end) -> float:
        """Median kernel time of the samples within ``WINDOW_S`` of the
        interval, or of the nearest ones on each side."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        lo = min(lo, max(0, bisect.bisect_left(self.at, start) - 1))
        hi = max(hi, bisect.bisect_right(self.at, end) + 1)
        return statistics.median(self.took[lo:hi])
