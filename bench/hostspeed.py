"""Host speed, sampled while a run measures, to put its times on one scale.

The benchmark gets a few cores of a shared host, and the speed those cores
give one process drifts by a factor of up to 1.7 within minutes.  Every
time a run measures moves with it, so runs of the same code minutes apart
disagree by more than a regression worth catching.

While a run measures, a timer interrupts it every ``INTERVAL_S`` seconds
and times a fixed loop of plain integer arithmetic, ``kernel``.  The run
then reports each time ``t`` as ``t * REFERENCE_S / median(kernel times)``:
what ``t`` would have been on the host at the speed where the kernel takes
``REFERENCE_S``.  The kernel uses no code of masseytc and no heap the
program built, so no change to masseytc moves it, and a change in the
program's speed shows in full in the scaled times.  The time spent in the
kernel is taken out of the times measured (``clock``).

Of the fixed kernels tried, this one tracked the drift best.  Over ten
runs of each workload the spread (interquartile range / median) of the
scaled op median was 0.052 on golden, 0.103 on massey-cli and 0.105 on
stress-nil, against 0.129, 0.174 and 0.101 unscaled.  A kernel of
``Fraction`` elimination on sparse rows, closer to masseytc's own code,
timed between ops, tracked the drift worse than no correction at all.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

# Median kernel time, in seconds, at the reference speed.  Fixed once: it
# only sets the unit of the scaled times.
REFERENCE_S = 0.0018
INTERVAL_S = 0.5
_LOOPS = 25_000


def kernel() -> int:
    s = 0
    for i in range(_LOOPS):
        s += (i * 7) % 13
    return s


class HostSpeed:
    """Kernel times of one run, and a clock that leaves them out."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def clock(self) -> float:
        """perf_counter minus the time spent timing the kernel."""
        return time.perf_counter() - self.spent

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t = time.perf_counter() - t0
        self.samples.append(t)
        self.spent += t

    @contextlib.contextmanager
    def sampling(self):
        """Time the kernel every INTERVAL_S seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def kernel_s(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor that turns this run's times into reference-speed times."""
        return REFERENCE_S / self.kernel_s()
