"""The host-speed sampler: kernel time is left out of the clock, and the
timer and handler are put back when sampling ends."""

import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import hostspeed  # noqa: E402


def test_clock_leaves_out_sampled_kernel_time():
    host = hostspeed.HostSpeed()
    before = signal.getsignal(signal.SIGALRM)
    with host.sampling():
        t0, c0 = time.perf_counter(), host.clock()
        while len(host.samples) < 2:
            sum(range(1000))
        wall, clock = time.perf_counter() - t0, host.clock() - c0
    assert abs((wall - clock) - host.spent) < 1e-4
    assert host.spent == sum(host.samples)
    assert host.scale() == hostspeed.REFERENCE_S / host.kernel_s()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
