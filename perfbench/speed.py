"""Speed gauge: how fast the machine runs while the benchmark measures.

The baseline machine shares its cores with other tenants.  Its speed
switches between two states about 2x apart every few milliseconds, and the
share of time spent slow drifts over seconds and minutes.  While the gauge
is on, an interval timer interrupts the benchmark every PERIOD_S and runs a
fixed kernel that never touches the package, so the kernel samples the same
stretch of time as the items, including time inside long items.  Like the
items, the kernel is timed in process CPU time.  The kernel's time is taken
out of the latency of the item it interrupted.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

# the kernel's time on the baseline machine in its fast state
REFERENCE_S = 400e-6
PERIOD_S = 0.02


def kernel():
    """Interpreted arithmetic and small NumPy calls, the package's own mix."""
    x = 0.0
    for i in range(1000):
        x += math.sqrt(i * 0.5 * (i + 1.0)) / (1.0 + abs(x))
    a = np.linspace(0.0, 1.0, 8)
    for _ in range(50):
        a = np.abs(np.exp(1j * a)) * a
    return x


def slowdown(ticks):
    """Mean kernel time of `ticks` over REFERENCE_S; None without ticks."""
    if not ticks:
        return None
    return sum(cpu for _, _, cpu in ticks) / len(ticks) / REFERENCE_S


class SpeedGauge:
    """Kernel runs every PERIOD_S while the gauge is on."""

    def __init__(self):
        # each kernel run: (start, end) on the wall clock, to place it
        # within an item, and the CPU time it took
        self.ticks = []
        self._previous = None

    def _tick(self, signum, frame):
        start, cpu_start = time.perf_counter(), time.process_time()
        kernel()
        self.ticks.append((start, time.perf_counter(), time.process_time() - cpu_start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def within(self, first, start, end):
        """Ticks from index `first` on that ran inside [start, end]."""
        return [tick for tick in self.ticks[first:] if tick[0] >= start and tick[1] <= end]
