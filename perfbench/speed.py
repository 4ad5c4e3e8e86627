"""The host's speed, sampled while the work runs.

On the machines this benchmark was written on, the time of the same pass
drifts by up to 2x within tens of seconds, as other tenants load the shared
cores; a fixed piece of pure-Python work drifts with it.  A SpeedProbe
interrupts the measured process every PERIOD_S seconds with a timer signal
and times one slice of benchmark-owned integer arithmetic (no metlie code).
A stretch of the program's own work is then reported at the reference
speed: each part of it between two slices is scaled by REF_SLICE_S over the
mean time of those two slices, and the slices themselves are left out.  The
unscaled times are kept as well.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.2
SLICE_STEPS = 60_000
# About the time of one slice on a 2-vCPU Xeon host at its fastest (Python
# 3.11): the speed every scaled time is reported at.
REF_SLICE_S = 0.007


def slice_work() -> int:
    """A fixed amount of small-integer arithmetic.  It allocates no object
    the garbage collector counts, so the slices do not move the points where
    the measured program's collections run, nor its peak memory."""
    s = 0
    for i in range(SLICE_STEPS):
        s += (i * i) % 7 ^ (i >> 3)
    return s


class SpeedProbe:
    """Context manager: times a slice on entry, every PERIOD_S seconds, and
    on exit.  Slice k ran from starts[k] to ends[k]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _slice(self, *_):
        start = self.clock()
        slice_work()
        end = self.clock()
        self.starts.append(start)
        self.ends.append(end)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        self._slice()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._slice()
        return False

    def slice_s(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(unscaled, reference-speed) seconds of program work in [start, end]:
        the interval less the slices inside it, and the same scaled gap by gap."""
        starts, ends = self.starts, self.ends
        raw = scaled = 0.0
        k = max(1, bisect.bisect_right(ends, start))
        while k < len(starts):
            lo, hi = max(ends[k - 1], start), min(starts[k], end)
            if hi > lo:
                mean_slice = (ends[k - 1] - starts[k - 1] + ends[k] - starts[k]) / 2
                raw += hi - lo
                scaled += (hi - lo) * REF_SLICE_S / mean_slice
            if starts[k] >= end:
                break
            k += 1
        return raw, scaled
