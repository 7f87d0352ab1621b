"""Host time in *reference seconds*.

The sandbox's CPU speed drifts by +-15 % over seconds (wall time equals CPU
time, so it is the core slowing down, not the process being descheduled).
Two sets of back-to-back runs of one deterministic simulation ranged over
23 % and 18 % of their median in raw wall time.  A fixed pure-Python kernel
timed between slices of the run tracks most of that drift: rescaling each
slice by the kernel timings around it brought the same runs within 2.7 % and
10 %.

So every host *timing* the ledger reports is wall time rescaled to the
speed at which a kernel pass takes ``REFERENCE_S`` -- about the sandbox's
typical speed, so a reference second is about a wall second there.  The
kernel is the benchmark's own code: no change to the program can move it.
"""

from __future__ import annotations

import time

#: One kernel pass at the reference sandbox's typical speed.
REFERENCE_S = 0.00115
_ITERATIONS = 13_000


def _pass_s() -> float:
    started = time.perf_counter()
    table = {}
    acc = 0
    for i in range(_ITERATIONS):
        table[i & 1023] = acc
        acc += i * 3 % 7
    return time.perf_counter() - started


def _kernel_s() -> float:
    """Wall time of a kernel pass: the median of three, so that a pass an
    interrupt landed on does not read as a slow core."""
    return sorted((_pass_s(), _pass_s(), _pass_s()))[1]


class HostClock:
    """Accumulates wall time, slice by slice, in reference seconds.

    Timing starts at construction; every :meth:`lap` closes the slice
    since the previous one and rescales it by the mean of the kernel
    timings taken before and after it.  Kernel time is not counted.
    """

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.reference_s = 0.0
        self._kernel_before = _kernel_s()
        self._resumed = time.perf_counter()

    def lap(self) -> None:
        wall = time.perf_counter() - self._resumed
        kernel_after = _kernel_s()
        speed = (self._kernel_before + kernel_after) / 2.0
        self.wall_s += wall
        self.reference_s += wall * REFERENCE_S / speed
        self._kernel_before = kernel_after
        self._resumed = time.perf_counter()
