"""Machine-speed calibration: a fixed reference kernel timed between operations.

The benchmark's host is shared, and its speed drifts for every process
alike: the same call runs up to 1.8x slower for tens of seconds at a time,
depending on what else the host runs.  Ten runs of 20 s each therefore
spread by 15-25% on unchanged code, and longer runs do not help much, since
the drift lasts minutes.

So the benchmark times a fixed piece of pure-Python work, the reference
kernel (integer, complex and Fraction arithmetic in about equal shares),
in short bursts between operations.  It scales each operation's time by
NOMINAL_S over the mean kernel time near that operation.  A scaled time is
therefore the time the operation would take on a machine where one kernel
call takes NOMINAL_S.  The kernel's code never changes, so a change in the
library's speed moves scaled times as much as raw ones.  A change in the
machine's speed moves both the library and the kernel, and the ratio cancels
most of it.

A cold start of the CLI slows with the machine less than in-process Python
work does: it is mostly loading files and extension modules.  On cli-cold
the reference is therefore a fresh interpreter that imports numpy, started
before each invocation (cold_start).
"""

from __future__ import annotations

import bisect
import itertools
import sys
import time
from fractions import Fraction

import workloads

#: the kernel's time on the nominal machine that scaled times are stated for
NOMINAL_S = 200e-6
#: the time of cold_start on the nominal machine
COLD_NOMINAL_S = 0.150
#: a burst of reference calls starts once this long has passed since the last ended
INTERVAL_S = 0.010
#: a burst lasts this share of the time since the previous burst ended
SHARE = 0.05
#: an operation is scaled by the reference calls whose midpoints lie this close to it
WINDOW_S = 0.100


def kernel() -> tuple:
    """The reference work: integer, complex and Fraction arithmetic."""
    acc = 0
    for k in range(1, 900):
        acc += (k * 7919 + acc) % 101
    z = 0j
    for k in range(1, 180):
        z += complex(k, 1.0) ** (-0.5 + 3j)
    f = Fraction(3, 7)
    for k in range(1, 14):
        f = f * Fraction(k, k + 2) + 1
        f = Fraction(f.numerator % 1000003, f.denominator % 999983 + 1)
    return acc, z, f


def cold_start() -> None:
    """The reference for cold starts: a fresh interpreter that imports numpy."""
    result = workloads.run_child([sys.executable, "-c", "import numpy"], timeout=30.0)
    if result.returncode != 0:
        raise RuntimeError(f"reference interpreter failed: {result.stderr.decode()[-2000:]}")


class Calibrator:
    """Reference calls made between operations, and the scaling they give."""

    def __init__(self, reference=kernel, nominal: float = NOMINAL_S, warmup: int = 20,
                 window: float = WINDOW_S) -> None:
        self.reference = reference
        self.nominal = nominal
        self.window = window
        #: midpoint and duration of each timed reference call
        self.mids: list[float] = []
        self.costs: list[float] = []
        self.last = None
        # untimed calls first: specialised bytecode, or the page cache for cold_start
        for _ in range(warmup):
            reference()

    def burst(self, seconds: float) -> None:
        """Time reference calls for about the given seconds, and at least one."""
        clock = time.perf_counter
        stop = clock() + seconds
        while True:
            t0 = clock()
            self.reference()
            t1 = clock()
            self.mids.append((t0 + t1) / 2)
            self.costs.append(t1 - t0)
            if t1 >= stop:
                break
        self.last = clock()

    def between(self) -> None:
        """Called between operations: a burst once INTERVAL_S has passed since the last."""
        if self.last is None:
            self.burst(INTERVAL_S * SHARE)
            return
        idle = time.perf_counter() - self.last
        if idle >= INTERVAL_S:
            self.burst(idle * SHARE)

    def factor(self, start: float, end: float, sums: list[float]) -> float:
        lo = bisect.bisect_left(self.mids, start - self.window)
        hi = bisect.bisect_right(self.mids, end + self.window)
        if hi == lo:
            return self.nominal * len(self.costs) / sums[-1]
        return self.nominal * (hi - lo) / (sums[hi] - sums[lo])

    def scale(self, spans: list[tuple[float, float]]) -> list[float]:
        """Each (start, end) span's duration, scaled to the nominal machine."""
        sums = [0.0, *itertools.accumulate(self.costs)]
        return [(end - start) * self.factor(start, end, sums) for start, end in spans]

    def speed(self) -> float:
        """The machine's mean speed over the calibrated time, relative to nominal."""
        return self.nominal * len(self.costs) / sum(self.costs)
