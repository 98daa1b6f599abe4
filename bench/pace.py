"""Host-speed normalization of the benchmark's times.

The reference machine is a share of a busy host, and its speed drifts: the
same pure-Python loop runs up to twice as long in a slow stretch as in a
fast one, and a stretch lasts from seconds to minutes.  Raw wall times of
runs made minutes apart therefore differ by more than any useful bound.

So the runner samples a fixed reference kernel that does not touch treeot
before every operation and around every set-up (``Pace.sample``).  A time
``t`` measured at moment ``s`` is reported as ``t * REF_S / r``, with ``r``
the mean of the kernel samples taken within SPAN_S seconds of ``s``: the
time it would have taken at the speed at which the kernel runs in REF_S
seconds.  One sample is the mean time of a few kernel runs of about 2 ms
each.  It is the mean, not the fastest, because an operation meets the
host's slow moments as often as its fast ones; the fastest of a few runs
picks the fast moments and moves about twice as much as the operations do.
A sample is noisy, so it never scales one time alone, and the window
follows only the drift that outlasts a few seconds.  The kernel is plain
interpreter work (dict and list updates, float arithmetic, a sort), as the
library's hot loops are.  It tracks the host only on the CPU it runs on,
so the runner pins itself, and with it the ``cli`` children, to one CPU
(``pin``).  A change to treeot cannot change the kernel, so a slower
program still reads slower; only the host's share of the drift cancels.
"""

from __future__ import annotations

import bisect
import math
import os
import time

REF_S = 0.002      # nominal seconds of one kernel run
REPS = 3           # kernel runs per sample; their mean counts
SPAN_S = 5.0       # a time is scaled by the samples within this many seconds


def pin() -> None:
    """Run this process and its children on one CPU, the lowest it may use,
    so that the kernel samples the CPU the operations run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def kernel() -> float:
    table: dict[int, float] = {}
    acc = 0.0
    rows = []
    for i in range(3000):
        k = i % 97
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += math.sqrt(i + 1.0) * 1.0001
        rows.append((k, acc))
    rows.sort()
    return acc


class Pace:
    """Kernel samples and the moments they were taken, in time order."""

    def __init__(self):
        self.stamps: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> float:
        """Take one sample (the mean time of REPS kernel runs); returns the
        moment it ended, which stamps the time measured right after it."""
        t0 = time.perf_counter()
        for _ in range(REPS):
            kernel()
        stamp = time.perf_counter()
        self.stamps.append(stamp)
        self.samples.append((stamp - t0) / REPS)
        return stamp

    def scale(self, seconds: float, stamp: float) -> float:
        """`seconds`, measured at `stamp`, at the reference speed."""
        lo = bisect.bisect_left(self.stamps, stamp - SPAN_S)
        hi = bisect.bisect_right(self.stamps, stamp + SPAN_S)
        near = self.samples[lo:hi]
        return seconds * REF_S * len(near) / math.fsum(near)

    def speed(self) -> float:
        """The host's speed over the whole run, relative to the reference."""
        return REF_S * len(self.samples) / math.fsum(self.samples)
