"""Host speed, measured while a run goes.

On a shared host the CPU runs the same code up to twice as slowly in
spells that last from seconds to minutes (other tenants on the sibling
hyperthread, contention for cache and memory bandwidth).  Process CPU
time stretches with wall time in such a spell, so no clock of the
process tells the spell apart from the program.  A run therefore times a
fixed kernel between its slices: interpreter arithmetic and small numpy
reductions and sorts, the two kinds of work the program does.  The
kernel's median time over :data:`REFERENCE_S` is the *host factor* of
that moment.  Every latency sample is divided by the median factor of
the calibrations around it (``paths.Ledger.host_adjusted``), and the
gated figures, computed from those, read as on the reference host.

The kernel runs in this process between operations, while the program
is idle, and touches nothing of the program's.  A program that keeps
CPU-bound threads busy between operations would slow the kernel too,
which would hide part of that cost; the raw host times are printed next
to the gated ones.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Median kernel time in seconds on the host the bounds were set on, a
#: 2-vCPU Xeon VM in a quiet spell.  Fixed: a factor of 1 means that host.
REFERENCE_S = 0.002
#: Kernel timings per calibration.
REPEATS = 5

_VALUES = np.random.default_rng(0).random(1 << 15)


def kernel() -> float:
    """Time one pass of the fixed kernel (about 2 ms at factor 1)."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    for _ in range(20):
        _VALUES.sum()
        np.sort(_VALUES[:4096])
    return time.perf_counter() - start


class HostClock:
    """Kernel timings of one stretch of a run."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def calibrate(self) -> float:
        """Time the kernel; returns the host factor of this moment."""
        timings = [kernel() for _ in range(REPEATS)]
        self.samples.extend(timings)
        return statistics.median(timings) / REFERENCE_S

    def factor(self) -> float:
        """How much slower than the reference host this stretch ran."""
        return statistics.median(self.samples) / REFERENCE_S

    def describe(self, label: str) -> str:
        median_ms = statistics.median(self.samples) * 1e3
        return (f"host speed ({label}): kernel median {median_ms:.3f} ms "
                f"over {len(self.samples)} timings, reference "
                f"{REFERENCE_S * 1e3:.3f} ms, factor {self.factor():.4f}")
