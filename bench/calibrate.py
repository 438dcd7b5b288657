"""Machine-speed calibration.

The machines this benchmark runs on are shared, and their speed drifts:
on a 2-vCPU VM a fixed pure-Python loop ran anywhere from 261 to 466
iterations per second within one minute.  ``calibration_ns`` times a
fixed kernel that does not touch cesaro (interpreter loop, dict inserts,
one numpy pass).  A timing taken while the kernel needs c ns is scaled by
REFERENCE_NS / c, which reports it at the speed where the kernel needs
REFERENCE_NS.  Raw times are kept next to the scaled ones in every result.

A workload whose time goes to set and rational arithmetic in the
interpreter (``Workload.calibrate_sets``) adds a frozenset and Fraction
block to the kernel.  On the 2-vCPU VM, a fixed batch of exact queries
timed next to both kernels (300 samples, twice) gave batch/kernel ratios
spreading 0.11 and 0.08 (IQR over median) with the extended kernel
against 0.17 and 0.10 with the plain one; for a nullmod-chains batch the
plain kernel tracked better.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

#: kernel time the scaled timings refer to: about its median inside a
#: busy worker on the 2-vCPU VM the benchmark was written on (Python
#: 3.11, numpy 2.4), so scaled times there read close to raw ones
REFERENCE_NS = 2.0e6
#: the same for the kernel with the set block, about 1.7 times as long
REFERENCE_SETS_NS = 3.4e6


def _kernel(sets: bool) -> int:
    t = time.perf_counter_ns()
    s = 0
    for j in range(8000):
        s += j * j % 7
    d = {}
    for j in range(2000):
        d[j] = str(j)
    np.cumsum(np.arange(100_000, dtype=np.int64) % 3 == 0)
    if sets:
        a, b = frozenset(range(0, 30000, 3)), frozenset(range(0, 30000, 5))
        s += len(a & b) + len(a | b)
        f = Fraction(0)
        for j in range(1, 200):
            f += Fraction(1, j)
    return time.perf_counter_ns() - t


def calibration_ns(sets: bool = False) -> float:
    """Median of three runs of the kernel."""
    return statistics.median(_kernel(sets) for _ in range(3))


def reference_ns(sets: bool = False) -> float:
    return REFERENCE_SETS_NS if sets else REFERENCE_NS


def scale() -> float:
    """Factor that turns a timing taken now into reference-speed time."""
    return REFERENCE_NS / calibration_ns()
