"""Calibrated timing and the percentile rule.

Wall time on a shared virtual machine drifts by tens of percent within a
minute, so every timed interval is bracketed by a run of the calibration
kernel in the same process and thread, and reported at reference machine
speed:

    calibrated = measured * C_REF_MS / mean(cal_before, cal_after)

The kernel and ``C_REF_MS`` are frozen.  Changing either changes every
reported time, so it is a benchmark change, never part of a program change.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

# Median kernel time on the reference machine (2-vCPU Intel Xeon 2.0 GHz VM, Python 3.11,
# numpy 2.4).  Calibrated times are expressed at that machine's speed.
C_REF_MS = 4.0

_ARRAY = None


def kernel_ms() -> float:
    """Run the frozen calibration kernel once; return its wall time in ms.

    It mixes the three kinds of work the program does: a Python integer
    loop, ``Fraction`` arithmetic through a dict, and small numpy axis-sums.
    numpy is imported on the first call, outside the timed part, so that
    importing this module does not import numpy.
    """
    global _ARRAY
    if _ARRAY is None:
        import numpy as np

        _ARRAY = np.arange(1024, dtype=float).reshape((2,) * 10) / 523776.0
    start = time.perf_counter()
    acc = 0
    for i in range(12000):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
    table: dict[int, Fraction] = {}
    for i in range(1, 300):
        k = i % 17
        table[k] = table.get(k, Fraction(0)) + Fraction(i, 7 + k)
    total = 0.0
    for axis in range(10):
        total += float(_ARRAY.sum(axis=axis)[(0,) * 9])
    return (time.perf_counter() - start) * 1e3


def calibrate(measured: float, cal_before_ms: float, cal_after_ms: float) -> float:
    """Scale a measured duration to reference machine speed (same unit out)."""
    speed = (cal_before_ms + cal_after_ms) / 2.0
    if not speed > 0.0:
        raise ValueError(f"calibration slice must be positive, got {speed!r}")
    return measured * C_REF_MS / speed


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation between ranks."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q!r} outside 0..100")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(values, q: float, min_beyond: int = 10) -> tuple[float, int]:
    """The q-th percentile and the number of values above it.

    Raises ``ValueError`` when fewer than ``min_beyond`` values lie strictly
    above it: such a percentile rests on too few samples to be reported.
    """
    value = percentile(values, q)
    beyond = sum(1 for v in values if v > value)
    if beyond < min_beyond:
        raise ValueError(
            f"only {beyond} of {len(values)} values lie above p{q:g}; need {min_beyond}"
        )
    return value, beyond


def min_samples_for_tail(q: float, min_beyond: int = 10) -> int:
    """Smallest sample count whose q-th percentile can have ``min_beyond`` above it."""
    # with n distinct values, n - 1 - floor((n - 1) q / 100) of them lie above
    share = Fraction(q) / 100
    n = min_beyond + 1
    while n - 1 - math.floor((n - 1) * share) < min_beyond:
        n += 1
    return n
