"""Timings adjusted for the drifting speed of a shared host.

On a machine shared with other tenants the speed of one core drifts by tens
of percent over a few seconds, which buries the differences the benchmark
must resolve.  Each timed call is therefore bracketed by a fixed calibration
loop, and its duration rescaled to the speed at which that loop takes REF_S
seconds.  Reported times are these adjusted ones; run.py prints the raw
medians next to them.
"""

from __future__ import annotations

import time

import numpy as np

clock = time.perf_counter

REF_S = 0.010            # nominal duration of the calibration loop
_MATRIX = np.linspace(-1.0, 1.0, 256).reshape(16, 16)


def calibration_s() -> float:
    """A fixed mix of interpreter work and small numpy and LAPACK calls.

    About REF_S on a 2-core x86-64 host with CPython 3.11 and numpy 2.4.
    """
    t0 = clock()
    acc = 0
    for i in range(75_000):
        acc += i * i
    for _ in range(90):
        np.linalg.svd(_MATRIX)
        acc += float(np.linalg.norm(_MATRIX @ _MATRIX[0]))
    return clock() - t0


def timed(fn, *args):
    """(fn(*args), raw seconds, host-speed-adjusted seconds)."""
    before = calibration_s()
    t0 = clock()
    out = fn(*args)
    raw = clock() - t0
    after = calibration_s()
    return out, raw, raw * 2.0 * REF_S / (before + after)
