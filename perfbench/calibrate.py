"""Host-speed reference for the benchmark's gated times.

The benchmark was written on a shared two-vCPU machine whose speed drifts
by up to 2x in phases of ten seconds to minutes; process CPU time drifts
with wall time, so no statistic over the jobs of one run removes it.
Every job and every set-up is therefore paired with ``reference_s``: a
fixed numpy loop that does not touch gcsloc, run with the job's thread
count just before and just after the job (the mean of the two is used).  The gated times are scaled to a fixed host speed,

    scaled = measured * NOMINAL_S[threads] / reference,

so that they read as seconds on a host where the loop takes NOMINAL_S.  On
that machine, the ratio of a job's time to the reference loop's varied by
about 4% between 20 s windows where the job's time itself varied by 50%.
The raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Median reference_s(threads) on the machine the benchmark was written on
# (2 vCPUs, Python 3.11, numpy 2.4, OpenBLAS pinned to one thread).
NOMINAL_S = {1: 0.0145, 2: 0.040}

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((9, 9)) + 1j * _rng.standard_normal((9, 9))
_VEC = _rng.standard_normal(9) + 0j
_MID = _rng.standard_normal((96, 96))
_BIG = _rng.standard_normal((128, 128))


def _loop():
    # Small-array calls (interpreter-bound, like the trajectory kernels)
    # and mid-size matrix products (compute-bound, like ensemble blocks).
    x = _VEC
    for _ in range(1500):
        y = _SMALL @ x
        x = y / np.linalg.norm(y)
        np.vdot(x, _SMALL @ x)
    for _ in range(20):
        _MID @ _MID


def _products():
    # Matrix products only: they release the GIL, so every thread runs at
    # once, as the ensemble's worker threads do.  Against the ensemble's
    # 2-thread jobs this tracked the host better than _loop in each thread,
    # and 40 ms of it better than 10 ms, which the host's scheduling jitter
    # moved by 10-15% from call to call.
    for _ in range(320):
        _BIG @ _BIG


def reference_s(threads=1):
    """Wall time of the reference loop: `_loop` on one thread, or
    `_products` on each of `threads` threads at once."""
    t0 = time.perf_counter()
    if threads == 1:
        _loop()
    else:
        with ThreadPoolExecutor(threads) as pool:
            for f in [pool.submit(_products) for _ in range(threads)]:
                f.result()
    return time.perf_counter() - t0


def scaled(seconds, reference, threads=1):
    """`seconds` measured beside `reference`, at the nominal host speed."""
    return seconds * NOMINAL_S[threads] / reference
