"""Host speed, measured next to every timed call, to take host drift out of the times.

On the 2-vCPU VM this benchmark was defined on, the same load or solve runs
30-40% slower for stretches of 10-20 s at a time: other tenants share the
physical cores.  A 20 s run sees one or two such stretches, so raw medians
spread across runs by more than any useful bound.  Before each timed call
the benchmark therefore times a fixed calibration that never touches the
package (an interpreter loop and a numpy argsort), on one process for a
single-process call and on a fork pool of the same size for a parallel one.
An end-to-end time is reported at the reference speed:

    median(call seconds) / median(calibration seconds / REF)

so it reads in seconds on the defining host at its usual speed, and a change
to the package moves it exactly as it moves the raw time.  The raw medians
are kept in the run record.
"""

from __future__ import annotations

import multiprocessing as mp
import statistics
import time

import numpy as np

# usual calibration seconds on the defining host (see perfbench/README.md)
REF_S = 0.016
REF_POOL_S = 0.054

_DATA = np.random.default_rng(0).random(200_000)


def calibrate() -> float:
    """Seconds for the fixed calibration in this process."""
    t0 = time.perf_counter()
    x = 0
    for i in range(100_000):
        x += i * i % 7
    _DATA[np.argsort(_DATA)[:1000]].sum()
    return time.perf_counter() - t0


def _worker(_):
    return calibrate()


def calibrate_pool(workers: int) -> float:
    """Wall seconds for 2 * workers calibrations on a fresh fork pool of ``workers``."""
    t0 = time.perf_counter()
    with mp.get_context("fork").Pool(workers) as pool:
        pool.map(_worker, range(2 * workers), chunksize=1)
    return time.perf_counter() - t0


def slowness(workers: int) -> float:
    """Host slowness right now, for a call on ``workers`` processes: 1.0 is usual."""
    if workers == 1:
        return calibrate() / REF_S
    return calibrate_pool(workers) / REF_POOL_S


def at_reference_speed(samples) -> float:
    """median(seconds) / median(slowness) over (seconds, slowness) pairs."""
    return (statistics.median(t for t, _ in samples)
            / statistics.median(s for _, s in samples))


def raw_median(samples) -> float:
    return statistics.median(t for t, _ in samples)
