"""A fixed reference workload that gauges the machine's current speed.

On a shared VM the same fixed work can take 1.5-2.5x longer from one
minute to the next, because other tenants contend for the memory system.
That drift moves every timing by about the same factor, so the benchmark
times this reference before every cell and after the last, and reports
each cell's wall time as a multiple of the mean of the two references
either side of it (``wall_rel``).  A change to the program moves the cell
walls and not the reference, so ``wall_rel`` follows the program while
the machine's drift mostly cancels out.

The reference uses nothing from ``repro``.  It mixes the two kinds of work
the program does: dict and tuple churn (the generators' states, trees and
caches) and many numpy operations on small arrays (the solver's search).
Its working set is about 1 MB, so it barely touches ``peak_rss_mb``.
"""

from __future__ import annotations

import random
import time

import numpy as np


def _reference() -> None:
    rng = random.Random(0)
    for _ in range(30):
        table = {i: (i, str(i)) for i in range(2_000)}
        keys = [rng.randrange(2_000) for _ in range(2_500)]
        total = 0
        for key in keys:
            total += table[key][0]
        keys.sort()
    values = np.arange(16.0)
    for i in range(5_000):
        scaled = np.abs(values - i) * 0.5
        values = np.where(scaled > 3, values, scaled) + 1.0


def reference_s() -> float:
    """Wall time of one run of the reference workload (about 0.1 s)."""
    start = time.perf_counter()
    _reference()
    return time.perf_counter() - start
