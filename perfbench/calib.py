"""Host-speed calibration for the geonorm benchmark.

The benchmark's host is a shared VM whose CPU throughput swings by up to
a factor of two within seconds, as neighbours load the physical cores.
Process CPU time swings with it, so neither wall nor CPU time of one run
says how fast the program is.  The benchmark therefore runs a fixed
pure-Python kernel between ops and reports times scaled to a reference
speed: a time ``x`` measured while the kernel took ``k`` ms is reported
as ``x * REFERENCE_MS / k``.  The kernel uses no geonorm code, so a change
to geonorm moves the scaled times and leaves the scale alone.

The kernel mimics what geonorm spends its time on: Fraction arithmetic
in Gauss-Jordan elimination, small tuples and dicts, and sorting.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction as F

# The kernel's time at the reference speed.  On a shared 2-vCPU 2.1 GHz
# Xeon VM one call takes 0.67 ms to 2.2 ms, 0.72 ms at the median,
# depending on the load on the host.
REFERENCE_MS = 0.75
# Calls per sample; a sample is their median.
CALLS = 5

_MATRIX = tuple(tuple(F((7 * i + 3 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(7))
                for i in range(6))


def kernel():
    rows = [list(r) for r in _MATRIX]
    lead = 0
    for r in range(len(rows)):
        pivot = next((i for i in range(r, len(rows)) if rows[i][lead]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][lead]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][lead]:
                c = rows[i][lead]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[r])]
        lead += 1
    table = {}
    for k in range(400):
        key = (k % 17, k % 13)
        table[key] = table.get(key, 0) + k
    return sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))[0], rows[0][-1]


def sample_ms():
    """One calibration sample: the median time of CALLS kernel calls, ms."""
    times = []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def scale(before_ms, after_ms):
    """Factor that turns a time measured between two samples into reference time."""
    return 2 * REFERENCE_MS / (before_ms + after_ms)
