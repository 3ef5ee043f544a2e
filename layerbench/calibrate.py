"""How fast the machine runs right now, measured with a fixed loop.

The benchmark runs on a few CPUs shared with other tenants.  The same
pure-Python and small-array numpy work there takes 1.5 to 1.9 times as
long in a slow phase as in a fast one, and phases last seconds to
minutes, so raw times of the same code spread far more than any gain a
change is meant to show.  One round of the loop below does the two kinds
of work ccbound does: arithmetic, reductions and argmax on small arrays,
each a separate interpreter step, then per-point float math and CSV-style
formatting in plain Python.  It does not call ccbound, so a change to the
program never changes its time.

The worker runs the loop right before and right after each group of tasks
and multiplies each task's time by ``REFERENCE_S`` over the mean of the
two: a *reference second* is what a second would be on a machine where
one round of the loop takes ``REFERENCE_S``.  On the shared 2-CPU machine,
with 0.2 s of work between rounds, this cut the quartile spread of the
medians of 8-second chunks of LP and CLI region work from 0.31-0.33 to
0.02-0.03.
"""

import math
import statistics
import time

import numpy as np

REFERENCE_S = 0.003  # one round of the loop at the reference speed
ARRAY_STEPS = 300
POINTS = 1500

_ARRAY = np.linspace(0.0, 1.0, 32 * 64).reshape(32, 64)


def one_round():
    """Seconds one round of the loop takes now."""
    a = _ARRAY
    start = time.perf_counter()
    for _ in range(ARRAY_STEPS):
        b = a * 1.0001
        b.sum(axis=0)
        np.argmax(b[0])
    rows = []
    for i in range(POINTS):
        x = i / POINTS
        rows.append(f"{x:.6f},{math.hypot(x, 0.5):.6f},{math.atan2(0.5, x):.6f}")
    "\n".join(rows)
    return time.perf_counter() - start


def calibrate(rounds=1):
    """Median seconds per round over ``rounds`` rounds."""
    return statistics.median(one_round() for _ in range(rounds))
