"""Build flags reported next to benchmark results.

The kernels in :mod:`ccbound.kernels` are plain numpy and are never
compiled.  This module survives only because ``layerbench/worker.py``
stamps both flags on every benchmark run; numba is looked up, never
imported.
"""

import importlib.util

HAVE_NUMBA = importlib.util.find_spec("numba") is not None

JIT_ENABLED = False
