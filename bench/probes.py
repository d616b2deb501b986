"""Machine-speed probes: fixed numpy kernels that share nothing with eblab.

The machines this benchmark runs on are shared, and their speed drifts by
±25% over seconds to minutes.  The raw time of each CLI call and each
set-up sample is therefore scaled by ``speed_factor`` measured right
after it, with a probe that does the same kind of work:

* ``interp``: hundreds of numpy calls on 15 x 5 arrays, bound by the
  interpreter and call overhead, like mixture evaluation and the
  quadrature loop;
* ``array``: a Gaussian kernel matrix (1600 x 400) built elementwise and
  used in matrix-vector products, bound by memory and BLAS, like the
  NPMLE solver.

A program change leaves the probes untouched, so it moves the scaled time
as much as the raw time; a slower or faster machine moves the probe too.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.special import logsumexp

_Y = np.linspace(-3.0, 3.0, 15)
_ATOMS = np.linspace(-1.0, 1.0, 5)
_LOG_W = np.log(np.full(5, 0.2))


def _interp_kernel():
    total = 0.0
    for _ in range(60):
        diff = _Y[:, None] - _ATOMS
        terms = _LOG_W - 0.5 * diff * diff
        total += float(logsumexp(terms, axis=-1).sum())
        p = np.exp(terms - terms.max(axis=-1, keepdims=True))
        total += float((p / p.sum(axis=-1, keepdims=True) @ _ATOMS).sum())
    return total


_ROWS = np.linspace(-4.0, 4.0, 1600)
_COLS = np.linspace(-4.0, 4.0, 400)
_COL_WEIGHTS = np.full(400, 1.0 / 400)


def _array_kernel():
    # rebuilt on every call at half the NPMLE kernel's size, so the probe
    # stays below the peak resident memory of the workload it scales
    total = 0.0
    for _ in range(5):
        diff = np.subtract.outer(_ROWS, _COLS)
        f = np.exp(-0.5 * diff * diff)
        fvals = f @ _COL_WEIGHTS
        total += float((f.T @ (1.0 / fvals)).sum())
    return total


# kernel, repeats per measurement, median seconds on the reference machine
# (2-CPU x86-64, Python 3.11, numpy 2.4, OpenBLAS pinned to one thread)
PROBES = {
    "interp": (_interp_kernel, 3, 0.0078),
    "array": (_array_kernel, 1, 0.023),
}


def speed_factor(kind):
    """Reference time of the probe over its time now; below 1 on a slow machine."""
    kernel, repeats, reference = PROBES[kind]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return reference / statistics.median(times)
