"""Host-speed reference for the benchmark's timings.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
tens of percent within minutes, and a drift that size swamps any regression
bound a run of this length could hold.  So every timed stretch is measured
next to reference slices: fixed computations that import nothing from qzeta
and are timed with the cyclic garbage collector paused, so that neither the
program's code nor the size of its heap can change what a slice costs.

Neighbouring tenants slow different kinds of work by different factors: on
the 2-vCPU host of the baseline, interpreter-bound arithmetic on small
numbers swung about twice as far as numpy sweeps or arithmetic on numbers
of thousands of bits.  So there is one kind of slice per kind of work, and
each workload is measured against the kind it does (``Workload.reference``):

- ``small-fractions``: ``Fraction`` sums of small numbers, where the
  interpreter's dispatch dominates, as in ``expand`` and the per-resolution
  DP;
- ``large-fractions``: ``Fraction`` sums of numbers of thousands of bits, as
  in the q-series and the prefactor at n_max = 40;
- ``arrays``: numpy sweeps over 16K-element arrays, as in the classical
  limit.

A time ``t`` measured where a slice took ``r`` is reported as
``t * NOMINAL_MS[kind] / r``: the time at the host speed at which a slice
takes ``NOMINAL_MS[kind]``.  The raw times are printed on the record line
next to the host's measured slowdown ``r / NOMINAL_MS[kind]``.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

import numpy as np

CHUNK = 16384


def _small_fractions() -> Fraction:
    total = Fraction(0)
    for _ in range(9):
        total = Fraction(0)
        for k in range(1, 300):
            total += Fraction(1, k * k)
    return total


def _large_fractions() -> Fraction:
    total = Fraction(0)
    for _ in range(3):
        total = Fraction(0)
        for k in range(1, 120):
            total += Fraction(2**k, 2 ** (k + 1) - 1) * Fraction(1, 3**k + 1)
    return total


def _arrays() -> float:
    out = 0.0
    for c in range(30):
        ks = np.arange(1 + c * CHUNK, 1 + (c + 1) * CHUNK, dtype=np.float64)
        inner = np.cumsum(ks**-2.0)
        out += float(np.cumsum(ks**-3.0 * inner)[-1])
    return out


SLICES = {
    "small-fractions": _small_fractions,
    "large-fractions": _large_fractions,
    "arrays": _arrays,
}
# Median slice times on the 2-vCPU host the baseline was recorded on; they
# only fix the unit of the reported times.
NOMINAL_MS = {
    "small-fractions": 11.0,
    "large-fractions": 10.7,
    "arrays": 9.7,
}


def slice_ms(kind: str) -> float:
    """Milliseconds one reference slice of this kind takes right now."""
    work = SLICES[kind]
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        work()
        return (time.perf_counter() - t0) * 1000.0
    finally:
        if enabled:
            gc.enable()


def slowdown(kind: str, count: int = 1) -> float:
    """The host's slowdown now: the median of ``count`` slices over nominal."""
    return statistics.median(slice_ms(kind) for _ in range(count)) / NOMINAL_MS[kind]
