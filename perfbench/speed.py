"""Machine-speed probe that rescales measured times to a reference speed.

The reference machine's CPU speed drifts by 15-30 % over minutes (other
tenants of the host), which moves every raw timing with it.  ``sample``
times a fixed kernel that mixes the operations fblab spends its time in:
tuple-keyed dict updates, Fraction arithmetic and uint64 NumPy passes.  A
timing t taken next to a sample s is reported as t * REF_S / s, i.e. in
seconds at the speed at which the kernel takes REF_S.  The kernel uses no
fblab code, so a change to fblab cannot change the scale.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# A fixed scale near the kernel's time on the reference machine (2 vCPUs,
# Python 3.11.7, NumPy 2.4.6), where ``sample()`` read 0.009-0.017 s.
# Changing it rescales every recorded figure.
REF_S = 0.01


def _kernel() -> float:
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(15_000):
        k = (i % 97, i % 89)
        d[k] = d.get(k, 0) + i
    f = Fraction(0)
    for i in range(1, 400):
        f = (f + Fraction(i, 1_000_003)) * Fraction(999_983, 1_000_003)
    a = np.arange(100_000, dtype=np.uint64)
    for _ in range(6):
        a = (a * np.uint64(0x9E3779B97F4A7C15)) ^ (a >> np.uint64(7))
    return time.perf_counter() - t0


def sample() -> float:
    """Seconds the kernel takes now: the faster of two runs."""
    return min(_kernel(), _kernel())


def rescale(seconds: float, *samples: float) -> float:
    """``seconds`` measured next to ``samples``, at the reference speed."""
    return seconds * REF_S * len(samples) / sum(samples)
