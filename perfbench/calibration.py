"""Host-speed calibration: a fixed loop timed next to every measurement.

On a shared 2-core VM the host's speed drifts by 20-40% over tens of
seconds, so raw wall times of identical runs minutes apart spread further
than any useful regression bound.  The calibration times three fixed
pieces of the kinds of work pifmap does, and never calls pifmap:

- exact ``Fraction`` arithmetic in the interpreter (unit algebra),
- numpy element-wise passes over a 100,000-element vector (evaluation,
  standardization),
- a 2000 x 300 Gram product through BLAS (ridge fits).

Each piece's time is divided by its time on the reference host, and the
geometric mean of the three ratios is the host's slowness factor: 1.0 at
reference speed, 1.2 when everything runs 20% slower.  The benchmark
reports wall time divided by that factor, i.e. seconds at the reference
host's speed (2-vCPU x86-64 VM, Python 3.11.7, numpy 2.4.6 with one
OpenBLAS thread).  A change to pifmap moves these times exactly as it
moves raw wall time; only drift of the host cancels.  The three kinds
together tracked the drift of every workload better than any one alone.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

# Median nanoseconds of each piece on the reference host.
REFERENCE_NS = (9_500_000, 4_500_000, 4_700_000)

_RNG = np.random.default_rng(0)
_VECTOR = _RNG.random(100_000)
_TALL = _RNG.random((2000, 300))


def _fractions() -> None:
    total = Fraction(0)
    for i in range(1, 3000):
        total += Fraction(1, i % 97 + 1)


def _elementwise() -> None:
    for _ in range(20):
        float((np.sqrt(_VECTOR) * _VECTOR + 1.0).sum())


def _gram() -> None:
    float((_TALL.T @ _TALL).sum())


def calibrate() -> float:
    """The host's slowness factor now: 1.0 at the reference host's speed."""
    log_sum = 0.0
    for piece, reference in zip((_fractions, _elementwise, _gram), REFERENCE_NS):
        start = time.perf_counter_ns()
        piece()
        log_sum += math.log((time.perf_counter_ns() - start) / reference)
    return math.exp(log_sum / len(REFERENCE_NS))


def to_reference_s(wall_ns: float, slowness: float) -> float:
    """A wall time in seconds at the reference host's speed."""
    return wall_ns / slowness / 1e9
