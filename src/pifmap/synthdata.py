"""Seeded synthetic datasets for the bundled experiments.

Determinism contract: every generator reads one PCG64 stream, seeded by
``seed``, in C (row-major) order: row after row, one uniform per raw
feature in the documented order, then maps each column through a fixed
affine or exponential transform.  Identical seeds therefore give
bit-identical datasets on every platform.

Each generator takes only ``n`` and ``seed``; its sampling ranges are the
module's constants, and every dataset's provenance records them.
Labels come out noiseless and unscaled, in the unit the dataset declares;
relative uniform noise is applied separately by :func:`add_noise` with its
own seed so feature and noise streams never alias.  Classification labels
are hard signs and are never noised.

:func:`_generate` reads the stream a block of rows at a time, builds that
block's columns and labels with the generator's row formula and writes
them into the preallocated C-contiguous feature matrix and label vector.
The block's uniforms are the stream's next doubles in the same order as
one ``(n, k)`` draw, and every column and label is computed elementwise,
so the dataset equals, bit for bit, the formulas applied to one ``(n, k)``
block and stacked with ``np.column_stack``.  Beyond its output a
generator holds one block: the dataset's finite check sums ``X`` and
``y`` and builds no mask unless a sum is not finite.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset, FeatureSchema, schema_of
from .dimension import Dimension, parse_unit
from .errors import (
    DegenerateClassBalanceWarning,
    InvalidNoiseLevel,
    InvalidRange,
)
from .featuremap import STANDARD_CONSTANTS

__all__ = [
    "NoiseConfig",
    "gen_bernoulli",
    "gen_pulsar",
    "gen_binary",
    "add_noise",
]

_RNG_NAME = "PCG64"
# Rows per block when generating a dataset.
_BLOCK_ROWS = 4096

# Each generator's sampling ranges in its draw order:
# feature -> (low, high, log-uniform).
_BERNOULLI_RANGES = {
    "p": (5e4, 2e5, False),
    "rho": (1.0, 1.2e3, False),
    "v": (0.5, 20.0, False),
    "Q": (1e-4, 1e-1, False),
    "A": (1e-4, 1e-1, False),
    "mu": (1e-5, 1e-1, False),
    "h": (0.1, 50.0, False),
}
_PULSAR_RANGES = {
    "r": (1e4, 2e4, False),
    "B": (1e4, 1e9, True),
    "omega": (0.1, 500.0, False),
    "alpha": (0.0, math.pi / 2, False),
    "m": (2e30, 4e30, False),
}
# These keep both classes populated AND keep the evaluated energy monomials
# within a few decades; wider (or log-uniform) mass and velocity spans make
# the least-squares class scores collapse toward the prior for the bulk of
# rows and the mapped arm loses its edge.
_BINARY_RANGES = {
    "m1": (1e30, 5e30, False),
    "m2": (1e30, 5e30, False),
    "v": (1e4, 1e5, False),
    "r": (1e10, 1e13, True),
}

_G = STANDARD_CONSTANTS["g"].value
_MU0 = STANDARD_CONSTANTS["mu0"].value
_C = STANDARD_CONSTANTS["c"].value
_G_NEWTON = STANDARD_CONSTANTS["G"].value


def _check_seed(seed) -> int:
    """``seed`` as an int; :class:`InvalidRange` unless it is a non-negative
    integer (a NumPy integer is one, a bool is not)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidRange(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def _check_rows(n) -> int:
    """``n`` as an int; :class:`InvalidRange` unless it is a positive
    integer (a NumPy integer is one, a bool or float is not)."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidRange(f"n must be a positive integer, got {n!r}")
    return int(n)


@dataclass(frozen=True)
class NoiseConfig:
    """Relative uniform label noise: ``y * (1 + U(-level, level))``."""

    level: float
    seed: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.level) or not 0.0 <= self.level < 1.0:
            raise InvalidNoiseLevel(
                f"noise level must satisfy 0 <= level < 1, got {self.level}"
            )
        _check_seed(self.seed)


def _map_uniform(u: np.ndarray, low: float, high: float, log: bool) -> np.ndarray:
    if log:
        lo, hi = math.log(low), math.log(high)
        return np.exp(lo + (hi - lo) * u)
    return low + (high - low) * u


@functools.cache
def _units(
    features: tuple[tuple[str, str], ...], label_unit: str
) -> tuple[FeatureSchema, Dimension]:
    # Each generator passes the same units on every call, so this parses
    # them once per process and holds one entry per generator; the schema
    # and dimension are frozen, so every dataset can share them.
    return schema_of(features), parse_unit(label_unit)


def _generate(
    name: str, n: int, seed: int, ranges: dict, rows,
    features: tuple[tuple[str, str], ...], label_unit: str,
) -> Dataset:
    """The ``name`` dataset of ``n`` rows, a block of rows at a time.

    Each block's uniforms are mapped to one column per entry of ``ranges``,
    in order, and ``rows(*columns)`` returns the block's feature columns
    and its labels.  The matrix is C-contiguous.
    """
    n = _check_rows(n)
    _check_seed(seed)
    schema, label_dimension = _units(features, label_unit)
    bounds = list(ranges.values())
    rng = np.random.Generator(np.random.PCG64(seed))
    X = np.empty((n, len(schema)))
    y = np.empty(n)
    for start in range(0, n, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        u = rng.random((min(n - start, _BLOCK_ROWS), len(bounds)))
        columns, y[block] = rows(*[_map_uniform(u[:, j], *b) for j, b in enumerate(bounds)])
        for j, column in enumerate(columns):
            X[block, j] = column
    return Dataset(
        schema=schema,
        X=X,
        y=y,
        label_dimension=label_dimension,
        provenance={
            "generator": name,
            "n": n,
            "seed": seed,
            "rng": _RNG_NAME,
            "ranges": {
                feature: {
                    "low": low,
                    "high": high,
                    "sampling": "log-uniform" if log else "uniform",
                }
                for feature, (low, high, log) in ranges.items()
            },
            "noise": None,
        },
    )


def _bernoulli_rows(p, rho, v, q, a, mu, h):
    return (p, rho, v, q, a, mu, h), p + 0.5 * rho * v ** 2 + rho * _G * h


def gen_bernoulli(n: int, seed: int) -> Dataset:
    """Viscous pipe flow: ``y = p + 0.5*rho*v^2 + rho*g*h`` in Pa.

    Feature draw order: p, rho, v, Q, A, mu, h.  Only the first three
    features and h enter the label; Q, A and mu are distractors.

    Its ``tracemalloc`` peak at 200,000 rows is under 1.07x ``X`` and ``y``.
    """
    return _generate("bernoulli", n, seed, _BERNOULLI_RANGES, _bernoulli_rows, (
        ("p", "kg/(m*s^2)"),
        ("rho", "kg/m^3"),
        ("v", "m/s"),
        ("Q", "m^3/s"),
        ("A", "m^2"),
        ("mu", "kg/(m*s)"),
        ("h", "m"),
    ), "Pa")


def _pulsar_rows(r, b, omega, alpha, m):
    period = 2.0 * math.pi / omega
    inertia = 0.4 * m * r ** 2
    energy = 0.5 * inertia * omega ** 2
    y = (
        -2.0 * math.pi * b ** 2 * r ** 6 * omega ** 4 * np.sin(alpha) ** 2
        / (3.0 * _MU0 * _C ** 3)
    )
    return (r, b, omega, alpha, period, m, inertia, energy), y


def gen_pulsar(n: int, seed: int) -> Dataset:
    """Rotating magnetic dipole in vacuum: radiated power as the label.

    Raw draw order: r, B, omega, alpha, m.  Three derived columns are
    appended per row: the period ``P = 2*pi/omega``, the moment of
    inertia of a uniform sphere ``I = 2*m*r^2/5`` and the rotational
    energy ``E = I*omega^2/2``.  The label is
    ``-2*pi*B^2*r^6*omega^4*sin(alpha)^2 / (3*mu0*c^3)`` in watts,
    unscaled.

    Its ``tracemalloc`` peak at 200,000 rows is under 1.07x ``X`` and ``y``.
    """
    return _generate("pulsar", n, seed, _PULSAR_RANGES, _pulsar_rows, (
        ("r", "m"),
        ("B", "T"),
        ("omega", "1/s"),
        ("alpha", "rad"),
        ("P", "s"),
        ("m", "kg"),
        ("I", "kg*m^2"),
        ("E", "kg*m^2/s^2"),
    ), "W")


def _binary_rows(m1, m2, v, r):
    energy = 0.5 * (m1 * m2 / (m1 + m2)) * v ** 2 - _G_NEWTON * m1 * m2 / r
    return (m1, m2, v, r), energy < 0.0


def gen_binary(n: int, seed: int) -> Dataset:
    """Two-body systems labeled 1 when gravitationally bound.

    Raw draw order: m1, m2, v, r.  The total energy
    ``E = 0.5*(m1*m2/(m1+m2))*v^2 - G*m1*m2/r`` decides the label:
    1 when E < 0 (bound), 0 otherwise, for every row.  Labels are exact
    signs and must never be noised.  A dataset with one class warns
    :class:`~pifmap.errors.DegenerateClassBalanceWarning`.

    Its ``tracemalloc`` peak at 200,000 rows is under 1.07x ``X`` and ``y``.
    """
    dataset = _generate("binary", n, seed, _BINARY_RANGES, _binary_rows, (
        ("m1", "kg"),
        ("m2", "kg"),
        ("v", "m/s"),
        ("r", "m"),
    ), "1")
    counts = (int(np.sum(dataset.y == 0.0)), int(np.sum(dataset.y == 1.0)))
    if 0 in counts:
        warnings.warn(
            f"generated a single-class dataset (counts {counts})",
            DegenerateClassBalanceWarning,
            stacklevel=2,
        )
    dataset.provenance["class_counts"] = {"0": counts[0], "1": counts[1]}
    return dataset


def add_noise(y: np.ndarray, config: NoiseConfig) -> np.ndarray:
    """Multiply each label by ``1 + u_i`` with ``u_i ~ U(-level, level)``.

    The draw comes from a fresh PCG64 stream keyed by ``config.seed``;
    with ``level == 0`` the output equals ``y`` exactly.  ``y`` is never
    changed: the output is the drawn array, which each step overwrites in
    place, so beyond its output ``add_noise`` allocates nothing n-sized:
    its ``tracemalloc`` peak at 200,000 rows is under 1.01x the output.
    """
    y = np.asarray(y, dtype=float)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    # (2u - 1) * level, then 1 + that, then y times that: one array throughout
    u = rng.random(y.shape[0])
    u *= 2.0
    u -= 1.0
    u *= config.level
    u += 1.0
    return np.multiply(y, u, out=u)
