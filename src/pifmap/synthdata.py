"""Seeded synthetic datasets for the bundled experiments.

Determinism contract: every generator reads one PCG64 stream, seeded by
``seed``, in C (row-major) order: row after row, one uniform per raw
feature in the documented order, then maps each column through a fixed
affine or exponential transform.  Identical seeds therefore give
bit-identical datasets on every platform, and the draw order never
depends on the range configuration.

Each generator takes only ``n``, ``seed`` and its sampling ranges.
Labels come out noiseless and unscaled, in the unit the dataset declares;
relative uniform noise is applied separately by :func:`add_noise` with its
own seed so feature and noise streams never alias.  Classification labels
are hard signs and are never noised.

:func:`_generate` reads the stream a block of rows at a time, builds that
block's columns and labels and writes them into the preallocated
C-contiguous feature matrix and label vector.  The block's uniforms are
the stream's next doubles in the same order as one ``(n, k)`` draw, and
every column and label is computed elementwise, so the dataset equals, bit
for bit, the formulas applied to one ``(n, k)`` block and stacked with
``np.column_stack``.  Beyond its output a generator holds one block and
the one-byte-per-entry mask of the dataset's finite check.
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
    "Range",
    "BernoulliRanges",
    "PulsarRanges",
    "BinaryRanges",
    "NoiseConfig",
    "gen_bernoulli",
    "gen_pulsar",
    "gen_binary",
    "add_noise",
]

_RNG_NAME = "PCG64"
# Rows per block when generating a dataset.
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class Range:
    """Closed sampling interval; ``log=True`` samples log-uniformly."""

    low: float
    high: float
    log: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise InvalidRange(f"range bounds must be finite: {self}")
        if self.low > self.high:
            raise InvalidRange(f"range is reversed: {self}")
        if self.log and self.low <= 0.0:
            raise InvalidRange(f"log-uniform range needs a positive lower bound: {self}")

    def map_uniform(self, u: np.ndarray) -> np.ndarray:
        if self.log:
            lo, hi = math.log(self.low), math.log(self.high)
            return np.exp(lo + (hi - lo) * u)
        return self.low + (self.high - self.low) * u

    def describe(self) -> dict:
        return {
            "low": self.low,
            "high": self.high,
            "sampling": "log-uniform" if self.log else "uniform",
        }


@dataclass(frozen=True)
class BernoulliRanges:
    """Sampling bounds for the viscous pipe-flow testbed."""

    p: Range = Range(5e4, 2e5)
    rho: Range = Range(1.0, 1.2e3)
    v: Range = Range(0.5, 20.0)
    Q: Range = Range(1e-4, 1e-1)
    A: Range = Range(1e-4, 1e-1)
    mu: Range = Range(1e-5, 1e-1)
    h: Range = Range(0.1, 50.0)


@dataclass(frozen=True)
class PulsarRanges:
    """Sampling bounds for the rotating-dipole testbed (raw features only)."""

    r: Range = Range(1e4, 2e4)
    B: Range = Range(1e4, 1e9, log=True)
    omega: Range = Range(0.1, 500.0)
    alpha: Range = Range(0.0, math.pi / 2)
    m: Range = Range(2e30, 4e30)


@dataclass(frozen=True)
class BinaryRanges:
    """Sampling bounds for the two-body binding testbed.

    Defaults keep both classes populated AND keep the evaluated energy
    monomials within a few decades; wider (or log-uniform) mass and
    velocity spans make the least-squares class scores collapse toward
    the prior for the bulk of rows and the mapped arm loses its edge.
    """

    m1: Range = Range(1e30, 5e30)
    m2: Range = Range(1e30, 5e30)
    v: Range = Range(1e4, 1e5)
    r: Range = Range(1e10, 1e13, log=True)


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


def _generate(
    seed: int, n: int, width: int, rows, *ranges: Range
) -> tuple[np.ndarray, np.ndarray]:
    """The feature matrix and labels of ``n`` rows, a block of rows at a time.

    Each block's uniforms are mapped to one column per range, in order, and
    ``rows(*columns)`` returns the block's ``width`` feature columns and its
    labels.  The matrix is C-contiguous.
    """
    if n < 1:
        raise InvalidRange(f"n must be at least 1, got {n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    X = np.empty((n, width))
    y = np.empty(n)
    for start in range(0, n, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        u = rng.random((min(n - start, _BLOCK_ROWS), len(ranges)))
        columns, y[block] = rows(*[r.map_uniform(u[:, j]) for j, r in enumerate(ranges)])
        for j, column in enumerate(columns):
            X[block, j] = column
    return X, y


@functools.cache
def _units(
    features: tuple[tuple[str, str], ...], label_unit: str
) -> tuple[FeatureSchema, Dimension]:
    # Each generator passes the same literal units on every call, so this
    # parses them once per process and holds one entry per generator; the
    # schema and dimension are frozen, so every dataset can share them.
    return schema_of(features), parse_unit(label_unit)


def _ranges_provenance(ranges) -> dict:
    described = {}
    for name in ranges.__dataclass_fields__:
        described[name] = getattr(ranges, name).describe()
    return described


def gen_bernoulli(
    n: int, seed: int, ranges: BernoulliRanges = BernoulliRanges()
) -> Dataset:
    """Viscous pipe flow: ``y = p + 0.5*rho*v^2 + rho*g*h`` in Pa.

    Feature draw order: p, rho, v, Q, A, mu, h.  Only the first three
    features and h enter the label; Q, A and mu are distractors.

    Its ``tracemalloc`` peak at 200,000 rows is under 1.07x ``X`` and ``y``.
    """
    g = STANDARD_CONSTANTS["g"].value

    def rows(p, rho, v, q, a, mu, h):
        return (p, rho, v, q, a, mu, h), p + 0.5 * rho * v ** 2 + rho * g * h

    schema, label_dimension = _units((
        ("p", "kg/(m*s^2)"),
        ("rho", "kg/m^3"),
        ("v", "m/s"),
        ("Q", "m^3/s"),
        ("A", "m^2"),
        ("mu", "kg/(m*s)"),
        ("h", "m"),
    ), "Pa")
    X, y = _generate(
        seed, n, len(schema), rows,
        ranges.p, ranges.rho, ranges.v, ranges.Q, ranges.A, ranges.mu, ranges.h,
    )
    return Dataset(
        schema=schema,
        X=X,
        y=y,
        label_dimension=label_dimension,
        provenance={
            "generator": "bernoulli",
            "n": n,
            "seed": seed,
            "rng": _RNG_NAME,
            "ranges": _ranges_provenance(ranges),
            "noise": None,
        },
    )


def gen_pulsar(
    n: int, seed: int, ranges: PulsarRanges = PulsarRanges()
) -> Dataset:
    """Rotating magnetic dipole in vacuum: radiated power as the label.

    Raw draw order: r, B, omega, alpha, m.  Three derived columns are
    appended per row: the period ``P = 2*pi/omega``, the moment of
    inertia of a uniform sphere ``I = 2*m*r^2/5`` and the rotational
    energy ``E = I*omega^2/2``.  The label is
    ``-2*pi*B^2*r^6*omega^4*sin(alpha)^2 / (3*mu0*c^3)`` in watts,
    unscaled.

    Its ``tracemalloc`` peak at 200,000 rows is under 1.07x ``X`` and ``y``.
    """
    mu0 = STANDARD_CONSTANTS["mu0"].value
    c = STANDARD_CONSTANTS["c"].value

    def rows(r, b, omega, alpha, m):
        period = 2.0 * math.pi / omega
        inertia = 0.4 * m * r ** 2
        energy = 0.5 * inertia * omega ** 2
        y = (
            -2.0 * math.pi * b ** 2 * r ** 6 * omega ** 4 * np.sin(alpha) ** 2
            / (3.0 * mu0 * c ** 3)
        )
        return (r, b, omega, alpha, period, m, inertia, energy), y

    schema, label_dimension = _units((
        ("r", "m"),
        ("B", "T"),
        ("omega", "1/s"),
        ("alpha", "rad"),
        ("P", "s"),
        ("m", "kg"),
        ("I", "kg*m^2"),
        ("E", "kg*m^2/s^2"),
    ), "W")
    X, y = _generate(
        seed, n, len(schema), rows, ranges.r, ranges.B, ranges.omega, ranges.alpha, ranges.m
    )
    return Dataset(
        schema=schema,
        X=X,
        y=y,
        label_dimension=label_dimension,
        provenance={
            "generator": "pulsar",
            "n": n,
            "seed": seed,
            "rng": _RNG_NAME,
            "ranges": _ranges_provenance(ranges),
            "noise": None,
        },
    )


def gen_binary(
    n: int, seed: int, ranges: BinaryRanges = BinaryRanges()
) -> Dataset:
    """Two-body systems labeled 1 when gravitationally bound.

    Raw draw order: m1, m2, v, r.  The total energy
    ``E = 0.5*(m1*m2/(m1+m2))*v^2 - G*m1*m2/r`` decides the label:
    1 when E < 0 (bound), 0 otherwise, for every row.  Labels are exact
    signs and must never be noised.

    Its ``tracemalloc`` peak at 200,000 rows is under 1.07x ``X`` and ``y``.
    """
    g_newton = STANDARD_CONSTANTS["G"].value

    def rows(m1, m2, v, r):
        energy = 0.5 * (m1 * m2 / (m1 + m2)) * v ** 2 - g_newton * m1 * m2 / r
        return (m1, m2, v, r), energy < 0.0

    schema, label_dimension = _units((
        ("m1", "kg"),
        ("m2", "kg"),
        ("v", "m/s"),
        ("r", "m"),
    ), "1")
    X, y = _generate(seed, n, len(schema), rows, ranges.m1, ranges.m2, ranges.v, ranges.r)
    counts = (int(np.sum(y == 0.0)), int(np.sum(y == 1.0)))
    if 0 in counts:
        warnings.warn(
            f"generated a single-class dataset (counts {counts}); widen the "
            "sampling ranges if both classes are needed",
            DegenerateClassBalanceWarning,
            stacklevel=2,
        )
    return Dataset(
        schema=schema,
        X=X,
        y=y,
        label_dimension=label_dimension,
        provenance={
            "generator": "binary",
            "n": n,
            "seed": seed,
            "rng": _RNG_NAME,
            "ranges": _ranges_provenance(ranges),
            "class_counts": {"0": counts[0], "1": counts[1]},
            "noise": None,
        },
    )


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
