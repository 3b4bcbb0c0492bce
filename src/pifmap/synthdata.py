"""Seeded synthetic datasets for the bundled experiments.

Determinism contract: every generator draws from ``numpy``'s PCG64 via a
single ``(n, k)`` uniform block filled in C (row-major) order, one column
per raw feature in the documented order, then maps columns through fixed
affine or exponential transforms.  Identical seeds therefore give
bit-identical datasets on every platform, and the draw order never
depends on the range configuration.

Each generator takes only ``n``, ``seed`` and its sampling ranges.
Labels come out noiseless and unscaled, in the unit the dataset declares;
relative uniform noise is applied separately by :func:`add_noise` with its
own seed so feature and noise streams never alias.  Classification labels
are hard signs and are never noised.

Each generator maps its uniform block to columns in :func:`_draw_columns`,
which frees the block before labels are built, and fills its C-contiguous
feature matrix a block of rows at a time in :func:`_stack_columns`: the
same bits as ``np.column_stack`` of the columns, without its
column-strided writes across the whole matrix.
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
# Rows per block when stacking generated columns into a feature matrix.
_STACK_ROWS = 4096


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


def _draw_columns(seed: int, n: int, *ranges: Range) -> list[np.ndarray]:
    """One column per range, in order, mapped from one uniform ``(n, k)`` block.

    The block is freed on return, before the caller builds its labels and
    feature matrix.
    """
    if n < 1:
        raise InvalidRange(f"n must be at least 1, got {n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random((n, len(ranges)))
    return [r.map_uniform(u[:, j]) for j, r in enumerate(ranges)]


def _stack_columns(columns: list[np.ndarray]) -> np.ndarray:
    """``np.column_stack(columns)`` of equal-length 1-d columns, bit for bit.

    Each block of rows is written across every column before the next, so
    the rows being written stay in cache.
    """
    n = columns[0].shape[0]
    out = np.empty((n, len(columns)))
    for start in range(0, n, _STACK_ROWS):
        rows = slice(start, start + _STACK_ROWS)
        for j, column in enumerate(columns):
            out[rows, j] = column[rows]
    return out


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
    """
    p, rho, v, q, a, mu, h = _draw_columns(
        seed, n, ranges.p, ranges.rho, ranges.v, ranges.Q, ranges.A, ranges.mu, ranges.h
    )
    g = STANDARD_CONSTANTS["g"].value
    y = p + 0.5 * rho * v ** 2 + rho * g * h
    schema, label_dimension = _units((
        ("p", "kg/(m*s^2)"),
        ("rho", "kg/m^3"),
        ("v", "m/s"),
        ("Q", "m^3/s"),
        ("A", "m^2"),
        ("mu", "kg/(m*s)"),
        ("h", "m"),
    ), "Pa")
    return Dataset(
        schema=schema,
        X=_stack_columns([p, rho, v, q, a, mu, h]),
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
    """
    r, b, omega, alpha, m = _draw_columns(
        seed, n, ranges.r, ranges.B, ranges.omega, ranges.alpha, ranges.m
    )
    period = 2.0 * math.pi / omega
    inertia = 0.4 * m * r ** 2
    energy = 0.5 * inertia * omega ** 2
    mu0 = STANDARD_CONSTANTS["mu0"].value
    c = STANDARD_CONSTANTS["c"].value
    y = (
        -2.0 * math.pi * b ** 2 * r ** 6 * omega ** 4 * np.sin(alpha) ** 2
        / (3.0 * mu0 * c ** 3)
    )
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
    return Dataset(
        schema=schema,
        X=_stack_columns([r, b, omega, alpha, period, m, inertia, energy]),
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
    """
    m1, m2, v, r = _draw_columns(seed, n, ranges.m1, ranges.m2, ranges.v, ranges.r)
    g_newton = STANDARD_CONSTANTS["G"].value
    energy = 0.5 * (m1 * m2 / (m1 + m2)) * v ** 2 - g_newton * m1 * m2 / r
    y = (energy < 0.0).astype(float)
    counts = (int(np.sum(y == 0.0)), int(np.sum(y == 1.0)))
    if 0 in counts:
        warnings.warn(
            f"generated a single-class dataset (counts {counts}); widen the "
            "sampling ranges if both classes are needed",
            DegenerateClassBalanceWarning,
            stacklevel=2,
        )
    schema, label_dimension = _units((
        ("m1", "kg"),
        ("m2", "kg"),
        ("v", "m/s"),
        ("r", "m"),
    ), "1")
    return Dataset(
        schema=schema,
        X=_stack_columns([m1, m2, v, r]),
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
    with ``level == 0`` the output equals ``y`` exactly.
    """
    y = np.asarray(y, dtype=float)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    u = (2.0 * rng.random(y.shape[0]) - 1.0) * config.level
    return y * (1.0 + u)
