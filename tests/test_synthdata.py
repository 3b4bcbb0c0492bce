"""Synthetic dataset generators: determinism, physics identities, noise."""

import math
import warnings

import numpy as np
import pytest

from pifmap.dimension import parse_unit
from pifmap.errors import DegenerateClassBalanceWarning, InvalidNoiseLevel, InvalidRange
from pifmap.featuremap import STANDARD_CONSTANTS
from pifmap.synthdata import (
    _BLOCK_ROWS,
    NoiseConfig,
    _bernoulli_rows,
    _binary_rows,
    _pulsar_rows,
    add_noise,
    gen_bernoulli,
    gen_binary,
    gen_pulsar,
)

G_STANDARD = STANDARD_CONSTANTS["g"].value
MU0 = STANDARD_CONSTANTS["mu0"].value
LIGHT_SPEED = STANDARD_CONSTANTS["c"].value
GRAVITATIONAL = STANDARD_CONSTANTS["G"].value


class TestDeterminism:
    @pytest.mark.parametrize(
        "generator", [gen_bernoulli, gen_pulsar, gen_binary]
    )
    def test_same_seed_bit_identical(self, generator):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateClassBalanceWarning)
            a = generator(64, seed=123)
            b = generator(64, seed=123)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)

    @pytest.mark.parametrize(
        "generator", [gen_bernoulli, gen_pulsar, gen_binary]
    )
    def test_different_seed_differs(self, generator):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateClassBalanceWarning)
            a = generator(64, seed=1)
            b = generator(64, seed=2)
        assert not np.array_equal(a.X, b.X)

    def test_provenance_records_recipe(self):
        ds = gen_bernoulli(8, seed=7)
        assert ds.provenance["generator"] == "bernoulli"
        assert ds.provenance["n"] == 8
        assert ds.provenance["seed"] == 7
        assert ds.provenance["rng"] == "PCG64"
        assert ds.provenance["noise"] is None
        assert ds.provenance["ranges"]["v"]["sampling"] == "uniform"

    @pytest.mark.parametrize("n", [0, 2.5, True])
    def test_n_must_be_a_positive_integer(self, n):
        with pytest.raises(InvalidRange, match=f"n must be a positive integer, got {n}"):
            gen_bernoulli(n, 1)

    def test_numpy_integer_n_accepted(self):
        ds = gen_pulsar(np.int64(8), 7)
        assert ds.provenance["n"] == 8 and type(ds.provenance["n"]) is int
        assert ds.X.tobytes() == gen_pulsar(8, 7).X.tobytes()

    @pytest.mark.parametrize("generate, seed", [
        (gen_bernoulli, -1), (gen_pulsar, 1.5), (gen_binary, True),
    ])
    def test_seed_must_be_a_non_negative_integer(self, generate, seed):
        with pytest.raises(InvalidRange, match=f"seed must be a non-negative integer, got {seed}"):
            generate(10, seed)

    def test_numpy_integer_seed_accepted(self):
        ds = gen_bernoulli(8, np.uint64(7))
        assert ds.X.tobytes() == gen_bernoulli(8, 7).X.tobytes()


_ACROSS_BLOCKS = [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7]


# The documented sampling ranges, feature -> (low, high, log-uniform),
# written out here so that the oracle does not read the module's own.
_BERNOULLI_RANGES = {
    "p": (5e4, 2e5, False), "rho": (1.0, 1.2e3, False), "v": (0.5, 20.0, False),
    "Q": (1e-4, 1e-1, False), "A": (1e-4, 1e-1, False), "mu": (1e-5, 1e-1, False),
    "h": (0.1, 50.0, False),
}
_PULSAR_RANGES = {
    "r": (1e4, 2e4, False), "B": (1e4, 1e9, True), "omega": (0.1, 500.0, False),
    "alpha": (0.0, math.pi / 2, False), "m": (2e30, 4e30, False),
}
_BINARY_RANGES = {
    "m1": (1e30, 5e30, False), "m2": (1e30, 5e30, False), "v": (1e4, 1e5, False),
    "r": (1e10, 1e13, True),
}


def _one_block(seed, n, ranges):
    """Every raw column, mapped from one uniform ``(n, k)`` block in C order."""
    u = np.random.Generator(np.random.PCG64(seed)).random((n, len(ranges)))
    columns = []
    for j, (low, high, log) in enumerate(ranges.values()):
        if log:
            lo, hi = math.log(low), math.log(high)
            columns.append(np.exp(lo + (hi - lo) * u[:, j]))
        else:
            columns.append(low + (high - low) * u[:, j])
    return columns


def _bernoulli_oracle(n, seed):
    p, rho, v, q, a, mu, h = _one_block(seed, n, _BERNOULLI_RANGES)
    y = p + 0.5 * rho * v ** 2 + rho * G_STANDARD * h
    return [p, rho, v, q, a, mu, h], y, _BERNOULLI_RANGES, {}


def _pulsar_oracle(n, seed):
    r, b, omega, alpha, m = _one_block(seed, n, _PULSAR_RANGES)
    period = 2.0 * math.pi / omega
    inertia = 0.4 * m * r ** 2
    energy = 0.5 * inertia * omega ** 2
    y = (
        -2.0 * math.pi * b ** 2 * r ** 6 * omega ** 4 * np.sin(alpha) ** 2
        / (3.0 * MU0 * LIGHT_SPEED ** 3)
    )
    return [r, b, omega, alpha, period, m, inertia, energy], y, _PULSAR_RANGES, {}


def _binary_oracle(n, seed):
    m1, m2, v, r = _one_block(seed, n, _BINARY_RANGES)
    energy = 0.5 * (m1 * m2 / (m1 + m2)) * v ** 2 - GRAVITATIONAL * m1 * m2 / r
    y = (energy < 0.0).astype(float)
    counts = {"0": int(np.sum(y == 0.0)), "1": int(np.sum(y == 1.0))}
    return [m1, m2, v, r], y, _BINARY_RANGES, {"class_counts": counts}


class TestAgainstOneBlockOracle:
    """Each generator equals, bit for bit, the documented formulas applied to
    one uniform ``(n, k)`` block and stacked with ``np.column_stack``."""

    @pytest.mark.parametrize("generate, oracle, name", [
        (gen_bernoulli, _bernoulli_oracle, "bernoulli"),
        (gen_pulsar, _pulsar_oracle, "pulsar"),
        (gen_binary, _binary_oracle, "binary"),
    ])
    @pytest.mark.parametrize("n", _ACROSS_BLOCKS)
    def test_matches_the_formulas_on_one_block(self, generate, oracle, name, n):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateClassBalanceWarning)
            ds = generate(n, 3)
        columns, y, ranges, extra = oracle(n, 3)
        X = np.column_stack(columns)
        assert ds.X.flags.c_contiguous
        assert ds.X.shape == X.shape
        assert ds.X.tobytes() == X.tobytes()
        assert ds.y.shape == y.shape
        assert ds.y.tobytes() == y.tobytes()
        assert ds.provenance == {
            "generator": name,
            "n": n,
            "seed": 3,
            "rng": "PCG64",
            "ranges": {
                name: {"low": low, "high": high,
                       "sampling": "log-uniform" if log else "uniform"}
                for name, (low, high, log) in ranges.items()
            },
            "noise": None,
            **extra,
        }

class TestBernoulli:
    def test_hand_computed_label(self):
        p, rho, v, q, a, mu, h = (
            np.full(4, x) for x in (1e5, 1000.0, 2.0, 1e-2, 1e-2, 1e-3, 1.0))
        columns, y = _bernoulli_rows(p, rho, v, q, a, mu, h)
        assert all(c is x for c, x in zip(columns, (p, rho, v, q, a, mu, h)))
        # p + rho*v^2/2 + rho*g*h = 1e5 + 2000 + 9806.65
        expected = 1e5 + 0.5 * 1000.0 * 4.0 + 1000.0 * G_STANDARD * 1.0
        np.testing.assert_allclose(y, expected, rtol=1e-12)
        assert expected == pytest.approx(111806.65)

    def test_label_formula_on_random_draws(self):
        ds = gen_bernoulli(100, seed=11)
        p = ds.column("p")
        rho = ds.column("rho")
        v = ds.column("v")
        h = ds.column("h")
        np.testing.assert_allclose(
            ds.y, p + 0.5 * rho * v**2 + rho * G_STANDARD * h, rtol=1e-12
        )

    def test_schema_units(self):
        ds = gen_bernoulli(2, seed=0)
        assert ds.schema.names == ("p", "rho", "v", "Q", "A", "mu", "h")
        assert ds.schema.dimensions[ds.schema.index("p")] == parse_unit("Pa")
        assert ds.schema.dimensions[ds.schema.index("Q")] == parse_unit("m^3/s")
        assert ds.label_dimension == parse_unit("Pa")

    def test_columns_within_recorded_ranges(self):
        ds = gen_bernoulli(500, seed=3)
        for name in ds.schema.names:
            bounds = ds.provenance["ranges"][name]
            column = ds.column(name)
            assert column.min() >= bounds["low"]
            assert column.max() <= bounds["high"]


class TestPulsar:
    def test_aligned_rotator_emits_nothing(self):
        r, b, omega, m = (np.full(4, x) for x in (1.5e4, 1e8, 100.0, 3e30))
        _, y = _pulsar_rows(r, b, omega, np.zeros(4), m)
        np.testing.assert_allclose(y, 0.0, atol=1e-30)

    def test_period_and_inertia_identities(self):
        ds = gen_pulsar(200, seed=5)
        omega = ds.column("omega")
        np.testing.assert_allclose(ds.column("P") * omega, 2 * math.pi, rtol=1e-12)
        np.testing.assert_allclose(
            ds.column("I"), 0.4 * ds.column("m") * ds.column("r") ** 2, rtol=1e-12
        )
        np.testing.assert_allclose(
            ds.column("E"), 0.5 * ds.column("I") * omega**2, rtol=1e-12
        )

    def test_label_formula(self):
        ds = gen_pulsar(100, seed=9)
        r = ds.column("r")
        B = ds.column("B")
        omega = ds.column("omega")
        alpha = ds.column("alpha")
        expected = (
            -2.0 * math.pi * B**2 * r**6 * omega**4 * np.sin(alpha) ** 2
            / (3.0 * MU0 * LIGHT_SPEED**3)
        )
        np.testing.assert_allclose(ds.y, expected, rtol=1e-12)
        assert (ds.y <= 0.0).all()

    def test_magnetic_field_log_sampled(self):
        # log-uniform draws put roughly as much mass per decade
        ds = gen_pulsar(4000, seed=13)
        B = ds.column("B")
        low_decades = np.sum(B < 10**6.5)
        assert 0.4 < low_decades / len(B) < 0.6


class TestBinary:
    def test_hand_sign_case(self):
        _, y = _binary_rows(*(np.full(3, x) for x in (2e30, 2e30, 3e4, 1.5e11)))
        kinetic = 0.5 * 1e30 * (3e4) ** 2
        potential = GRAVITATIONAL * 4e60 / 1.5e11
        assert kinetic < potential  # bound orbit
        np.testing.assert_array_equal(y, True)

    def test_unbound_case(self):
        _, y = _binary_rows(*(np.full(3, x) for x in (2e30, 2e30, 3e5, 1e13)))
        np.testing.assert_array_equal(y, False)

    def test_one_row_is_one_class_and_warns(self):
        with pytest.warns(DegenerateClassBalanceWarning):
            ds = gen_binary(1, seed=0)
        assert sorted(ds.provenance["class_counts"].values()) == [0, 1]

    def test_label_matches_energy_sign(self):
        ds = gen_binary(400, seed=21)
        m1 = ds.column("m1")
        m2 = ds.column("m2")
        v = ds.column("v")
        r = ds.column("r")
        energy = 0.5 * (m1 * m2 / (m1 + m2)) * v**2 - GRAVITATIONAL * m1 * m2 / r
        np.testing.assert_array_equal(ds.y, (energy < 0.0).astype(float))

    def test_both_classes_present_at_defaults(self):
        ds = gen_binary(400, seed=21)
        counts = ds.provenance["class_counts"]
        assert counts["0"] > 0 and counts["1"] > 0
        assert counts["0"] + counts["1"] == 400

    def test_labels_are_binary(self):
        ds = gen_binary(100, seed=8)
        assert set(np.unique(ds.y)) <= {0.0, 1.0}


class TestNoise:
    def test_level_zero_identity(self):
        y = np.linspace(-5.0, 5.0, 11)
        out = add_noise(y, NoiseConfig(level=0.0, seed=42))
        np.testing.assert_array_equal(out, y)

    def test_relative_bound(self):
        rng = np.random.Generator(np.random.PCG64(0))
        y = rng.random(1000) * 100.0
        noisy = add_noise(y, NoiseConfig(level=0.3, seed=7))
        assert np.all(np.abs(noisy - y) <= 0.3 * np.abs(y) + 1e-12)

    def test_multiplier_mean_statistics(self):
        # U(-eta, eta) has variance eta^2/3; check the sample mean of the
        # multiplicative factor sits within 3 standard errors of 1
        y = np.full(20000, 10.0)
        eta = 0.5
        noisy = add_noise(y, NoiseConfig(level=eta, seed=99))
        factors = noisy / y
        standard_error = eta / math.sqrt(3.0 * len(y))
        assert abs(factors.mean() - 1.0) < 3.0 * standard_error
        assert factors.std() == pytest.approx(eta / math.sqrt(3.0), rel=0.05)

    def test_deterministic(self):
        y = np.arange(1.0, 50.0)
        a = add_noise(y, NoiseConfig(level=0.2, seed=5))
        b = add_noise(y, NoiseConfig(level=0.2, seed=5))
        assert np.array_equal(a, b)
        c = add_noise(y, NoiseConfig(level=0.2, seed=6))
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("y", [
        np.array([-5.0, -0.0, 0.0, 1e-300, 3.5, 7e300]),
        np.random.Generator(np.random.PCG64(4)).standard_normal(10_000) * 1e6,
    ])
    def test_level_zero_returns_the_labels_bit_for_bit(self, y):
        out = add_noise(y, NoiseConfig(level=0.0, seed=42))
        assert out.tobytes() == y.tobytes()
        assert not np.shares_memory(out, y)

    @pytest.mark.parametrize("level", [0.0, 0.3])
    def test_leaves_the_input_labels_unchanged(self, level):
        y = np.linspace(-5.0, 5.0, 1001)
        before = y.tobytes()
        out = add_noise(y, NoiseConfig(level=level, seed=7))
        assert y.tobytes() == before
        assert not np.shares_memory(out, y)

    def test_zero_label_stays_zero(self):
        out = add_noise(np.zeros(5), NoiseConfig(level=0.9, seed=1))
        np.testing.assert_array_equal(out, 0.0)

    @pytest.mark.parametrize("level", [-0.1, 1.0, 1.5, math.nan])
    def test_invalid_levels(self, level):
        with pytest.raises(InvalidNoiseLevel):
            NoiseConfig(level=level, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidRange, match="seed must be a non-negative integer, got -3"):
            NoiseConfig(level=0.1, seed=-3)
