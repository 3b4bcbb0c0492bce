"""Acceptance gate: one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get a one-line
pass/fail checklist; each test also prints a PASS summary visible
under ``-s``.  The criteria cover solver correctness against an
independent oracle, full-size recovery of the planted physical
equations, arm orderings on all three synthetic testbeds, frozen
skill-score fixtures, enumeration completeness, the dimensional audit
of the shipped catalogs, and bulk property suites, each with an
explicit runtime budget where one is guaranteed.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from pifmap.catalogs import load_catalog
from pifmap.data import schema_of
from pifmap.dimension import DIMENSIONLESS, Dimension, format_unit, parse_unit
from pifmap.errors import DimensionMismatch
from pifmap.experiments import TrialSettings, run_experiment
from pifmap.featuremap import (
    STANDARD_CONSTANTS,
    FeatureMapSpec,
    destandardize,
    enumerate_monomials,
)
from pifmap.metrics import ConfusionMatrix, skill_scores
from pifmap.regression import (
    fit_standardized,
    ridge_fit,
    ridge_predict,
    select_lambda,
    standardize_apply,
)

SEEDS = tuple(range(1, 21))
NOISE_LEVELS = (0.1, 0.3, 0.5)
NOISE_KEYS = ("0.1", "0.3", "0.5")
FULL_SIZE = TrialSettings(n=1000, split=0.7)


@pytest.fixture(scope="module")
def bernoulli_run():
    start = time.perf_counter()
    report = run_experiment(
        "bernoulli", seeds=SEEDS, noise_levels=NOISE_LEVELS, settings=FULL_SIZE
    )
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def pulsar_run():
    start = time.perf_counter()
    report = run_experiment(
        "pulsar", seeds=SEEDS, noise_levels=NOISE_LEVELS, settings=FULL_SIZE
    )
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def binary_run():
    start = time.perf_counter()
    report = run_experiment("binary", seeds=SEEDS, settings=FULL_SIZE)
    return report, time.perf_counter() - start


# --------------------------------------------------------------------------
# Criterion 1: the ridge solver agrees with an independent elimination oracle.


def _eliminate(matrix, rhs):
    """Gaussian elimination with partial pivoting, on plain Python lists.

    Deliberately shares no code with the library solver: different
    algorithm (LU-style elimination vs Cholesky), different data
    representation, hand-rolled arithmetic.
    """
    size = len(rhs)
    a = [list(map(float, row)) for row in matrix]
    b = list(map(float, rhs))
    for col in range(size):
        pivot = max(range(col, size), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0.0:
            raise ZeroDivisionError("singular system handed to the oracle")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
        for row in range(col + 1, size):
            factor = a[row][col] / a[col][col]
            if factor == 0.0:
                continue
            for k in range(col, size):
                a[row][k] -= factor * a[col][k]
            b[row] -= factor * b[col]
    x = [0.0] * size
    for row in range(size - 1, -1, -1):
        acc = b[row]
        for k in range(row + 1, size):
            acc -= a[row][k] * x[k]
        x[row] = acc / a[row][row]
    return x


def _oracle_lambda(Z, y, grid):
    """The lambda ``select_lambda`` should pick, from ``_eliminate``'s weights.

    Last 30% of the rows held out, smallest validation MSE, ties to the
    larger lambda.
    """
    n_train = len(y) - math.ceil(0.3 * len(y))
    Z_train, y_train = Z[:n_train], y[:n_train]
    intercept = float(np.mean(y_train))
    gram = Z_train.T @ Z_train
    rhs = Z_train.T @ (y_train - intercept)
    best = None
    for lam in grid:
        system = gram + lam * np.eye(len(gram))
        weights = np.array(_eliminate(system.tolist(), rhs.tolist()))
        errors = Z[n_train:] @ weights + intercept - y[n_train:]
        key = (float(np.mean(errors ** 2)), -lam)
        best = key if best is None or key < best else best
    return -best[1]


def test_criterion_01_ridge_matches_elimination_oracle():
    """100 seeded instances, n <= 50, p <= 10, lambda in {0, 1e-3, 1}.

    Then 30 more, n <= 60, p <= 10: ``select_lambda`` picks the lambda the
    oracle's weights pick over a grid from ``logspace(-6, 2, 10)``.
    """
    rng = np.random.Generator(np.random.PCG64(2024))
    lambdas = (0.0, 1e-3, 1.0)
    start = time.perf_counter()
    for case in range(100):
        n = int(rng.integers(12, 51))
        p = int(rng.integers(1, 11))
        lam = lambdas[case % len(lambdas)]
        Z = rng.standard_normal((n, p))
        y = Z @ rng.standard_normal(p) + 0.3 * rng.standard_normal(n)
        model = ridge_fit(Z, y, lam)
        gram = Z.T @ Z + lam * np.eye(p)
        rhs = Z.T @ (y - float(np.mean(y)))
        oracle = _eliminate(gram.tolist(), rhs.tolist())
        np.testing.assert_allclose(
            model.weights, oracle, rtol=1e-8, atol=1e-10,
            err_msg=f"case {case}: n={n} p={p} lam={lam}",
        )
        assert model.intercept == pytest.approx(float(np.mean(y)))
    pool = np.logspace(-6.0, 2.0, 10)
    for case in range(30):
        n = int(rng.integers(20, 61))
        p = int(rng.integers(1, 11))
        Z = rng.standard_normal((n, p))
        y = Z @ rng.standard_normal(p) + rng.uniform(0.1, 2.0) * rng.standard_normal(n)
        grid = tuple(float(lam) for lam in rng.choice(pool, size=5, replace=False))
        assert select_lambda(Z, y, grid) == _oracle_lambda(Z, y, grid), (
            f"selection case {case}: n={n} p={p} grid={grid}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"oracle comparison took {elapsed:.3f}s, budget 1s"
    print(f"criterion 01 PASS: 100/100 oracle matches and 30/30 selections "
          f"in {elapsed:.3f}s")


# --------------------------------------------------------------------------
# Criteria 2-4: full-size viscous pipe-flow experiment.


def test_criterion_02_bernoulli_coefficient_recovery(bernoulli_run):
    """Median destandardized coefficients recover (1, 0.5, 1).

    Tolerance +-0.05 at the 10% noise level, +-0.10 at 50%.
    """
    report, elapsed = bernoulli_run
    targets = {"pif_1": 1.0, "pif_2": 0.5, "pif_3": 1.0}
    for key, tolerance in (("0.1", 0.05), ("0.5", 0.10)):
        medians = report["median_coefficients"][key]
        for name, target in targets.items():
            assert abs(medians[name] - target) <= tolerance, (
                f"{name} at noise {key}: median {medians[name]:.4f} "
                f"outside {target}+-{tolerance}"
            )
    assert elapsed < 10.0, f"experiment took {elapsed:.2f}s, budget 10s"
    at10 = {k: round(v, 4) for k, v in report["median_coefficients"]["0.1"].items()}
    print(f"criterion 02 PASS: coefficient medians at 10% noise {at10} "
          f"({elapsed:.2f}s)")


def test_criterion_03_mapped_features_beat_raw_features(bernoulli_run):
    """Median test MAE and MSE: mapped arm strictly below raw arm everywhere."""
    report, elapsed = bernoulli_run
    for key in NOISE_KEYS:
        arms = report["medians"][key]
        for metric in ("mae", "mse"):
            assert arms["spif"][metric] < arms["sf"][metric], (
                f"noise {key}: spif {metric} {arms['spif'][metric]:.4g} not "
                f"below sf {arms['sf'][metric]:.4g}"
            )
    assert elapsed < 30.0, f"experiment took {elapsed:.2f}s, budget 30s"
    ratios = [
        report["medians"][key]["spif"]["mae"] / report["medians"][key]["sf"]["mae"]
        for key in NOISE_KEYS
    ]
    print(f"criterion 03 PASS: spif/sf MAE ratios "
          f"{[round(r, 3) for r in ratios]} ({elapsed:.2f}s)")


def test_criterion_04_greedy_selects_exactly_three(bernoulli_run):
    """Default epsilon stops the greedy pass at 3 features in >=16/20 seeds."""
    report, _ = bernoulli_run
    for key in NOISE_KEYS:
        counts = report["selected_counts"][key]
        assert counts.get("3", 0) >= 16, (
            f"noise {key}: only {counts.get('3', 0)}/20 seeds selected "
            f"exactly 3 (histogram {counts})"
        )
    histogram = {key: report["selected_counts"][key] for key in NOISE_KEYS}
    print(f"criterion 04 PASS: selection histograms {histogram}")


# --------------------------------------------------------------------------
# Criterion 5: rotating-dipole ablation ordering.


def test_criterion_05_pulsar_ablation_ordering(pulsar_run):
    """Median test MAE: full map < map without its leading monomial, and
    full map < raw features, at every noise level."""
    report, elapsed = pulsar_run
    for key in NOISE_KEYS:
        arms = report["medians"][key]
        full = arms["spif"]["mae"]
        ablated = arms["spif_no_pif1"]["mae"]
        raw = arms["sf"]["mae"]
        assert full < ablated, (
            f"noise {key}: full map MAE {full:.4g} not below ablated "
            f"{ablated:.4g}"
        )
        assert full < raw, (
            f"noise {key}: full map MAE {full:.4g} not below raw {raw:.4g}"
        )
    summary = {
        key: [f"{report['medians'][key][arm]['mae']:.3g}"
              for arm in ("spif", "spif_no_pif1", "sf")]
        for key in NOISE_KEYS
    }
    print(f"criterion 05 PASS: MAE [full, ablated, raw] {summary} "
          f"({elapsed:.2f}s)")


# --------------------------------------------------------------------------
# Criterion 6: two-body classification direction.


def test_criterion_06_binary_skill_direction(binary_run):
    """Median HSS and specificity strictly favor the mapped arm."""
    report, elapsed = binary_run
    medians = report["medians"]
    for field in ("hss", "specificity"):
        assert medians["spif"][field] > medians["sf"][field], (
            f"{field}: spif {medians['spif'][field]:.4f} not above "
            f"sf {medians['sf'][field]:.4f}"
        )
    print(
        "criterion 06 PASS: hss {:.3f}>{:.3f}, specificity {:.3f}>{:.3f} "
        "({:.2f}s)".format(
            medians["spif"]["hss"], medians["sf"]["hss"],
            medians["spif"]["specificity"], medians["sf"]["specificity"],
            elapsed,
        )
    )


# --------------------------------------------------------------------------
# Criterion 7: frozen skill-score fixtures.

# Confusion matrices with the score values printed in the reference
# tables they were taken from (3 decimal places, truncation and rounding
# both observed).
_FIXTURES = (
    ((1507, 61, 2, 30),
     {"sensitivity": 0.998, "specificity": 0.329, "accuracy": 0.960,
      "hss": 0.472}, 0.898),
    ((1550, 18, 2, 30),
     {"sensitivity": 0.998, "specificity": 0.625, "accuracy": 0.987,
      "hss": 0.744}, 0.926),
    ((187, 50, 9, 36),
     {"sensitivity": 0.954, "specificity": 0.419, "accuracy": 0.791,
      "hss": 0.430}, 0.590),
    ((210, 27, 11, 34),
     {"sensitivity": 0.950, "specificity": 0.557, "accuracy": 0.865,
      "hss": 0.561}, 0.642),
)


def test_criterion_07_skill_score_fixtures():
    """Fixed confusion matrices reproduce every printed sensitivity,
    specificity, accuracy, and HSS to 3 decimal places.

    TSS discrepancy, documented: the reference tables these matrices
    come from print TSS rows (0.898, 0.926, 0.590, 0.642) that do NOT
    equal sensitivity + specificity - 1 for the matrices as printed;
    they match a transposed reading of each matrix in which the two
    off-diagonal counts (false negatives and false positives) are
    swapped.  HSS and accuracy are invariant under that swap, which is
    why every other row still agrees.  This suite asserts the formula
    as defined on the matrix as given, cross-checks the transposed
    reading against the printed rows, and records that the printed TSS
    rows are NOT reproduced by the straight reading.
    """
    matrices = [
        ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)
        for (tp, fp, fn, tn), _, _ in _FIXTURES
    ]
    skill_scores(matrices[0])  # warm up before the timed pass
    start = time.perf_counter()
    results = [skill_scores(cm) for cm in matrices]
    elapsed = time.perf_counter() - start

    for (counts, printed, printed_tss), scores in zip(_FIXTURES, results):
        for field, expected in printed.items():
            value = getattr(scores, field)
            assert abs(value - expected) < 1e-3, (
                f"{counts}: {field} {value:.6f} vs printed {expected}"
            )
        # the formula output itself
        assert abs(
            scores.tss - (scores.sensitivity + scores.specificity - 1.0)
        ) < 1e-12
        # straight reading does not reproduce the printed TSS row
        assert abs(scores.tss - printed_tss) > 1e-3
        # transposed reading (off-diagonals swapped) does
        tp, fp, fn, tn = counts
        swapped = skill_scores(ConfusionMatrix(tp=tp, fp=fn, fn=fp, tn=tn))
        assert abs(swapped.tss - printed_tss) < 1e-3
        assert abs(swapped.hss - scores.hss) < 1e-15  # swap invariance
        assert abs(swapped.accuracy - scores.accuracy) < 1e-15

    assert elapsed < 1e-3, f"four score computations took {elapsed * 1e6:.0f}us"
    print(f"criterion 07 PASS: 4 fixtures, {elapsed * 1e6:.0f}us "
          "(printed TSS rows confirmed transposed)")


# --------------------------------------------------------------------------
# Criterion 8: enumeration completeness.


def _brute_force_exponents(schema, constants, target, bound, active):
    """Direct scan over the whole exponent box; the slow reference."""
    feature_dims = schema.dimensions
    constant_dims = [c.dimension for c in constants]
    found = set()
    span = range(-bound, bound + 1)
    for fe in itertools.product(span, repeat=len(feature_dims)):
        if not any(fe):
            continue
        if sum(1 for e in fe if e) > active:
            continue
        base = DIMENSIONLESS
        for dim, e in zip(feature_dims, fe):
            if e:
                base = base * dim ** e
        for ce in itertools.product(span, repeat=len(constant_dims)):
            total = base
            for dim, e in zip(constant_dims, ce):
                if e:
                    total = total * dim ** e
            if total == target:
                found.add((fe, tuple(ce)))
    return found


def test_criterion_08_enumeration_contains_catalog_and_matches_oracle():
    """Exhaustive search over the pipe-flow schema (+ g) at bounds 4/4
    contains all seven shipped catalog monomials; on small schemas with
    bounds <= 2 the search equals a brute-force scan exactly."""
    catalog = load_catalog("bernoulli")
    schema = schema_of(
        tuple((f.name, format_unit(f.dimension)) for f in catalog.features)
    )
    enumerated = enumerate_monomials(
        schema,
        catalog.constants,
        catalog.target_dimension,
        max_abs_exponent=4,
        max_active_features=4,
    )
    n_features = len(schema)
    enumerated_keys = {
        (tuple(row[:n_features]), tuple(row[n_features:]))
        for row in enumerated.tolist()
    }
    for row in catalog.exponents.tolist():
        key = (tuple(row[:n_features]), tuple(row[n_features:]))
        assert key in enumerated_keys, (
            f"catalog monomial {key} missing from the {len(enumerated_keys)} "
            "enumerated"
        )

    oracle_cases = [
        ((("m", "kg"), ("v", "m/s"), ("r", "m")), (), "J", 2, 3),
        ((("rho", "kg/m^3"), ("v", "m/s"), ("h", "m")), ("g",), "Pa", 2, 3),
        ((("B", "T"), ("S", "m^2")), (), "kg*m^2*s^-2*A^-1", 2, 2),
        ((("m", "kg"), ("v", "m/s"), ("r", "m"), ("t", "s")), ("c",), "J", 2, 4),
    ]
    for pairs, constant_names, target_text, bound, active in oracle_cases:
        case_schema = schema_of(pairs)
        constants = tuple(STANDARD_CONSTANTS[name] for name in constant_names)
        target = parse_unit(target_text)
        n_features = len(case_schema)
        fast = {
            (tuple(row[:n_features]), tuple(row[n_features:]))
            for row in enumerate_monomials(
                case_schema, constants, target,
                max_abs_exponent=bound, max_active_features=active,
                max_constant_exponent=bound,
            ).tolist()
        }
        slow = _brute_force_exponents(case_schema, constants, target, bound, active)
        assert fast == slow, f"schema {pairs}: fast {len(fast)} vs slow {len(slow)}"
    print(f"criterion 08 PASS: catalog contained "
          f"({len(catalog)}/{len(enumerated_keys)} enumerated), "
          f"{len(oracle_cases)} oracle schemas equal")


def test_criterion_08_oracle_on_unused_units_and_constants():
    """The search equals a brute-force scan where a feature carries a unit
    the target does not use (kelvin here), where constants bring a unit
    (ampere) that only they and one feature share, and where neither the
    items nor the target carry a unit."""
    cases = [
        ((("m", "kg"), ("v", "m/s"), ("theta", "K"), ("r", "m")), (), "J", 2, 4),
        ((("B", "T"), ("r", "m"), ("omega", "1/s")), ("mu0", "c"), "W", 2, 3),
        ((("a", "1"), ("phi", "rad")), (), "1", 2, 2),
    ]
    for pairs, constant_names, target_text, bound, active in cases:
        schema = schema_of(pairs)
        constants = tuple(STANDARD_CONSTANTS[name] for name in constant_names)
        target = parse_unit(target_text)
        n_features = len(schema)
        fast = {
            (tuple(row[:n_features]), tuple(row[n_features:]))
            for row in enumerate_monomials(
                schema, constants, target, max_abs_exponent=bound,
                max_active_features=active, max_constant_exponent=bound,
            ).tolist()
        }
        slow = _brute_force_exponents(schema, constants, target, bound, active)
        assert slow, f"schema {pairs} has no monomial to compare"
        assert fast == slow, f"schema {pairs}: fast {len(fast)} vs slow {len(slow)}"


# --------------------------------------------------------------------------
# Criterion 9: dimensional audit of the shipped catalogs.


def test_criterion_09_dimensional_audit():
    """Strict load of the rotating-dipole catalog fails on exactly its
    third and seventh monomials; the other catalogs load strictly clean."""
    with pytest.raises(DimensionMismatch) as excinfo:
        load_catalog("pulsar")
    message = str(excinfo.value)
    assert "monomial 3" in message and "monomial 7" in message

    permissive = load_catalog("pulsar", allow_inconsistent=True)
    assert permissive.inconsistent_indices == (2, 6)

    for name in ("bernoulli", "binary", "flare"):
        spec = load_catalog(name)  # strict: raises on any inconsistency
        assert spec.inconsistent_indices == ()
    print("criterion 09 PASS: pulsar flags (2, 6); "
          "bernoulli/binary/flare strictly clean")


# --------------------------------------------------------------------------
# Criterion 10: bulk property suites.


def _random_dimension(rng):
    numerators = rng.integers(-6, 7, size=7)
    denominators = rng.integers(1, 4, size=7)
    return Dimension(tuple(
        Fraction(int(num), int(den))
        for num, den in zip(numerators, denominators)
    ))


def _suite_dimension_group_laws(rng, cases):
    for _ in range(cases):
        a = _random_dimension(rng)
        b = _random_dimension(rng)
        c = _random_dimension(rng)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * DIMENSIONLESS == a
        assert a * a ** -1 == DIMENSIONLESS
        assert (a * b) ** 2 == a ** 2 * b ** 2
        assert (a ** Fraction(1, 2)) ** 2 == a


def _suite_shrinkage_monotone(rng, cases):
    for _ in range(cases):
        n = int(rng.integers(10, 41))
        p = int(rng.integers(1, 7))
        Z = rng.standard_normal((n, p))
        Z -= Z.mean(axis=0)
        y = rng.standard_normal(n) * 10.0 ** float(rng.integers(-2, 3))
        norms = [
            float(np.linalg.norm(ridge_fit(Z, y, lam).weights))
            for lam in (1e-6, 1e-3, 1e-1, 10.0)
        ]
        for bigger, smaller in zip(norms, norms[1:]):
            assert smaller <= bigger * (1 + 1e-10) + 1e-12


def _suite_destandardize_equivalence(rng, cases):
    for _ in range(cases):
        n = int(rng.integers(5, 40))
        p = int(rng.integers(1, 6))
        scales = 10.0 ** rng.integers(-3, 4, size=p)
        X = rng.random((n, p)) * scales + rng.standard_normal(p)
        y = rng.standard_normal(n)
        model, _ = fit_standardized(X, y, 1e-3)
        coefficients, intercept = destandardize(model)
        direct = X @ coefficients + intercept
        via_model = ridge_predict(
            model, standardize_apply(X, model.standardization)
        )
        np.testing.assert_allclose(direct, via_model, rtol=1e-8, atol=1e-8)


def _suite_parser_round_trip(rng, cases):
    for _ in range(cases):
        dimension = _random_dimension(rng)
        assert parse_unit(format_unit(dimension)) == dimension


def test_criterion_10_property_suites():
    """Group laws x1000, shrinkage x100, destandardization x100,
    parser round-trip x1000; total under 5 seconds."""
    rng = np.random.Generator(np.random.PCG64(990))
    suites = (
        (_suite_dimension_group_laws, 1000),
        (_suite_shrinkage_monotone, 100),
        (_suite_destandardize_equivalence, 100),
        (_suite_parser_round_trip, 1000),
    )
    start = time.perf_counter()
    for suite, cases in suites:
        suite(rng, cases)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"property suites took {elapsed:.2f}s, budget 5s"
    print(f"criterion 10 PASS: 2200 property cases in {elapsed:.2f}s")
