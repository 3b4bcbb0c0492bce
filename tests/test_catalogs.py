"""Bundled feature-map catalogs: audits, structure, and evaluation hooks."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from pifmap import catalogs, featuremap
from pifmap.catalogs import CATALOG_NAMES, load_catalog
from pifmap.data import Dataset, schema_of
from pifmap.dimension import format_unit, parse_unit
from pifmap.errors import DimensionMismatch, UnknownCatalog
from pifmap.featuremap import (
    FeatureMapSpec,
    evaluate_map,
    monomial_dimension,
    render_monomial,
)
from pifmap.metrics import confusion, skill_scores
from pifmap.regression import (
    classify,
    fit_standardized,
    ridge_predict,
    standardize_apply,
)
from pifmap.synthdata import gen_binary, gen_bernoulli, gen_pulsar


class TestLoading:
    def test_names_listed(self):
        assert CATALOG_NAMES == ("bernoulli", "binary", "flare", "pulsar")

    def test_unknown_name(self):
        with pytest.raises(UnknownCatalog):
            load_catalog("nope")

    @pytest.mark.parametrize("name", ["bernoulli", "binary", "flare"])
    def test_strictly_consistent_catalogs(self, name):
        spec = load_catalog(name)
        assert spec.inconsistent_indices == ()
        assert spec.diagnostics == ()

    def test_pulsar_strict_raises_on_audited_monomials(self):
        with pytest.raises(DimensionMismatch) as info:
            load_catalog("pulsar")
        assert [entry[0] for entry in info.value.entries] == [2, 6]

    def test_pulsar_permissive_records_diagnostics(self):
        spec = load_catalog("pulsar", allow_inconsistent=True)
        assert spec.inconsistent_indices == (2, 6)
        assert spec.diagnostics == (
            "pif_3 (-r^4*B^2*omega*mu0^-1) has dimension kg*m^3*s^-3, "
            "declared target is kg*m^2*s^-3",
            "pif_7 (-r^2*omega^-3*m) has dimension kg*m^2*s^3, "
            "declared target is kg*m^2*s^-3",
        )

    @staticmethod
    def _count_checks(monkeypatch):
        lattice_checks, dimension_calls = [], []
        lattice = featuremap._mismatched_rows

        def counting_lattice(*args, **kwargs):
            lattice_checks.append(args[0])
            return lattice(*args, **kwargs)

        def counting_dimension(*args, **kwargs):
            dimension_calls.append(args[0])
            return monomial_dimension(*args, **kwargs)

        monkeypatch.setattr(featuremap, "_mismatched_rows", counting_lattice)
        monkeypatch.setattr(featuremap, "monomial_dimension", counting_dimension)
        return lattice_checks, dimension_calls

    def test_strict_load_checks_each_monomial_once(self, monkeypatch):
        # one integer product checks every monomial; a consistent spec
        # never needs the per-monomial exponent sum
        lattice_checks, dimension_calls = self._count_checks(monkeypatch)
        spec = load_catalog("bernoulli")
        assert len(lattice_checks) == 1
        assert lattice_checks[0].tobytes() == spec.exponents.tobytes()
        assert dimension_calls == []

    def test_permissive_load_sums_only_the_mismatched_monomials(self, monkeypatch):
        # the one lattice product also gives each mismatched row's
        # dimension, so neither diagnostics nor the strict load's error
        # needs the per-monomial exponent sum
        lattice_checks, dimension_calls = self._count_checks(monkeypatch)
        spec = load_catalog("pulsar", allow_inconsistent=True)
        assert spec.inconsistent_indices == (2, 6)
        assert len(spec.diagnostics) == 2
        assert len(lattice_checks) == 1
        assert lattice_checks[0].tobytes() == spec.exponents.tobytes()
        assert dimension_calls == []
        with pytest.raises(DimensionMismatch) as info:
            load_catalog("pulsar")
        assert [entry[0] for entry in info.value.entries] == [2, 6]
        assert len(lattice_checks) == 2
        assert dimension_calls == []

    def test_loads_are_independent_copies(self):
        a = load_catalog("bernoulli")
        b = load_catalog("bernoulli")
        assert a is not b
        assert a.exponents is not b.exponents
        assert a.exponents.tobytes() == b.exponents.tobytes()
        assert a.signs.tolist() == b.signs.tolist()
        assert a.transforms == b.transforms


class TestBernoulliCatalog:
    def test_shape(self):
        spec = load_catalog("bernoulli")
        assert [f.name for f in spec.features] == [
            "p", "rho", "v", "Q", "A", "mu", "h",
        ]
        assert len(spec) == 7
        assert spec.target_dimension == parse_unit("Pa")

    def test_every_monomial_lands_on_target(self):
        spec = load_catalog("bernoulli")
        for index in range(len(spec)):
            assert monomial_dimension(spec, index) == spec.target_dimension

    def test_generating_terms_lead(self):
        spec = load_catalog("bernoulli")
        assert render_monomial(spec, 0) == "p"
        assert render_monomial(spec, 1) == "rho*v^2"
        assert render_monomial(spec, 2) == "rho*h*g"

    def test_label_is_exact_combination(self):
        data = gen_bernoulli(50, 123)
        Phi = evaluate_map(load_catalog("bernoulli"), data)
        recon = Phi[:, 0] + 0.5 * Phi[:, 1] + Phi[:, 2]
        np.testing.assert_allclose(recon, data.y, rtol=1e-12)


class TestPulsarCatalog:
    def test_shape(self):
        spec = load_catalog("pulsar", allow_inconsistent=True)
        assert [f.name for f in spec.features] == [
            "r", "B", "omega", "alpha", "P", "m", "I", "E",
        ]
        assert len(spec) == 7
        assert spec.target_dimension == parse_unit("W")
        assert spec.signs.tolist() == [-1] * 7

    def test_consistent_monomials_land_on_watt(self):
        spec = load_catalog("pulsar", allow_inconsistent=True)
        for index in range(len(spec)):
            got = monomial_dimension(spec, index)
            if index in spec.inconsistent_indices:
                assert got != spec.target_dimension
            else:
                assert got == spec.target_dimension

    def test_label_proportional_to_leading_monomial(self):
        data = gen_pulsar(50, 5)
        spec = load_catalog("pulsar", allow_inconsistent=True)
        Phi = evaluate_map(spec, data)
        np.testing.assert_allclose(
            data.y, (2.0 * np.pi / 3.0) * Phi[:, 0], rtol=1e-12
        )

    def test_ablated_catalog_is_the_map_without_its_first_column(self):
        # the experiment's spif_no_pif1 arm slices the full map this way; a
        # spec of the remaining monomials alone gives the same columns
        data = gen_pulsar(1000, 3)
        spec = load_catalog("pulsar", allow_inconsistent=True)
        without_first = FeatureMapSpec(
            name="ablated",
            features=spec.features,
            constants=spec.constants,
            exponents=spec.exponents[1:],
            target_dimension=spec.target_dimension,
            signs=spec.signs[1:],
            transforms={(row - 1, column): tag
                        for (row, column), tag in spec.transforms.items() if row},
            allow_inconsistent=True,
        )
        assert without_first.inconsistent_indices == (1, 5)
        full = evaluate_map(spec, data)
        ablated = evaluate_map(without_first, data)
        assert np.ascontiguousarray(full[:, 1:]).tobytes() == ablated.tobytes()

    def test_angle_enters_through_sin_squared(self):
        spec = load_catalog("pulsar", allow_inconsistent=True)
        alpha_index = [f.name for f in spec.features].index("alpha")
        assert spec.transforms[0, alpha_index] == "sin2"

    def test_leading_and_second_are_distinct(self):
        spec = load_catalog("pulsar", allow_inconsistent=True)
        assert render_monomial(spec, 0) != render_monomial(spec, 1)


class TestBinaryCatalog:
    def test_shape(self):
        spec = load_catalog("binary")
        assert [f.name for f in spec.features] == ["m1", "m2", "v", "r"]
        assert [d.name for d in spec.derived] == ["mu_red"]
        assert len(spec) == 2
        assert spec.target_dimension == parse_unit("J")

    def test_energy_reconstruction(self):
        data = gen_binary(200, 9)
        spec = load_catalog("binary")
        Phi = evaluate_map(spec, data)
        m1, m2, v, r = (data.column(n) for n in ("m1", "m2", "v", "r"))
        g_newton = 6.674e-11
        energy = 0.5 * (m1 * m2 / (m1 + m2)) * v ** 2 - g_newton * m1 * m2 / r
        np.testing.assert_allclose(0.5 * Phi[:, 0] + Phi[:, 1], energy, rtol=1e-12)
        # the sign of that energy is exactly the stored label
        np.testing.assert_array_equal((energy < 0).astype(float), data.y)


class TestFlareCatalog:
    def test_shape_and_target(self):
        spec = load_catalog("flare")
        assert len(spec.features) == 9
        assert len(spec) == 8
        assert spec.target_dimension == parse_unit("T*A*m^2")

    def test_all_monomials_consistent(self):
        spec = load_catalog("flare")
        for index in range(len(spec)):
            assert monomial_dimension(spec, index) == spec.target_dimension

    def test_pipeline_on_synthetic_standin(self):
        # No generator ships for this schema (the source archive is not
        # redistributable), so the classification pipeline is exercised on a
        # synthetic stand-in with the same columns and units.
        spec = load_catalog("flare")
        rng = np.random.default_rng(77)
        n = 400
        X = rng.uniform(0.5, 2.0, size=(n, len(spec.features)))
        flux, current = X[:, 3], X[:, 0]
        signal = flux * current  # the map's second monomial, Phi * I
        y = (signal > np.median(signal)).astype(float)
        data = Dataset(
            schema=schema_of(
                [(f.name, format_unit(f.dimension)) for f in spec.features]
            ),
            X=X,
            y=y,
            label_dimension=spec.target_dimension,
        )
        Phi = evaluate_map(spec, data)
        split = int(n * 0.7)
        model, _ = fit_standardized(Phi[:split], y[:split])
        scores_test = ridge_predict(
            model, standardize_apply(Phi[split:], model.standardization)
        )
        cm = confusion(y[split:], classify(scores_test))
        assert cm.total == n - split
        scores = skill_scores(cm)
        # labels are a threshold on one mapped column, so the mapped arm
        # must separate the classes far better than chance
        assert scores.accuracy > 0.85
        assert scores.tss > 0.7


def _audit_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "audit_catalogs.py"
    spec = importlib.util.spec_from_file_location("audit_catalogs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestAuditScript:
    def test_shipped_catalogs_pass(self, capsys):
        assert _audit_script().main([]) == 0
        out = capsys.readouterr().out
        assert out.count("INCONSISTENT (declared)") == 2
        assert "undeclared" not in out

    def test_mismatch_missing_from_known_list_fails(self, monkeypatch, capsys):
        metadata = catalogs._CATALOGS["pulsar"]["metadata"]
        monkeypatch.setitem(metadata, "known_inconsistent", ["pif_3"])
        assert _audit_script().main([]) == 1
        undeclared = [line for line in capsys.readouterr().out.splitlines()
                      if "undeclared" in line]
        assert len(undeclared) == 1
        assert undeclared[0].split()[0] == "pif_7"
