"""Bundled feature-map catalogs: audits, structure, and evaluation hooks."""

import numpy as np
import pytest

from pifmap import featuremap
from pifmap.catalogs import CATALOG_NAMES, load_catalog
from pifmap.data import Dataset, schema_of
from pifmap.dimension import format_unit, parse_unit
from pifmap.errors import DimensionMismatch, UnknownCatalog
from pifmap.featuremap import evaluate_map, monomial_dimension, render_monomial
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
        assert CATALOG_NAMES == ("bernoulli", "binary", "flare", "pulsar",
                                 "pulsar_no_pif1")

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
        assert len(spec.diagnostics) == 2

    def test_pulsar_ablated_variant(self):
        spec = load_catalog("pulsar_no_pif1", allow_inconsistent=True)
        full = load_catalog("pulsar", allow_inconsistent=True)
        assert len(spec.monomials) == len(full.monomials) - 1
        assert spec.monomials == full.monomials[1:]
        with pytest.raises(DimensionMismatch):
            load_catalog("pulsar_no_pif1")

    def test_strict_load_checks_each_monomial_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return monomial_dimension(*args, **kwargs)

        monkeypatch.setattr(featuremap, "monomial_dimension", counting)
        spec = load_catalog("bernoulli")
        assert calls == list(spec.monomials)

    def test_loads_are_independent_copies(self):
        a = load_catalog("bernoulli")
        b = load_catalog("bernoulli")
        assert a is not b
        assert a.monomials == b.monomials


class TestBernoulliCatalog:
    def test_shape(self):
        spec = load_catalog("bernoulli")
        assert [f.name for f in spec.features] == [
            "p", "rho", "v", "Q", "A", "mu", "h",
        ]
        assert len(spec.monomials) == 7
        assert spec.target_dimension == parse_unit("Pa")

    def test_every_monomial_lands_on_target(self):
        spec = load_catalog("bernoulli")
        dims = spec.column_dimensions
        for monomial in spec.monomials:
            got = monomial_dimension(
                monomial, dims, tuple(c.dimension for c in spec.constants)
            )
            assert got == spec.target_dimension

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
        assert len(spec.monomials) == 7
        assert spec.target_dimension == parse_unit("W")
        assert all(m.sign == -1 for m in spec.monomials)

    def test_consistent_monomials_land_on_watt(self):
        spec = load_catalog("pulsar", allow_inconsistent=True)
        dims = spec.column_dimensions
        constant_dims = tuple(c.dimension for c in spec.constants)
        for index, monomial in enumerate(spec.monomials):
            got = monomial_dimension(monomial, dims, constant_dims)
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
        # the experiment's spif_no_pif1 arm slices the full map this way
        data = gen_pulsar(1000, 3)
        full = evaluate_map(load_catalog("pulsar", allow_inconsistent=True), data)
        ablated = evaluate_map(
            load_catalog("pulsar_no_pif1", allow_inconsistent=True), data
        )
        assert np.ascontiguousarray(full[:, 1:]).tobytes() == ablated.tobytes()

    def test_angle_enters_through_sin_squared(self):
        spec = load_catalog("pulsar", allow_inconsistent=True)
        alpha_index = [f.name for f in spec.features].index("alpha")
        leading = spec.monomials[0]
        assert leading.transform_for(alpha_index) == "sin2"

    def test_leading_and_second_are_distinct(self):
        spec = load_catalog("pulsar", allow_inconsistent=True)
        assert spec.monomials[0] != spec.monomials[1]


class TestBinaryCatalog:
    def test_shape(self):
        spec = load_catalog("binary")
        assert [f.name for f in spec.features] == ["m1", "m2", "v", "r"]
        assert [d.name for d in spec.derived] == ["mu_red"]
        assert len(spec.monomials) == 2
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
        assert len(spec.monomials) == 8
        assert spec.target_dimension == parse_unit("T*A*m^2")

    def test_all_monomials_consistent(self):
        spec = load_catalog("flare")
        dims = spec.column_dimensions
        for monomial in spec.monomials:
            assert monomial_dimension(monomial, dims, ()) == spec.target_dimension

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
