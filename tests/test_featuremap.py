"""Feature maps of monomials: dimensions, enumeration, evaluation, round-trips."""

import itertools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pifmap import featuremap
from pifmap.catalogs import CATALOG_NAMES, load_catalog
from pifmap.data import Dataset, Feature, schema_of
from pifmap.dimension import DIMENSIONLESS, Dimension, format_unit, parse_unit
from pifmap.errors import (
    BudgetExceeded,
    DimensionMismatch,
    DivisionByZero,
    InvalidRange,
    LengthMismatch,
    NonFiniteResult,
    SchemaMismatch,
)
from pifmap.featuremap import (
    STANDARD_CONSTANTS,
    DerivedFeature,
    FeatureMapSpec,
    PhysicalConstant,
    destandardize,
    enumerate_monomials,
    evaluate_map,
    monomial_dimension,
    render_monomial,
    spec_from_dict,
    spec_to_dict,
)
from pifmap.regression import fit_standardized, ridge_predict, standardize_apply
from pifmap.synthdata import gen_bernoulli, gen_binary, gen_pulsar

KG = parse_unit("kg")
M_PER_S = parse_unit("m/s")
JOULE = parse_unit("J")


def _mve_fields():
    """A spec's fields over three features (mass, speed, energy), target J."""
    return {
        "name": "mve",
        "features": tuple(schema_of([("m", "kg"), ("v", "m/s"), ("E", "J")]).features),
        "constants": (),
        "target_dimension": JOULE,
    }


def _mve_spec():
    """Three features (mass, speed, energy) and three energy monomials."""
    return FeatureMapSpec(exponents=[(1, 2, 0), (0, 0, 1), (2, 4, -1)], **_mve_fields())


def _mve_dataset(rows):
    spec = _mve_spec()
    X = np.asarray(rows, dtype=float)
    return Dataset(
        schema=schema_of([("m", "kg"), ("v", "m/s"), ("E", "J")]),
        X=X,
        y=np.zeros(X.shape[0]),
        label_dimension=JOULE,
    )


class TestMonomialValidation:
    def test_requires_a_feature_exponent(self):
        # a row of constants alone is refused too
        fields = dict(_mve_fields(), constants=(STANDARD_CONSTANTS["g"],))
        for row in ((0, 0, 0, 0), (0, 0, 0, 1)):
            with pytest.raises(ValueError, match="monomial 2 uses no feature"):
                FeatureMapSpec(exponents=[(0, 0, 1, 0), row], **fields)

    def test_float_exponents_rejected(self):
        for bad in (1.5, True, 2.0):
            with pytest.raises(TypeError, match="exponents must be integers"):
                FeatureMapSpec(exponents=[(0, 0, bad)], **_mve_fields())
            # a spec document is checked the same way, in either exponent list
            for key in ("feature_exponents", "constant_exponents"):
                doc = spec_to_dict(load_catalog("bernoulli"))
                doc["monomials"][3][key][0] = bad
                with pytest.raises(TypeError, match="exponents must be integers"):
                    spec_from_dict(doc)

    def test_ragged_exponent_rows_rejected(self):
        doc = spec_to_dict(load_catalog("bernoulli"))
        doc["monomials"][1]["feature_exponents"].append(0)
        with pytest.raises(LengthMismatch, match="monomial 2 has 8 exponents"):
            spec_from_dict(doc)
        doc["monomials"][1]["feature_exponents"][-2:] = []
        with pytest.raises(LengthMismatch, match="monomial 2 has 6 exponents"):
            spec_from_dict(doc)

    def test_sign_must_be_unit(self):
        for bad in (2, 0, -2):
            with pytest.raises(ValueError, match=f"sign must be -1 or \\+1, got {bad}"):
                FeatureMapSpec(exponents=[(0, 0, 1)], signs=[bad], **_mve_fields())

    def test_non_integer_signs_rejected(self):
        # a spec document's signs are checked like its exponents, not
        # truncated to +-1
        for bad in (1.5, -1.9, True, "-1", 1.0):
            doc = spec_to_dict(load_catalog("bernoulli"))
            doc["monomials"][3]["sign"] = bad
            with pytest.raises(TypeError, match="signs must be integers"):
                spec_from_dict(doc)
        doc["monomials"][3]["sign"] = 2
        with pytest.raises(ValueError, match="sign must be -1 or \\+1, got 2"):
            spec_from_dict(doc)
        doc["monomials"][3]["sign"] = np.int64(-1)
        assert spec_from_dict(doc).signs[3] == -1

    @pytest.mark.parametrize("bad", [True, 1.0], ids=["bool", "float"])
    def test_constructor_checks_a_sign_as_a_document_does(self, bad):
        fields = _mve_fields()
        with pytest.raises(TypeError, match=f"signs must be integers, got {bad}"):
            FeatureMapSpec(exponents=[(0, 0, 1)], signs=[bad], **fields)
        spec = FeatureMapSpec(exponents=[(0, 0, 1)], signs=[np.int64(-1)], **fields)
        assert spec.signs.tolist() == [-1]

    @pytest.mark.parametrize("bad", [True, "9.8", None, [9.8]],
                             ids=["bool", "str", "null", "list"])
    def test_constant_values_must_be_numbers(self, bad):
        doc = spec_to_dict(load_catalog("bernoulli"))
        doc["constants"][0]["value"] = bad
        with pytest.raises(TypeError, match="constant values must be numbers"):
            spec_from_dict(doc)
        for good in (9, 9.80665, np.float64(9.80665)):
            doc["constants"][0]["value"] = good
            value = spec_from_dict(doc).constants[0].value
            assert type(value) is float and value == good

    def test_transform_tags_checked(self):
        with pytest.raises(ValueError, match="unknown transform tag 'cube'"):
            FeatureMapSpec(exponents=[(0, 0, 1)], transforms={(0, 2): "cube"},
                           **_mve_fields())
        doc = spec_to_dict(load_catalog("pulsar", allow_inconsistent=True))
        doc["monomials"][0]["transforms"]["3"] = "cube"
        with pytest.raises(ValueError, match="unknown transform tag 'cube'"):
            spec_from_dict(doc, allow_inconsistent=True)

    @pytest.mark.parametrize("key, error, message", [
        ((0, 8), ValueError, "transform index 8 out of range"),
        ((0, -1), ValueError, "transform index -1 out of range"),
        ((7, 3), ValueError, "transform on monomial 8 out of range"),
        # an index is not truncated: 3.5 would name column 3, true row 1
        ((0, 3.5), TypeError, "transform indices must be integers, got 3.5"),
        ((True, 3), TypeError, "transform indices must be integers, got True"),
        ((0, 3.0), TypeError, "transform indices must be integers, got 3.0"),
    ], ids=["column-8", "column-minus-1", "row-8", "column-3.5", "row-true",
            "column-3.0"])
    def test_transform_index_bounds(self, key, error, message):
        # the pulsar map: 7 monomials over 8 columns, alpha is column 3
        spec = load_catalog("pulsar", allow_inconsistent=True)
        fields = {name: getattr(spec, name) for name in (
            "name", "features", "constants", "exponents", "target_dimension", "signs")}
        with pytest.raises(error, match=message):
            FeatureMapSpec(transforms={key: "sin2"}, allow_inconsistent=True, **fields)


class TestMonomialDimension:
    # each spec is built permissively with a dimensionless target, so the
    # row's dimension comes from the sum alone, not from the target

    def test_product_of_feature_dimensions(self):
        fields = dict(_mve_fields(), target_dimension=DIMENSIONLESS)
        spec = FeatureMapSpec(exponents=[(0, 1, 0), (2, 4, -1)],
                              allow_inconsistent=True, **fields)
        # kg^2 (m/s)^4 / J = kg^2 m^4 s^-4 / (kg m^2 s^-2) = kg m^2 s^-2 = J
        assert monomial_dimension(spec, 1) == JOULE
        assert monomial_dimension(spec, -1) == JOULE
        assert monomial_dimension(spec, 0) == M_PER_S

    def test_transformed_feature_contributes_nothing(self):
        # a transform drops the dimension even of a dimensioned column
        features = tuple(schema_of([("m", "kg"), ("x", "m")]).features)
        spec = FeatureMapSpec(name="t", features=features, constants=(),
                              exponents=[(1, 2)], transforms={(0, 1): "sin2"},
                              target_dimension=DIMENSIONLESS, allow_inconsistent=True)
        assert monomial_dimension(spec, 0) == KG

    def test_constant_dimensions_enter(self):
        g = STANDARD_CONSTANTS["g"]
        features = tuple(schema_of([("m", "kg")]).features)
        spec = FeatureMapSpec(name="mg", features=features, constants=(g,),
                              exponents=[(1, 1)], target_dimension=DIMENSIONLESS,
                              allow_inconsistent=True)
        assert monomial_dimension(spec, 0) == parse_unit("kg*m/s^2")


class TestPhysicalConstants:
    def test_standard_values(self):
        assert STANDARD_CONSTANTS["g"].value == 9.80665
        assert STANDARD_CONSTANTS["c"].value == 2.99792458e8
        assert STANDARD_CONSTANTS["G"].value == 6.674e-11
        assert STANDARD_CONSTANTS["mu0"].value == 1.2566370614e-6

    def test_dimensions(self):
        assert STANDARD_CONSTANTS["g"].dimension == parse_unit("m/s^2")
        assert STANDARD_CONSTANTS["G"].dimension == parse_unit("m^3/(kg*s^2)")
        assert STANDARD_CONSTANTS["mu0"].dimension == parse_unit("kg*m/(A^2*s^2)")
        assert STANDARD_CONSTANTS["c"].dimension == M_PER_S

    def test_zero_valued_constant_rejected(self):
        with pytest.raises(ValueError):
            PhysicalConstant("zero", 0.0, KG)


class TestSpecValidation:
    def test_consistent_spec_loads(self):
        spec = _mve_spec()
        assert spec.monomial_names == ("pif_1", "pif_2", "pif_3")
        assert spec.inconsistent_indices == ()

    def test_undeclared_mismatch_raises(self):
        features = tuple(schema_of([("m", "kg"), ("v", "m/s")]).features)
        with pytest.raises(DimensionMismatch) as info:
            FeatureMapSpec(
                name="bad",
                features=features,
                constants=(),
                exponents=[(1, 2), (1, 0)],
                target_dimension=JOULE,
            )
        # second monomial is kg, not J; entries carry 0-based indices
        assert [entry[0] for entry in info.value.entries] == [1]

    def test_declared_mismatch_tolerated(self):
        features = tuple(schema_of([("m", "kg"), ("v", "m/s")]).features)
        spec = FeatureMapSpec(
            name="mixed",
            features=features,
            constants=(),
            exponents=[(1, 2), (1, 0)],
            target_dimension=JOULE,
            allow_inconsistent=True,
        )
        assert spec.inconsistent_indices == (1,)
        assert spec.diagnostics == (
            "pif_2 (m) has dimension kg, declared target is kg*m^2*s^-2",
        )
        with pytest.raises(AttributeError):
            spec.inconsistent_indices = ()


    def test_rows_read_back_as_the_monomials_they_were_built_from(self):
        spec = _mve_spec()
        assert spec.exponents.tolist() == [[1, 2, 0], [0, 0, 1], [2, 4, -1]]
        assert spec.signs.tolist() == [1, 1, 1]
        assert spec.transforms == {}

    def test_monomial_of_the_wrong_length_rejected(self):
        # a row spans the features, the derived features and the constants
        features = tuple(schema_of([("m", "kg"), ("v", "m/s")]).features)
        with pytest.raises(LengthMismatch,
                           match="monomial 1 has 3 exponents for 4 columns and constants"):
            FeatureMapSpec(
                name="short", features=features, constants=(STANDARD_CONSTANTS["g"],),
                exponents=[(1, 2, 0), (1, 2, 0, 0)],
                target_dimension=JOULE,
                derived=(DerivedFeature("mu", KG, "reduced_mass", ("m", "m")),),
            )


class TestRenderMonomial:
    def test_plain_product(self):
        spec = _mve_spec()
        assert render_monomial(spec, 0) == "m*v^2"
        assert render_monomial(spec, 1) == "E"
        assert render_monomial(spec, 2) == "m^2*v^4*E^-1"

    def test_sign_and_transform_and_constant(self):
        features = tuple(
            schema_of([("r", "m"), ("alpha", "rad")]).features
        )
        spec = FeatureMapSpec(
            name="t",
            features=features,
            constants=(STANDARD_CONSTANTS["c"],),
            exponents=[(1, 1, -1)],
            signs=[-1],
            transforms={(0, 1): "sin2"},
            target_dimension=parse_unit("s"),
        )
        assert render_monomial(spec, 0) == "-r*sin2(alpha)*c^-1"
        assert render_monomial(spec, -1) == "-r*sin2(alpha)*c^-1"


def _per_monomial_reference(spec, dataset):
    """Each monomial evaluated on its own, every factor recomputed."""
    n_columns = len(spec.column_dimensions)
    out = np.empty((dataset.n_rows, len(spec)))
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (row, sign) in enumerate(zip(spec.exponents.tolist(), spec.signs.tolist())):
            value = np.ones(dataset.n_rows)
            for position, exponent in enumerate(row[:n_columns]):
                if exponent:
                    transform = featuremap.TRANSFORM_TAGS[
                        spec.transforms.get((j, position), "identity")]
                    value = value * transform(dataset.X[:, position]) ** exponent
            scale = 1.0
            for constant, exponent in zip(spec.constants, row[n_columns:]):
                if exponent:
                    scale *= constant.value ** exponent
            out[:, j] = value * (sign * scale)
    return out


def _shared_power_case(tag, n=64):
    """Energy monomials m^a v^b E^c alpha^d sharing (column, exponent) pairs."""
    columns = [("m", "kg"), ("v", "m/s"), ("E", "J"), ("alpha", "rad")]
    # rows 0, 2, 4 and 7 put alpha through the transform
    on_alpha = {} if tag is None else {(row, 3): tag for row in (0, 2, 4, 7)}
    spec = FeatureMapSpec(
        name="shared",
        features=tuple(schema_of(columns).features),
        constants=(),
        exponents=[(1, 2, 0, 1), (1, 2, 0, 1), (0, 0, 1, 2), (2, 4, -1, 0),
                   (1, 2, 0, -1), (2, 4, -1, 1), (0, 0, 1, -1), (3, 6, -2, 2)],
        signs=[1, 1, -1, 1, 1, 1, 1, 1],
        transforms=on_alpha,
        target_dimension=JOULE,
    )
    rng = np.random.Generator(np.random.PCG64(31))
    X = rng.uniform(0.1, 3.0, size=(n, 4))
    data = Dataset(schema=schema_of(columns), X=X, y=np.zeros(n),
                   label_dimension=JOULE)
    return spec, data


class TestEvaluateMap:
    @pytest.mark.parametrize("tag", [None, "sin2"])
    def test_shared_powers_match_a_per_monomial_reference_bitwise(self, tag):
        spec, data = _shared_power_case(tag)
        Phi = evaluate_map(spec, data)
        assert Phi.tobytes() == _per_monomial_reference(spec, data).tobytes()

    def test_division_by_zero_names_the_first_negative_use(self):
        # E = 0 in rows 1 and 3: monomial 2 uses E^1 and monomial 4 E^-1
        spec, data = _shared_power_case(None)
        data.X[[1, 3], 2] = 0.0
        with pytest.raises(DivisionByZero) as info:
            evaluate_map(spec, data)
        assert (info.value.monomial, info.value.row) == (3, 1)

    def test_each_power_is_computed_once_per_call(self, monkeypatch):
        data = gen_bernoulli(40, 1)
        exponents = enumerate_monomials(
            data.schema, (STANDARD_CONSTANTS["g"],), parse_unit("Pa"), 4, 4)
        spec = FeatureMapSpec(
            name="wide",
            features=tuple(data.schema.features),
            constants=(STANDARD_CONSTANTS["g"],),
            exponents=exponents,
            target_dimension=parse_unit("Pa"),
        )
        factors = [(i, e) for row in exponents.tolist()
                   for i, e in enumerate(row[:-1]) if e]
        assert (len(exponents), len(factors), len(set(factors))) == (419, 1606, 56)
        identity = featuremap.TRANSFORM_TAGS["identity"]
        calls = []

        def counted(values):
            calls.append(1)
            return identity(values)

        monkeypatch.setitem(featuremap.TRANSFORM_TAGS, "identity", counted)
        Phi = evaluate_map(spec, data)
        assert len(calls) == 56
        assert Phi.tobytes() == _per_monomial_reference(spec, data).tobytes()

    @pytest.mark.parametrize("tag", [None, "sin2"])
    def test_row_blocks_match_a_per_monomial_reference_bitwise(self, tag):
        # two and a half blocks: the last block is short
        spec, data = _shared_power_case(tag, n=5 * featuremap._BLOCK_ROWS // 2)
        Phi = evaluate_map(spec, data)
        assert Phi.flags.f_contiguous
        assert Phi.tobytes() == _per_monomial_reference(spec, data).tobytes()

    def test_block_errors_name_the_first_failing_monomial_of_the_table(self):
        # The first block fails at monomial 5 (alpha^-1 on alpha = 0), the
        # second at monomial 4 (m^2 v^4 E^-1 overflows on a subnormal E).
        # On the whole table monomial 4 fails first, at its row in the table.
        spec, data = _shared_power_case(None, n=2 * featuremap._BLOCK_ROWS + 10)
        data.X[100, 3] = 0.0
        second_block_row = featuremap._BLOCK_ROWS + 7
        data.X[second_block_row, 2] = 1e-310
        with pytest.raises(DivisionByZero) as first_block:
            evaluate_map(spec, Dataset(schema=data.schema, X=data.X[:200],
                                       y=data.y[:200],
                                       label_dimension=JOULE))
        assert (first_block.value.monomial, first_block.value.row) == (4, 100)
        with pytest.raises(NonFiniteResult) as info:
            evaluate_map(spec, data)
        assert (info.value.monomial, info.value.row) == (3, second_block_row)
        assert str(info.value) == (
            f"monomial 4 is non-finite at row {second_block_row}")

    def test_division_by_zero_in_a_later_block_names_its_table_row(self):
        spec, data = _shared_power_case(None, n=3 * featuremap._BLOCK_ROWS)
        row = 2 * featuremap._BLOCK_ROWS + 5
        data.X[row, 2] = 0.0
        with pytest.raises(DivisionByZero) as info:
            evaluate_map(spec, data)
        assert (info.value.monomial, info.value.row) == (3, row)

    def test_memory_beyond_the_output_is_one_block(self):
        spec = load_catalog("pulsar", allow_inconsistent=True)
        data = gen_pulsar(200_000, 5)
        output_bytes = data.n_rows * len(spec) * 8
        tracemalloc.start()
        try:
            Phi = evaluate_map(spec, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert Phi.nbytes == output_bytes
        assert peak < 1.1 * output_bytes

    def test_a_failing_table_stays_within_one_block_of_memory(self):
        # a zero omega in the last block fails monomial 7 (m r^2 omega^-3)
        spec = load_catalog("pulsar", allow_inconsistent=True)
        data = gen_pulsar(200_000, 5)
        data.X[199_000, 2] = 0.0
        output_bytes = data.n_rows * len(spec) * 8
        tracemalloc.start()
        try:
            with pytest.raises(DivisionByZero) as info:
                evaluate_map(spec, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (info.value.monomial, info.value.row) == (6, 199_000)
        assert peak < 1.1 * output_bytes

    def test_a_derived_column_error_in_a_later_block_comes_first(self):
        # r = 0 fails monomial 2 (-G m1 m2 / r) in the first block; the zero
        # total mass in the second block is the error raised
        spec = load_catalog("binary")
        data = gen_binary(2 * featuremap._BLOCK_ROWS, 1)
        data.X[5, 3] = 0.0
        row = featuremap._BLOCK_ROWS + 3
        data.X[row, :2] = (1.0, -1.0)
        with pytest.raises(DivisionByZero) as info:
            evaluate_map(spec, data)
        assert (info.value.monomial, info.value.row) == (None, row)
        assert str(info.value) == f"reduced mass undefined at row {row} (zero total)"

    def test_a_monomial_failing_two_ways_names_its_first_failing_block(self):
        # monomial 4 (m^2 v^4 E^-1) overflows on a subnormal E in the first
        # block and meets a zero E in the second; the first block's error
        # is the one raised
        spec, data = _shared_power_case(None, n=2 * featuremap._BLOCK_ROWS)
        data.X[7, 2] = 1e-310
        data.X[featuremap._BLOCK_ROWS + 5, 2] = 0.0
        with pytest.raises(NonFiniteResult) as info:
            evaluate_map(spec, data)
        assert (info.value.monomial, info.value.row) == (3, 7)

    def test_hand_oracle_row(self):
        # m v^2, E, m^2 v^4 / E at (m, v, E) = (2, 3, 5)
        Phi = evaluate_map(_mve_spec(), _mve_dataset([[2.0, 3.0, 5.0]]))
        assert Phi.shape == (1, 3)
        np.testing.assert_allclose(Phi[0], [18.0, 5.0, 64.8], rtol=1e-15)

    def test_multiple_rows_columns_ordered(self):
        Phi = evaluate_map(
            _mve_spec(), _mve_dataset([[1.0, 1.0, 1.0], [2.0, 1.0, 4.0]])
        )
        np.testing.assert_allclose(Phi[:, 1], [1.0, 4.0])

    def test_sign_flips_column(self):
        features = tuple(schema_of([("m", "kg")]).features)
        spec = FeatureMapSpec(
            name="neg",
            features=features,
            constants=(),
            exponents=[(1,)],
            signs=[-1],
            target_dimension=KG,
        )
        data = Dataset(
            schema=schema_of([("m", "kg")]),
            X=np.array([[3.0]]),
            y=np.zeros(1),
            label_dimension=KG,
        )
        assert evaluate_map(spec, data)[0, 0] == -3.0

    def test_sin2_transform_applied(self):
        features = tuple(schema_of([("alpha", "rad")]).features)
        spec = FeatureMapSpec(
            name="s2",
            features=features,
            constants=(),
            exponents=[(1,)],
            transforms={(0, 0): "sin2"},
            target_dimension=DIMENSIONLESS,
        )
        data = Dataset(
            schema=schema_of([("alpha", "rad")]),
            X=np.array([[np.pi / 2], [0.0], [np.pi / 6]]),
            y=np.zeros(3),
            label_dimension=DIMENSIONLESS,
        )
        Phi = evaluate_map(spec, data)
        np.testing.assert_allclose(Phi[:, 0], [1.0, 0.0, 0.25], atol=1e-15)

    def test_constant_power_enters_value(self):
        features = tuple(schema_of([("h", "m")]).features)
        g = STANDARD_CONSTANTS["g"]
        spec = FeatureMapSpec(
            name="gh",
            features=features,
            constants=(g,),
            exponents=[(1, 1)],
            target_dimension=parse_unit("m^2/s^2"),
        )
        data = Dataset(
            schema=schema_of([("h", "m")]),
            X=np.array([[2.0]]),
            y=np.zeros(1),
            label_dimension=parse_unit("m^2/s^2"),
        )
        assert evaluate_map(spec, data)[0, 0] == pytest.approx(2 * 9.80665)

    def test_zero_base_negative_exponent_raises(self):
        rows = [[2.0, 3.0, 0.0]]
        with pytest.raises(DivisionByZero) as info:
            evaluate_map(_mve_spec(), _mve_dataset(rows))
        assert info.value.row == 0
        assert info.value.monomial == 2

    def test_schema_name_mismatch(self):
        spec = _mve_spec()
        data = Dataset(
            schema=schema_of([("m", "kg"), ("u", "m/s"), ("E", "J")]),
            X=np.ones((2, 3)),
            y=np.zeros(2),
            label_dimension=JOULE,
        )
        with pytest.raises(SchemaMismatch):
            evaluate_map(spec, data)

    def test_schema_dimension_mismatch(self):
        spec = _mve_spec()
        data = Dataset(
            schema=schema_of([("m", "kg"), ("v", "m/s"), ("E", "W")]),
            X=np.ones((2, 3)),
            y=np.zeros(2),
            label_dimension=JOULE,
        )
        with pytest.raises(SchemaMismatch):
            evaluate_map(spec, data)

    def test_overflow_surfaces_as_non_finite(self):
        rows = [[1e300, 1e8, 1.0]]
        with pytest.raises(NonFiniteResult):
            evaluate_map(_mve_spec(), _mve_dataset(rows))


class TestDerivedFeatures:
    def _binary_like_spec(self):
        features = tuple(schema_of([("m1", "kg"), ("m2", "kg")]).features)
        derived = (DerivedFeature("mu_red", KG, "reduced_mass", ("m1", "m2")),)
        return FeatureMapSpec(
            name="red",
            features=features,
            constants=(),
            exponents=[(0, 0, 1)],
            target_dimension=KG,
            derived=derived,
        )

    def test_reduced_mass_value(self):
        spec = self._binary_like_spec()
        data = Dataset(
            schema=schema_of([("m1", "kg"), ("m2", "kg")]),
            X=np.array([[2.0, 2.0], [3.0, 6.0]]),
            y=np.zeros(2),
            label_dimension=KG,
        )
        Phi = evaluate_map(spec, data)
        np.testing.assert_allclose(Phi[:, 0], [1.0, 2.0])

    def test_zero_total_mass_raises(self):
        spec = self._binary_like_spec()
        data = Dataset(
            schema=schema_of([("m1", "kg"), ("m2", "kg")]),
            X=np.array([[0.0, 0.0]]),
            y=np.zeros(1),
            label_dimension=KG,
        )
        with pytest.raises(DivisionByZero):
            evaluate_map(spec, data)

    def test_derived_argument_dimensions_must_agree(self):
        features = tuple(schema_of([("m1", "kg"), ("v", "m/s")]).features)
        derived = (DerivedFeature("mu_red", KG, "reduced_mass", ("m1", "v")),)
        with pytest.raises(DimensionMismatch):
            FeatureMapSpec(
                name="bad_red",
                features=features,
                constants=(),
                exponents=[(1, 0, 0)],
                target_dimension=KG,
                derived=derived,
            )


class TestEnumerate:
    def _schema(self, pairs):
        return schema_of(pairs)

    def test_single_feature_direct_hit(self):
        schema = self._schema([("E", "J")])
        found = enumerate_monomials(schema, (), JOULE, 2, 1)
        exps = set(map(tuple, found.tolist()))
        assert (1,) in exps
        spec = FeatureMapSpec(name="found", features=tuple(schema.features),
                              constants=(), exponents=found,
                              target_dimension=DIMENSIONLESS, allow_inconsistent=True)
        assert all(monomial_dimension(spec, i) == JOULE for i in range(len(spec)))

    def test_lexicographic_output(self):
        schema = self._schema([("a", "m"), ("b", "m")])
        found = enumerate_monomials(schema, (), parse_unit("m^2"), 2, 2)
        exps = list(map(tuple, found.tolist()))
        assert exps == sorted(exps)
        assert (0, 2) in exps and (1, 1) in exps and (2, 0) in exps

    def test_max_active_features_limits(self):
        schema = self._schema([("a", "m"), ("b", "m"), ("c", "m")])
        found = enumerate_monomials(schema, (), parse_unit("m^3"), 3, 2)
        assert all(sum(1 for e in row if e) <= 2 for row in found.tolist())
        assert (1, 1, 1) not in set(map(tuple, found.tolist()))

    def test_constant_exponent_bound_separate(self):
        schema = self._schema([("h", "m")])
        g = STANDARD_CONSTANTS["g"]
        target = parse_unit("m^2/s^2")  # h * g
        found = enumerate_monomials(
            schema, (g,), target, 1, 1, max_constant_exponent=1
        )
        assert found.tolist() == [[1, 1]]
        none_found = enumerate_monomials(
            schema, (g,), target, 1, 1, max_constant_exponent=0
        )
        assert none_found.shape == (0, 2)

    def test_impossible_target_empty(self):
        schema = self._schema([("a", "m"), ("b", "s")])
        assert enumerate_monomials(schema, (), parse_unit("cd"), 3, 2).shape == (0, 2)

    def test_budget_exhaustion(self):
        schema = self._schema(
            [("a", "m"), ("b", "s"), ("c", "kg"), ("d", "A"), ("e", "K")]
        )
        with pytest.raises(BudgetExceeded):
            enumerate_monomials(schema, (), KG, 4, 5, budget=10)

    def test_invalid_bounds(self):
        schema = self._schema([("a", "m")])
        with pytest.raises(InvalidRange):
            enumerate_monomials(schema, (), KG, 0, 1)
        with pytest.raises(InvalidRange):
            enumerate_monomials(schema, (), KG, 2, 0)

    def test_brute_force_equivalence_small(self):
        # every monomial the search returns, and none besides, matches a
        # direct product-scan over the exponent box
        cases = [
            ([("rho", "kg/m^3"), ("v", "m/s"), ("h", "m")], "Pa", 2, 3),
            ([("m", "kg"), ("v", "m/s"), ("r", "m"), ("t", "s")], "J", 2, 4),
            ([("a", "m"), ("b", "1")], "m^2", 2, 2),
        ]
        for pairs, target_text, bound, active in cases:
            schema = schema_of(pairs)
            target = parse_unit(target_text)
            found = set(map(tuple, enumerate_monomials(
                schema, (), target, bound, active).tolist()))
            expected = set()
            dims = schema.dimensions
            for combo in itertools.product(
                range(-bound, bound + 1), repeat=len(pairs)
            ):
                if not any(combo):
                    continue
                if sum(1 for e in combo if e) > active:
                    continue
                total = DIMENSIONLESS
                for dim, e in zip(dims, combo):
                    total = total * dim ** e
                if total == target:
                    expected.add(combo)
            assert found == expected


# --------------------------------------------------------------------------
# Oracles for the integer lattice: a brute-force scan for the search and
# the per-monomial Fraction sum (monomial_dimension) for validation.

_BASES = ("kg", "m", "s")
_EXPONENTS = (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2),
              Fraction(1), Fraction(2))
_dimensions = st.builds(
    lambda exps: Dimension.of(**dict(zip(_BASES, exps))),
    st.lists(st.sampled_from(_EXPONENTS), min_size=3, max_size=3),
)


def _product_dimension(dims, exponents):
    return tuple(
        sum((Fraction(e) * d.exponents[u] for d, e in zip(dims, exponents)),
            Fraction(0))
        for u in range(len(DIMENSIONLESS.exponents))
    )


def _scan(dims, n_features, bound, constant_bound, active, target):
    """Every in-bounds exponent vector of dimension ``target``, in product order."""
    spans = ([range(-bound, bound + 1)] * n_features
             + [range(-constant_bound, constant_bound + 1)] * (len(dims) - n_features))
    powers = [{e: (d ** e).exponents for e in span} for d, span in zip(dims, spans)]
    return [
        combo for combo in itertools.product(*spans)
        if 1 <= sum(1 for e in combo[:n_features] if e) <= active
        and tuple(map(sum, zip(*(p[e] for p, e in zip(powers, combo)))))
        == target.exponents
    ]


@st.composite
def _search_cases(draw):
    n_features = draw(st.integers(1, 5))
    n_constants = draw(st.integers(0, 2))
    dims = draw(st.lists(_dimensions, min_size=n_features + n_constants,
                         max_size=n_features + n_constants))
    # the scan stays within 1,500 vectors
    bound = draw(st.integers(1, 2 if 5 ** n_features <= 1500 else 1))
    room = 1500 // (2 * bound + 1) ** n_features
    constant_bound = draw(st.integers(
        0, max(b for b in range(3) if (2 * b + 1) ** n_constants <= room)
    ))
    active = draw(st.integers(1, n_features))
    if draw(st.booleans()):
        target = draw(_dimensions)  # often unreachable
    else:
        spans = [bound] * n_features + [constant_bound] * n_constants
        exponents = [draw(st.integers(-b, b)) for b in spans]
        target = Dimension(_product_dimension(dims, exponents))
    return dims, n_features, bound, constant_bound, active, target


@st.composite
def _validation_cases(draw):
    n_features = draw(st.integers(1, 4))
    n_constants = draw(st.integers(0, 2))
    dims = draw(st.lists(_dimensions, min_size=n_features + n_constants,
                         max_size=n_features + n_constants))
    rows, transforms = [], {}
    for row in range(draw(st.integers(0, 8))):
        features = draw(st.lists(st.integers(-3, 3), min_size=n_features,
                                 max_size=n_features))
        features[draw(st.integers(0, n_features - 1))] = draw(st.sampled_from([-1, 1]))
        sin2 = draw(st.sets(st.integers(0, n_features - 1)))
        rows.append(features + draw(st.lists(
            st.integers(-2, 2), min_size=n_constants, max_size=n_constants)))
        transforms.update({(row, i): "sin2" for i in sorted(sin2)})
    target = draw(_dimensions)
    if rows and draw(st.booleans()):
        # the first row's dimension, its transformed columns contributing none
        target = Dimension(_product_dimension(dims, [
            0 if (0, i) in transforms else e for i, e in enumerate(rows[0])]))
    return dims, n_features, rows, transforms, target, draw(st.booleans())


def _items(dims, n_features):
    features = tuple(Feature(f"x{i}", d) for i, d in enumerate(dims[:n_features]))
    constants = tuple(PhysicalConstant(f"k{i}", 2.0, d)
                      for i, d in enumerate(dims[n_features:]))
    return features, constants


class TestLatticeOracles:
    @settings(max_examples=100)
    @given(case=_search_cases())
    def test_search_equals_brute_force_scan(self, case):
        dims, n_features, bound, constant_bound, active, target = case
        features, constants = _items(dims, n_features)
        found = enumerate_monomials(
            features, constants, target, bound, active,
            max_constant_exponent=constant_bound,
        )
        assert list(map(tuple, found.tolist())) == (
            _scan(dims, n_features, bound, constant_bound, active, target)
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_dimension_keys_are_equal_exactly_when_rows_are(self, seed):
        # Columns small, 2**20 wide (their spans' product passes int64 after
        # four) and spanning a right half's whole range under the lattice
        # guard, |entry| <= 2**62 - 1; rows repeat so equal rows occur.
        rng = np.random.default_rng(seed)
        guard = 2**62 - 1
        limits = rng.choice([3, 2**20, guard], size=rng.integers(1, 9))
        distinct = np.column_stack([
            rng.integers(-limit, limit, size=30, endpoint=True) for limit in limits
        ])
        distinct[0], distinct[1] = limits, -limits
        rows = distinct[rng.integers(0, len(distinct), size=200)]
        keys = featuremap._dimension_keys(rows)
        _, labels = np.unique(rows, axis=0, return_inverse=True)
        pairs = set(zip(keys.tolist(), labels.ravel().tolist()))
        assert keys.dtype == np.int64
        assert len(pairs) == len(set(keys.tolist())) == len(set(labels.ravel().tolist()))

    def test_dimension_keys_do_not_wrap(self):
        # A fold wrapping mod 2**64 would give rows 0 and 1 one key:
        # (2**32 - 0) * 2**32 == 2**64.
        rows = np.array([[0, 5], [2**32, 5], [0, 0], [2**32, 2**32 - 1]])
        assert len(set(featuremap._dimension_keys(rows).tolist())) == 4

    def test_one_feature_schema_has_an_empty_left_half(self):
        features, _ = _items([parse_unit("kg*m^(-1/2)")], 1)
        found = enumerate_monomials(features, (), parse_unit("kg^2/m"), 2, 1)
        assert found.tolist() == [[2]]
        assert enumerate_monomials(features, (), KG, 2, 1).shape == (0, 1)

    @settings(max_examples=80)
    @given(case=_validation_cases())
    def test_lattice_check_flags_exactly_the_fraction_mismatches(self, case):
        dims, n_features, rows, transforms, target, permissive = case
        features, constants = _items(dims, n_features)
        fdims, cdims = dims[:n_features], dims[n_features:]
        exponents = np.array(rows, dtype=np.int64).reshape(len(rows), len(dims))

        def build(allow_inconsistent):
            return FeatureMapSpec(
                name="random", features=features, constants=constants,
                exponents=exponents, transforms=transforms, target_dimension=target,
                allow_inconsistent=allow_inconsistent,
            )

        oracle = build(True)
        actual = [monomial_dimension(oracle, i) for i in range(len(rows))]
        expected = [i for i, d in enumerate(actual) if d != target]
        assert featuremap._mismatched_rows(
            exponents, transforms, fdims, cdims, target) == {
                i: actual[i] for i in expected}

        if expected and not permissive:
            with pytest.raises(DimensionMismatch) as info:
                build(permissive)
            assert info.value.entries == tuple(
                (i, actual[i], target) for i in expected)
        else:
            spec = build(permissive)
            assert spec.inconsistent_indices == tuple(expected)
            assert [note.split(" has dimension ")[1] for note in spec.diagnostics] == [
                f"{format_unit(actual[i])}, declared target is {format_unit(target)}"
                for i in expected]

    @pytest.mark.parametrize("exponent, unit_power", [
        (2**62, 1),   # int64 holds the product
        (2**62, 4),   # 2**64 wraps to 0 in int64
        (2**63, 1),   # the exponent itself overflows int64
        (-(2**63), 2),
        (3**40, 3),
    ])
    def test_huge_exponents_do_not_wrap(self, exponent, unit_power):
        features = (Feature("x", Dimension.of(m=unit_power)),)

        def spec(target):
            return FeatureMapSpec(name="huge", features=features, constants=(),
                                  exponents=[(exponent,)], target_dimension=target)

        right = spec(Dimension.of(m=exponent * unit_power))
        assert right.exponents.tolist() == [[exponent]]
        assert monomial_dimension(right, 0) == right.target_dimension
        for wrong in (DIMENSIONLESS, Dimension.of(m=(exponent * unit_power) % 2**64),
                      Dimension.of(m=exponent * unit_power + 1)):
            if wrong.exponents[1] == exponent * unit_power:
                continue
            with pytest.raises(DimensionMismatch):
                spec(wrong)

    @pytest.mark.parametrize("exponent", [2**63, -(2**63) - 1, 5**30])
    def test_huge_exponents_of_dimensionless_items(self, exponent):
        # an all-zero table has no reach; the exponent alone overflows int64
        features = (Feature("x", DIMENSIONLESS),)
        constants = (PhysicalConstant("k", 2.0, DIMENSIONLESS),)

        def spec(target):
            return FeatureMapSpec(name="huge", features=features, constants=constants,
                                  exponents=[(exponent, exponent)],
                                  target_dimension=target)

        assert spec(DIMENSIONLESS).exponents.tolist() == [[exponent, exponent]]
        with pytest.raises(DimensionMismatch):
            spec(Dimension.of(m=1))

    def test_huge_exponents_cancelling_in_int64_are_still_caught(self):
        # 2**62 * 2 + 2**62 * 2 is 2**64, which int64 would wrap to 0
        features = (Feature("a", Dimension.of(m=2)), Feature("b", Dimension.of(m=2)))
        with pytest.raises(DimensionMismatch):
            FeatureMapSpec(name="wrap", features=features, constants=(),
                           exponents=[(2**62, 2**62)], target_dimension=DIMENSIONLESS)

    def test_search_refuses_a_table_int64_cannot_hold(self):
        features = (Feature("x", Dimension.of(m=2**62)), Feature("y", KG))
        with pytest.raises(InvalidRange, match="int64"):
            enumerate_monomials(features, (), Dimension.of(m=2**62), 2, 1)


_FLARE = [("I", "A"), ("F", "T*A*m"), ("H", "T^2/m"), ("Phi", "T*m^2"),
          ("S", "m^2"), ("rho", "T*A/m"), ("B", "T"), ("gradB", "T/m"),
          ("l", "m")]
_PULSAR = [("r", "m"), ("B", "T"), ("omega", "1/s"), ("alpha", "rad"),
           ("P", "s"), ("m", "kg"), ("I", "kg*m^2"), ("E", "kg*m^2/s^2")]


class TestEnumerationBudget:
    # four features, bound 2, at most 2 active: each half of two features
    # has 1 + 2*4 + 4**2 = 25 rows
    SCHEMA = [("a", "m"), ("b", "s"), ("c", "m/s"), ("d", "kg")]
    TARGET = "m^2/s^2"

    def _enumerate(self, budget):
        return enumerate_monomials(schema_of(self.SCHEMA), (),
                                   parse_unit(self.TARGET), 2, 2, budget=budget)

    def test_half_grid_rows_match_the_closed_form(self):
        for n_features, n_constants, bound, constant_bound, active in [
            (0, 0, 1, 1, 1), (3, 0, 2, 2, 1), (4, 2, 2, 1, 2), (2, 1, 3, 0, 5),
        ]:
            grid, counts = featuremap._half_grid(
                n_features, n_constants, bound, constant_bound, active)
            spans = ([range(-bound, bound + 1)] * n_features
                     + [range(-constant_bound, constant_bound + 1)] * n_constants)
            rows = [r for r in itertools.product(*spans)
                    if sum(1 for e in r[:n_features] if e) <= active]
            assert [tuple(r) for r in grid.tolist()] == rows
            assert counts.tolist() == [sum(1 for e in r[:n_features] if e) for r in rows]
            assert featuremap._half_grid_rows(
                n_features, n_constants, bound, constant_bound, active) == len(rows)

    def test_budget_below_half_grids_raises_before_allocating(self, monkeypatch):
        built = []
        half_grid = featuremap._half_grid
        monkeypatch.setattr(featuremap, "_half_grid",
                            lambda *args: built.append(args) or half_grid(*args))
        with pytest.raises(BudgetExceeded):
            self._enumerate(budget=2 * 25 - 1)
        assert built == []

    def test_budget_counts_half_grid_rows_plus_join_candidates(self):
        # candidates: pairs of half rows whose dimensions add up to the target,
        # before the active-count filter
        dims = schema_of(self.SCHEMA).dimensions
        half = [r for r in itertools.product(range(-2, 3), repeat=2)
                if sum(1 for e in r if e) <= 2]
        target = parse_unit(self.TARGET).exponents
        candidates = sum(
            1 for left in half for right in half
            if _product_dimension(dims, left + right) == target
        )
        assert candidates > 0
        found = self._enumerate(budget=50 + candidates)
        assert len(found) == len(_scan(dims, 4, 2, 2, 2, parse_unit(self.TARGET)))
        with pytest.raises(BudgetExceeded):
            self._enumerate(budget=50 + candidates - 1)

    def test_flare_bounds_4_9(self):
        found = enumerate_monomials(schema_of(_FLARE), (), parse_unit("T*A*m^2"), 4, 9)
        keys = found.tolist()
        assert len(keys) == 63_272
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_pulsar_with_constants_bounds_4_9_fits_the_default_budget(self):
        constants = (STANDARD_CONSTANTS["mu0"], STANDARD_CONSTANTS["c"])
        found = enumerate_monomials(schema_of(_PULSAR), constants, parse_unit("W"), 4, 9)
        keys = found.tolist()
        assert len(keys) == 52_632
        assert all(a < b for a, b in zip(keys, keys[1:]))


class TestDestandardize:
    def test_prediction_equivalence(self):
        rng = np.random.Generator(np.random.PCG64(5))
        X = rng.random((40, 3)) * np.array([10.0, 1e3, 0.1])
        y = X @ np.array([2.0, -0.5, 7.0]) + 3.0
        model, _ = fit_standardized(X, y, 1e-6, feature_names=["a", "b", "c"])
        coefficients, intercept = destandardize(model)
        direct = X @ coefficients + intercept
        via_model = ridge_predict(
            model, standardize_apply(X, model.standardization)
        )
        np.testing.assert_allclose(direct, via_model, rtol=1e-10)


class TestSpecSerialization:
    def test_round_trip(self):
        spec = _mve_spec()
        back = spec_from_dict(spec_to_dict(spec))
        assert back.name == spec.name
        assert back.exponents.tobytes() == spec.exponents.tobytes()
        assert back.signs.tolist() == spec.signs.tolist()
        assert back.transforms == spec.transforms
        assert back.target_dimension == spec.target_dimension
        assert tuple(f.name for f in back.features) == tuple(
            f.name for f in spec.features
        )

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_every_catalog_round_trips(self, name):
        spec = load_catalog(name, allow_inconsistent=True)
        back = spec_from_dict(spec_to_dict(spec), allow_inconsistent=True)
        assert back.exponents.dtype == np.int64
        assert back.exponents.tobytes() == spec.exponents.tobytes()
        assert back.exponents.shape == spec.exponents.shape
        assert back.signs.tolist() == spec.signs.tolist()
        assert back.transforms == spec.transforms
        assert back.inconsistent_indices == spec.inconsistent_indices

    def test_enumerated_spec_round_trips(self):
        data = gen_bernoulli(10, 1)
        constants = (STANDARD_CONSTANTS["g"],)
        exponents = enumerate_monomials(
            data.schema, constants, parse_unit("Pa"), 4, 4)
        spec = FeatureMapSpec(name="wide", features=tuple(data.schema.features),
                              constants=constants, exponents=exponents,
                              target_dimension=parse_unit("Pa"))
        back = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert back.exponents.tobytes() == exponents.tobytes()
        assert back.signs.tolist() == [1] * 419
        assert back.transforms == {}

    def test_exponents_are_stored_read_only(self):
        spec = _mve_spec()
        with pytest.raises(ValueError):
            spec.exponents[0, 0] = 5
        with pytest.raises(ValueError):
            spec.signs[0] = -1

    def test_dict_is_json_ready(self):
        text = json.dumps(spec_to_dict(_mve_spec()), sort_keys=True)
        assert "pif" not in text  # names derive from order, not storage

    def test_strict_load_rejects_mismatch(self):
        doc = spec_to_dict(_mve_spec())
        doc["monomials"][0]["feature_exponents"] = [1, 0, 0]  # kg, not J
        with pytest.raises(DimensionMismatch):
            spec_from_dict(doc)
        spec = spec_from_dict(doc, allow_inconsistent=True)
        assert spec.inconsistent_indices == (0,)
