"""Dataset container validation, exact CSV round-trips and manifest paths."""

import numpy as np
import pytest

from pifmap.data import (
    Dataset,
    Feature,
    FeatureSchema,
    manifest_path_for,
    read_csv,
    schema_of,
    write_csv,
)
from pifmap.dimension import Dimension, parse_unit
from pifmap.errors import (
    EmptyInput,
    LengthMismatch,
    NonFiniteInput,
    SchemaMismatch,
)


def _toy_dataset(n=5):
    schema = schema_of([("rho", "kg/m^3"), ("v", "m/s")])
    rng = np.random.Generator(np.random.PCG64(42))
    X = rng.random((n, 2)) * np.array([1e3, 20.0])
    y = X[:, 0] * X[:, 1] ** 2
    return Dataset(
        schema=schema,
        X=X,
        y=y,
        label_dimension=parse_unit("Pa"),
        provenance={"generator": "toy", "seed": 42},
    )


class TestFeature:
    def test_valid_name(self):
        f = Feature("rho_0", parse_unit("kg/m^3"))
        assert f.name == "rho_0"

    @pytest.mark.parametrize("bad", ["", "1v", "a-b", "a b", "é"])
    def test_invalid_names_rejected(self, bad):
        with pytest.raises(ValueError):
            Feature(bad, parse_unit("m"))


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            schema_of([("v", "m/s"), ("v", "m")])

    def test_index_and_len(self):
        schema = schema_of([("a", "m"), ("b", "s")])
        assert len(schema) == 2
        assert schema.index("b") == 1
        with pytest.raises(KeyError):
            schema.index("c")


class TestDatasetValidation:
    def test_row_mismatch(self):
        d = _toy_dataset()
        with pytest.raises(LengthMismatch):
            Dataset(d.schema, d.X, d.y[:-1], d.label_dimension, {})

    def test_width_mismatch(self):
        d = _toy_dataset()
        with pytest.raises(SchemaMismatch):
            Dataset(d.schema, d.X[:, :1], d.y, d.label_dimension, {})

    def test_non_finite_rejected(self):
        d = _toy_dataset()
        X = d.X.copy()
        X[0, 0] = np.inf
        with pytest.raises(NonFiniteInput):
            Dataset(d.schema, X, d.y, d.label_dimension, {})

    def test_column_accessor(self):
        d = _toy_dataset()
        assert np.array_equal(d.column("v"), d.X[:, 1])


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        d = _toy_dataset(20)
        path = tmp_path / "toy.csv"
        write_csv(d, path)
        back = read_csv(path)
        assert back.schema.names == d.schema.names
        assert back.schema.dimensions == d.schema.dimensions
        assert back.label_dimension == d.label_dimension
        # repr() floats survive the trip bit-exactly
        assert np.array_equal(back.X, d.X)
        assert np.array_equal(back.y, d.y)

    def test_header_format(self, tmp_path):
        d = _toy_dataset(2)
        path = tmp_path / "toy.csv"
        write_csv(d, path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "rho[kg*m^-3],v[m*s^-1],label[kg*m^-1*s^-2]"

    def test_line_endings_are_lf(self, tmp_path):
        d = _toy_dataset(3)
        path = tmp_path / "toy.csv"
        write_csv(d, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_rewrite_is_byte_identical(self, tmp_path):
        d = _toy_dataset(10)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(d, a)
        write_csv(d, b)
        assert a.read_bytes() == b.read_bytes()

    def test_label_column_must_be_last_and_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("v[m/s],rho[kg/m^3]\n1.0,2.0\n", encoding="utf-8")
        with pytest.raises(SchemaMismatch):
            read_csv(path)

    def test_malformed_header_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("v m/s,label[Pa]\n1.0,2.0\n", encoding="utf-8")
        with pytest.raises(SchemaMismatch):
            read_csv(path)

    def test_header_without_rows_is_empty_input(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("v[m/s],label[Pa]\n", encoding="utf-8")
        with pytest.raises(EmptyInput):
            read_csv(path)


class TestManifest:
    def test_path_derivation(self):
        assert manifest_path_for("runs/x.csv") == "runs/x.manifest.json"
