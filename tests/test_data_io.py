"""Dataset container validation, exact CSV round-trips and manifest paths."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pifmap.data import (
    _BLOCK_ROWS,
    Dataset,
    Feature,
    FeatureSchema,
    manifest_path_for,
    read_csv,
    read_schema,
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

    def test_header_error_names_its_file_line(self, tmp_path):
        # blank lines may come before the header; they are counted
        path = tmp_path / "bad.csv"
        path.write_text("\n\nv[m/s],rho kg,label[Pa]\n1.0,2.0,3.0\n", encoding="utf-8")
        message = f"{path}:3: malformed header cell 'rho kg' at column 1"
        for read in (read_csv, read_schema):
            with pytest.raises(SchemaMismatch) as caught:
                read(path)
            assert str(caught.value) == message

    def test_repeated_header_name_names_its_line_and_column(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("\n\nv[m],w[s],v[m],label[Pa]\n1.0,2.0,3.0,4.0\n",
                        encoding="utf-8")
        message = f"{path}:3: duplicate feature name 'v' at column 2"
        for read in (read_csv, read_schema):
            with pytest.raises(SchemaMismatch) as caught:
                read(path)
            assert str(caught.value) == message

    def test_header_unit_error_names_its_cell_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("v[m/qq],label[Pa]\n1.0,2.0\n", encoding="utf-8")
        with pytest.raises(SchemaMismatch) as caught:
            read_csv(path)
        assert str(caught.value) == (
            f"{path}:1: malformed header cell 'v[m/qq]' at column 0: "
            "unknown unit symbol 'qq' at position 2 in 'm/qq'"
        )

    def test_header_without_rows_is_empty_input(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("v[m/s],label[Pa]\n", encoding="utf-8")
        with pytest.raises(EmptyInput):
            read_csv(path)


def _table(n, columns=3, seed=7):
    """An ``n``-row dataset with ``columns - 1`` features whose cells vary in length."""
    rng = np.random.Generator(np.random.PCG64(seed))
    scales = 10.0 ** rng.integers(-8, 9, (n, columns))
    values = rng.standard_normal((n, columns)) * scales
    schema = schema_of([(f"x_{j}", "m") for j in range(columns - 1)])
    return Dataset(schema, values[:, :-1], values[:, -1], parse_unit("s"))


def _oracle_text(dataset):
    """The CSV text written one cell at a time with ``repr(float(v))``."""
    header = [f"x_{j}[m]" for j in range(dataset.X.shape[1])] + ["label[s]"]
    lines = [",".join(header)]
    for i in range(dataset.n_rows):
        cells = [repr(float(v)) for v in dataset.X[i]]
        cells.append(repr(float(dataset.y[i])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _bits(a):
    return np.asarray(a).view(np.uint64)


_EDGE_VALUES = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]


class TestCsvBlocks:
    """Tables move through CSV a block of rows at a time, bit for bit."""

    @settings(max_examples=40,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(2, 4)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    @example(np.array([_EDGE_VALUES]).reshape(3, 3))
    def test_arbitrary_finite_values_round_trip_bit_for_bit(self, tmp_path, values):
        schema = schema_of([(f"x_{j}", "m") for j in range(values.shape[1] - 1)])
        dataset = Dataset(schema, values[:, :-1], values[:, -1], parse_unit("s"))
        path = tmp_path / "t.csv"
        write_csv(dataset, path)
        assert path.read_text(encoding="utf-8") == _oracle_text(dataset)
        back = read_csv(path)
        assert np.array_equal(_bits(back.X), _bits(values[:, :-1]))
        assert np.array_equal(_bits(back.y), _bits(values[:, -1]))

    @pytest.mark.parametrize(
        "n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7]
    )
    def test_tables_across_block_boundaries(self, tmp_path, n):
        dataset = _table(n)
        path = tmp_path / "t.csv"
        write_csv(dataset, path)
        assert path.read_bytes() == _oracle_text(dataset).encode("utf-8")
        back = read_csv(path)
        assert back.X.shape == dataset.X.shape
        assert np.array_equal(_bits(back.X), _bits(dataset.X))
        assert np.array_equal(_bits(back.y), _bits(dataset.y))

    def test_read_keeps_the_row_major_layout(self, tmp_path):
        dataset = _table(5)
        path = tmp_path / "t.csv"
        write_csv(dataset, path)
        back = read_csv(path)
        assert back.X.base is back.y.base
        assert back.X.strides == (8 * 3, 8)

    def _file_with_line(self, tmp_path, row, line):
        """A blocked table with one blank line after the header and ``line``
        replacing data row ``row``; returns its path and that line's number."""
        lines = _oracle_text(_table(3 * _BLOCK_ROWS + 7)).split("\n")
        lines[1 + row] = line
        lines.insert(1, "")
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines), encoding="utf-8")
        return path, row + 3

    def test_a_bad_cell_in_a_later_block_names_its_file_line(self, tmp_path):
        row = 2 * _BLOCK_ROWS + 5
        path, lineno = self._file_with_line(tmp_path, row, "1.0,2.5e3x,3.0")
        with pytest.raises(SchemaMismatch) as err:
            read_csv(path)
        assert str(err.value) == (
            f"{path}:{lineno}: column 'x_1' holds '2.5e3x', which is not a number"
        )

    def test_a_short_row_in_a_later_block_names_its_file_line(self, tmp_path):
        row = 3 * _BLOCK_ROWS + 2
        path, lineno = self._file_with_line(tmp_path, row, "1.0,2.0")
        with pytest.raises(SchemaMismatch) as err:
            read_csv(path)
        assert str(err.value) == f"{path}:{lineno}: expected 3 cells, got 2"

    def test_the_first_bad_line_of_a_block_wins(self, tmp_path):
        lines = _oracle_text(_table(10)).split("\n")
        lines[4] = "1.0,nope,3.0"
        lines[3] = "1.0,2.0"
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(SchemaMismatch, match=r":4: expected 3 cells, got 2$"):
            read_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("1.0,x", "column 'label' holds 'x', which is not a number"),
        ("1.0", "expected 2 cells, got 1"),
    ])
    def test_line_numbers_count_blank_lines(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"v[m/s],label[Pa]\n\n1.0,2.0\n{row}\n", encoding="utf-8")
        with pytest.raises(SchemaMismatch) as err:
            read_csv(path)
        assert str(err.value) == f"{path}:4: {message}"

    @pytest.mark.parametrize("cell", ["1_0", "1_000.5", "1e1_0"])
    def test_digit_group_underscores_are_not_numbers(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"v_0[m/s],label[Pa]\n1.0,2.0\n3.0,{cell}\n",
                        encoding="utf-8")
        with pytest.raises(SchemaMismatch) as err:
            read_csv(path)
        assert str(err.value) == (
            f"{path}:3: column 'label' holds '{cell}', which is not a number"
        )

    def test_an_underscore_after_a_bad_line_is_not_reported_first(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("v[m/s],label[Pa]\n1.0,oops\n1_0,2.0\n", encoding="utf-8")
        with pytest.raises(SchemaMismatch, match=r":2: column 'label' holds 'oops'"):
            read_csv(path)

    def test_underscores_in_header_names_are_allowed(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("v_0[m/s],label[Pa]\n1.0,2.0\n", encoding="utf-8")
        assert read_csv(path).schema.names == ("v_0",)

    def test_crlf_and_whitespace_only_lines(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(
            b"\r\n  \nv[m/s],label[Pa]\r\n1.5,2.0\r\n\r\n \t \n-3.0,4e-3\r\n"
        )
        back = read_csv(path)
        assert back.schema.names == ("v",)
        assert back.X.tolist() == [[1.5], [-3.0]]
        assert back.y.tolist() == [2.0, 4e-3]

    def test_a_bad_crlf_line_is_numbered_by_the_file(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"v[m/s],label[Pa]\r\n\r\n1.5,2.0\r\n1.5,no\r\n")
        with pytest.raises(SchemaMismatch) as err:
            read_csv(path)
        assert str(err.value) == (
            f"{path}:4: column 'label' holds 'no\\r', which is not a number"
        )

    @pytest.mark.parametrize("text", [
        "v[m/s],label[Pa]\n",
        "v[m/s],label[Pa]",
        "\n  \nv[m/s],label[Pa]\r\n\r\n \n",
    ])
    def test_a_header_only_file_is_empty_input(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(EmptyInput):
            read_csv(path)


# The characters a property test's data cells are made of: the makings of
# numbers (with the letters of inf and nan), ASCII whitespace with the
# separators \x1c-\x1f, the digit-group underscore, non-ASCII digits and
# spaces, and a byte that is not UTF-8 (written out as the byte 0xff).
_CELL_ALPHABET = ("0123456789+-.eEinfaINFA"
                  " \t\r\x0b\x0c\x1c\x1d\x1e\x1f_１٣\xa0\u2003\udcff")
_PADDING = st.text(" \t\r\x0b\x0c\x1c\x1d\x1e\x1f\xa0\u2003", max_size=2)
_CELLS = st.one_of(
    st.text(_CELL_ALPHABET, max_size=6),
    st.builds(lambda before, x, after: before + repr(x) + after,
              _PADDING, st.floats(), _PADDING),
)
_LONG_MANTISSA = "0." + "1234567890" * 40 + "e-3"


def _rule_reads(cell):
    """The value of ``cell`` by the data module's rule for a data cell, or
    ``None``: an ASCII cell with no ``_``, ``\\r`` or ``\\x1c``-``\\x1f``
    that ``float`` reads."""
    if not cell.isascii() or any(c in cell for c in "_\r\x1c\x1d\x1e\x1f"):
        return None
    try:
        return float(cell)
    except ValueError:
        return None


class TestCellRule:
    """The block reader and the bad-line scan accept the same cells."""

    @settings(max_examples=400,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(2, 3).flatmap(lambda width: st.lists(
        st.lists(_CELLS, min_size=width, max_size=width), min_size=1, max_size=4)))
    @example([["1.5", "１２"]])
    @example([["٣", "1.0"]])
    @example([["1.0", "2.0"], ["1\x1c", "2.0"]])
    @example([["\x1f1", "2.0"]])
    @example([["\xa01", "1\u2003"]])
    @example([["1_0", "2.0"]])
    @example([["\x0b1\x0c", "2\r"], ["3\r", "4"]])
    @example([["1.0", "2\r\r"]])
    @example([["1.0", "2.0\udcff"]])
    @example([["2.2250738585072011e-308", _LONG_MANTISSA, "-" + _LONG_MANTISSA]])
    @example([["1e400", "x"]])
    @example([["nan", "2.0"]])
    def test_a_cell_is_read_exactly_when_it_passes_the_rule(self, tmp_path, rows):
        width = len(rows[0])
        names = [f"x_{j}" for j in range(width - 1)] + ["label"]
        text = ",".join(f"{name}[m]" for name in names) + "\n"
        text += "".join(",".join(row) + "\n" for row in rows)
        path = tmp_path / "cells.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        # a \r that ends a line's last cell is the line's ending
        values = [[*map(_rule_reads, row[:-1]), _rule_reads(row[-1].removesuffix("\r"))]
                  for row in rows]
        bad = [(i, j) for i, row in enumerate(values)
               for j, value in enumerate(row) if value is None]
        if bad:
            i, j = bad[0]
            with pytest.raises(SchemaMismatch) as err:
                read_csv(path)
            assert str(err.value) == (
                f"{path}:{i + 2}: column {names[j]!r} holds {rows[i][j]!r}, "
                "which is not a number"
            )
        elif not np.isfinite(values).all():
            with pytest.raises(NonFiniteInput):
                read_csv(path)
        else:
            back = read_csv(path)
            assert np.array_equal(_bits(np.column_stack((back.X, back.y))),
                                  _bits(np.array(values)))


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCsvMemory:
    def test_write_holds_one_block_not_the_file(self, tmp_path):
        dataset = _table(100_000)
        path = tmp_path / "big.csv"
        peak = _traced_peak(lambda: write_csv(dataset, path))
        # The whole file's text is several MB; one block's text and rows
        # are well under one.
        assert path.stat().st_size > 5_000_000
        assert peak < 1_500_000


class TestManifest:
    def test_path_derivation(self):
        assert manifest_path_for("runs/x.csv") == "runs/x.manifest.json"
