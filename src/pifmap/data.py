"""Datasets with dimensioned columns, and their CSV/JSON persistence.

The on-disk format is a plain UTF-8 CSV with ``\n`` line endings whose
header cells are ``name[unit]``; the label column is last and named
``label``.  Cell values are written with ``repr(float)``, which Python
guarantees to round-trip bit-exactly, so write -> read is lossless.
Generator provenance travels in a JSON sidecar, not in the CSV.

A data cell is a number when it is ASCII, holds no ``_``, ``\r`` or
``\x1c``-``\x1f``, and ``float`` reads it.  A ``\r`` that ends a line's
last cell is the line's ending (a CRLF file), not part of the cell.  The
rule is narrower than either parser alone: ``float`` also reads the
full-width ``'１２'`` as 12.0, a PEP 515 digit group such as ``'1_0'`` as
10.0 and a ``\r`` anywhere as whitespace, and NumPy's C reader strips
``\x1c``-``\x1f`` and non-ASCII spaces around a cell as whitespace.

Both directions move a block of ``_BLOCK_ROWS`` rows at a time, with no
Python code run per cell.  :func:`write_csv` turns each block into a list
of rows (``tolist``) and writes that block's text, so it never holds the
whole file's text.  :func:`read_csv` reads the file in one pass, one block
of lines at a time: it refuses a block whose text is not ASCII or holds
one of ``\x1c``-``\x1f``, and parses the rest with NumPy's C reader
(``np.loadtxt``), which converts each cell with the correctly rounded
``PyOS_string_to_double`` that ``float`` uses and refuses ``_``, a stray
``\r`` and a wrong cell count itself; the parsed blocks are concatenated
once, into one ``(n, k + 1)`` row-major array.  A block that fails is
scanned again line by line only to name the file line and column of its
first bad cell.  A byte that is not UTF-8 is read as an escaped
character, so it fails as a bad cell or header cell and its file line is
named like any other.  ``X`` and ``y`` are views of the row-major array
and stay so: code that sums a column of ``X`` (the ``sf`` arm, ``fit
--raw``) adds in the order this layout gives.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .dimension import Dimension, format_unit, parse_unit
from .errors import (
    EmptyInput,
    LengthMismatch,
    NonFiniteInput,
    SchemaMismatch,
    UnitSyntaxError,
)

__all__ = [
    "Feature",
    "FeatureSchema",
    "Dataset",
    "write_csv",
    "read_csv",
    "read_schema",
    "manifest_path_for",
]

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_HEADER_RE = re.compile(r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)\[(?P<unit>[^\[\]]+)\]$")
# Rows per block when writing and reading a CSV.
_BLOCK_ROWS = 1024
# The ASCII separators, which the C reader strips around a cell as
# whitespace and ``float`` does not.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


@dataclass(frozen=True)
class Feature:
    """A named column with an exact dimension."""

    name: str
    dimension: Dimension

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ValueError(f"invalid feature name {self.name!r}")


@dataclass(frozen=True)
class FeatureSchema:
    features: tuple[Feature, ...]

    def __post_init__(self) -> None:
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate feature names in {names}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    @property
    def dimensions(self) -> tuple[Dimension, ...]:
        return tuple(f.dimension for f in self.features)

    def index(self, name: str) -> int:
        for i, f in enumerate(self.features):
            if f.name == name:
                return i
        raise KeyError(name)

    def __len__(self) -> int:
        return len(self.features)


def schema_of(entries: Iterable) -> FeatureSchema:
    """Build a schema from ``(name, unit string)`` pairs.

    An entry may also be a ``{"name": name, "unit": unit}`` object, the
    form spec files write their features in.  Any other entry is a
    :class:`~pifmap.errors.SchemaMismatch` naming the expected shapes.
    """
    if isinstance(entries, (str, bytes, Mapping)) or not isinstance(entries, Iterable):
        raise SchemaMismatch(f"expected a list of features, got {entries!r}")
    features = []
    for entry in entries:
        if isinstance(entry, Mapping) and set(entry) == {"name", "unit"}:
            name, unit = entry["name"], entry["unit"]
        elif isinstance(entry, (list, tuple)) and len(entry) == 2:
            name, unit = entry
        else:
            name = unit = None
        if not (isinstance(name, str) and isinstance(unit, str)):
            raise SchemaMismatch(
                'expected [name, unit] or {"name": name, "unit": unit} for '
                f"each feature, got {entry!r}"
            )
        features.append(Feature(name, parse_unit(unit)))
    return FeatureSchema(tuple(features))


@dataclass
class Dataset:
    """Feature matrix plus labels, all columns carrying dimensions."""

    schema: FeatureSchema
    X: np.ndarray
    y: np.ndarray
    label_dimension: Dimension
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2:
            raise ValueError(f"X must be 2-d, got shape {self.X.shape}")
        if self.y.shape != (self.X.shape[0],):
            raise LengthMismatch(
                f"y shape {self.y.shape} does not match {self.X.shape[0]} rows"
            )
        if self.X.shape[1] != len(self.schema):
            raise SchemaMismatch(
                f"{self.X.shape[1]} columns vs {len(self.schema)} schema features"
            )
        if self.X.shape[0] == 0:
            raise EmptyInput("dataset has no rows")
        # A non-finite entry makes the sum of its array non-finite, so finite
        # sums show every entry finite with no n x k mask; only a sum that is
        # not finite, which finite entries can also reach by overflowing,
        # needs the elementwise test.  One sum over all of X reads a
        # row-major table in its own order, unlike a sum per column.
        with np.errstate(over="ignore", invalid="ignore"):
            sums = (float(self.X.sum()), float(self.y.sum()))
        if not (all(map(math.isfinite, sums))
                or (np.isfinite(self.X).all() and np.isfinite(self.y).all())):
            raise NonFiniteInput("dataset contains non-finite values")

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.X[:, self.schema.index(name)]


def write_csv(dataset: Dataset, path) -> None:
    header = [
        f"{f.name}[{format_unit(f.dimension)}]" for f in dataset.schema.features
    ]
    header.append(f"label[{format_unit(dataset.label_dimension)}]")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, dataset.n_rows, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            block = np.column_stack((dataset.X[rows], dataset.y[rows])).tolist()
            fh.write("\n".join([",".join(map(repr, row)) for row in block]) + "\n")


def _parse_header_cell(cell: str, position: int,
                       where: str) -> tuple[str, Dimension]:
    malformed = f"{where}: malformed header cell {cell!r} at column {position}"
    match = _HEADER_RE.match(cell.strip())
    if match is None:
        raise SchemaMismatch(malformed)
    try:
        return match.group("name"), parse_unit(match.group("unit"))
    except UnitSyntaxError as exc:
        raise SchemaMismatch(f"{malformed}: {exc}") from exc


def _is_number(cell: str) -> bool:
    """Whether ``cell`` is a number by the module's rule for a data cell."""
    if not cell.isascii() or any(c in cell for c in "_\r" + _SEPARATORS):
        return False
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _header(path, fh) -> tuple[int, FeatureSchema, Dimension]:
    """Read ``fh`` up to its first non-blank line; return that line's file
    line number and the schema and label dimension it declares.  An error
    in the header names its file line, as a data row's does."""
    for lineno, line in enumerate(fh, start=1):
        if line.strip():
            break
    else:
        raise EmptyInput(f"{path}: empty CSV")
    where = f"{path}:{lineno}"
    cells = line.removesuffix("\n").split(",")
    if len(cells) < 2:
        raise SchemaMismatch(f"{where}: need at least one feature and a label column")
    parsed = [_parse_header_cell(c, i, where) for i, c in enumerate(cells)]
    label_name, label_dim = parsed[-1]
    if label_name != "label":
        raise SchemaMismatch(
            f"{where}: last column must be 'label', got {label_name!r}"
        )
    seen = set()
    for position, (name, _) in enumerate(parsed[:-1]):
        if name in seen:
            raise SchemaMismatch(
                f"{where}: duplicate feature name {name!r} at column {position}"
            )
        seen.add(name)
    schema = FeatureSchema(tuple(Feature(n, d) for n, d in parsed[:-1]))
    return lineno, schema, label_dim


def read_schema(path) -> FeatureSchema:
    """The feature schema of a CSV file, read from its header line alone."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        return _header(path, fh)[1]


def _block_values(block: list[str], width: int) -> np.ndarray | None:
    """The cells of ``block``'s lines as floats, or ``None`` if a line is
    malformed or a cell is not a number by the module's rule."""
    if not block:
        return np.empty((0, width))  # np.loadtxt warns on no lines
    text = "".join(block)
    # the reader itself refuses _ and a \r before a line's end
    if not text.isascii() or any(map(text.__contains__, _SEPARATORS)):
        return None
    try:
        values = np.loadtxt(block, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return values if values.shape[1] == width else None


def _first_bad_line(path, names, lines: list[str], start: int) -> SchemaMismatch:
    """The error for the first malformed line of ``lines``, which starts at
    file line ``start + 1``."""
    for lineno, line in enumerate(lines, start=start + 1):
        if not line.strip():
            continue
        text = line.removesuffix("\n")
        values = text.split(",")
        if len(values) != len(names):
            return SchemaMismatch(
                f"{path}:{lineno}: expected {len(names)} cells, got {len(values)}"
            )
        cells = text.removesuffix("\r").split(",")  # a CRLF line's ending
        for name, cell, value in zip(names, cells, values):
            if not _is_number(cell):
                return SchemaMismatch(
                    f"{path}:{lineno}: column {name!r} holds {value!r}, "
                    f"which is not a number"
                )
    raise AssertionError("no malformed line in a block that failed to parse")


def read_csv(path) -> Dataset:
    """The dataset a CSV file holds, read in one pass of bounded blocks.

    The ``tracemalloc`` peak is under 2.05x the output on 200,000 bernoulli
    rows and under 2.3x on 5,000: the parsed blocks, their concatenation
    and one block of lines and its text, which weigh more against a
    smaller output.
    """
    with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        lineno, schema, label_dim = _header(path, fh)
        names = (*schema.names, "label")
        blocks = [np.empty((0, len(names)))]  # no rows: Dataset's EmptyInput
        while chunk := list(itertools.islice(fh, _BLOCK_ROWS)):
            values = _block_values(list(filter(str.strip, chunk)), len(names))
            if values is None:
                raise _first_bad_line(path, names, chunk, lineno)
            blocks.append(values)
            lineno += len(chunk)
    data = np.concatenate(blocks)
    return Dataset(
        schema=schema,
        X=data[:, :-1],
        y=data[:, -1],
        label_dimension=label_dim,
    )


def manifest_path_for(csv_path) -> str:
    text = str(csv_path)
    if text.endswith(".csv"):
        text = text[: -len(".csv")]
    return text + ".manifest.json"

