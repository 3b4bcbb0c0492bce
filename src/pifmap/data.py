"""Datasets with dimensioned columns, and their CSV/JSON persistence.

The on-disk format is a plain UTF-8 CSV with ``\n`` line endings whose
header cells are ``name[unit]``; the label column is last and named
``label``.  Cell values are written with ``repr(float)``, which Python
guarantees to round-trip bit-exactly, so write -> read is lossless.
Generator provenance travels in a JSON sidecar, not in the CSV.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .dimension import Dimension, format_unit, parse_unit
from .errors import EmptyInput, LengthMismatch, NonFiniteInput, SchemaMismatch

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
        if not np.isfinite(self.X).all() or not np.isfinite(self.y).all():
            raise NonFiniteInput("dataset contains non-finite values")

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def column(self, name: str) -> np.ndarray:
        return self.X[:, self.schema.index(name)]


def write_csv(dataset: Dataset, path) -> None:
    header = [
        f"{f.name}[{format_unit(f.dimension)}]" for f in dataset.schema.features
    ]
    header.append(f"label[{format_unit(dataset.label_dimension)}]")
    lines = [",".join(header)]
    for i in range(dataset.n_rows):
        cells = [repr(float(v)) for v in dataset.X[i]]
        cells.append(repr(float(dataset.y[i])))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_header_cell(cell: str, position: int) -> tuple[str, Dimension]:
    match = _HEADER_RE.match(cell.strip())
    if match is None:
        raise SchemaMismatch(
            f"malformed header cell {cell!r} at column {position}"
        )
    return match.group("name"), parse_unit(match.group("unit"))


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _parse_header(path, line: str | None) -> tuple[FeatureSchema, Dimension]:
    """The schema and label dimension of a CSV header line (``None``: no line)."""
    if line is None:
        raise EmptyInput(f"{path}: empty CSV")
    cells = line.split(",")
    if len(cells) < 2:
        raise SchemaMismatch(f"{path}: need at least one feature and a label column")
    parsed = [_parse_header_cell(c, i) for i, c in enumerate(cells)]
    label_name, label_dim = parsed[-1]
    if label_name != "label":
        raise SchemaMismatch(
            f"{path}: last column must be 'label', got {label_name!r}"
        )
    return FeatureSchema(tuple(Feature(n, d) for n, d in parsed[:-1])), label_dim


def read_schema(path) -> FeatureSchema:
    """The feature schema of a CSV file, read from its header line alone."""
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        header = next((line.removesuffix("\n") for line in fh if line.strip()), None)
    return _parse_header(path, header)[0]


def read_csv(path) -> Dataset:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [line for line in fh.read().split("\n") if line.strip()]
    schema, label_dim = _parse_header(path, lines[0] if lines else None)
    names = (*schema.names, "label")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        values = line.split(",")
        if len(values) != len(names):
            raise SchemaMismatch(
                f"{path}:{lineno}: expected {len(names)} cells, got {len(values)}"
            )
        try:
            rows.append([float(v) for v in values])
        except ValueError:
            column, cell = next(
                (name, v) for name, v in zip(names, values) if not _is_number(v)
            )
            raise SchemaMismatch(
                f"{path}:{lineno}: column {column!r} holds {cell!r}, "
                f"which is not a number"
            ) from None
    data = np.asarray(rows, dtype=float).reshape(len(rows), len(names))
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

