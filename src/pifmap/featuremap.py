"""Dimensionally homogeneous monomial feature maps.

A monomial feature is a signed product of integer powers of the input
columns and of physical constants, optionally passing individual columns
through a tagged elementwise transform first (the closed tag set is
``identity`` and ``sin2``).  A :class:`FeatureMapSpec` bundles its monomials
with the schema they apply to and a target dimension, and holds them as one
integer matrix: row ``i`` of ``exponents`` is monomial ``i``'s powers of the
columns (features, then derived features) followed by its powers of the
constants, ``signs[i]`` is its sign, and the sparse ``transforms`` map names
the tag of each transformed ``(row, column)`` entry.  Every monomial must
match the target exactly, which is checked at construction; a spec built
with ``allow_inconsistent=True`` keeps the monomials that miss it and
carries human-readable ``diagnostics`` for them instead of silently passing.
The constructor is the one way to build a spec (:func:`spec_from_dict`
reads a document into the same call), and :func:`monomial_dimension` reads
one row's dimension back as an exact Fraction sum.

Validation and enumeration work on one exact integer table: unit exponents
scaled by the lcm of their denominators, one row ``D[i]`` per column or
constant.  A spec's monomials are validated with one product ``E @ D == t``
over its exponent matrix ``E``; row ``i`` of ``E @ D`` over the lcm is
monomial ``i``'s dimension.  :func:`enumerate_monomials` returns the
exponent matrix of every monomial of a given dimension within exponent
bounds, found by a meet-in-the-middle search (Horowitz & Sahni, 1974): it
lists the exponent rows of each half of the items and joins them on
``t - left == right``.  The search is exhaustive within bounds, emits rows
in lexicographic order, and raises :class:`~pifmap.errors.BudgetExceeded`,
before allocating, when the half-grid rows plus join candidates exceed the
configured budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .data import Dataset, Feature, FeatureSchema
from .dimension import DIMENSIONLESS, Dimension, format_unit, parse_unit
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    DivisionByZero,
    InvalidRange,
    LengthMismatch,
    NonFiniteResult,
    SchemaMismatch,
    ZeroScale,
)

__all__ = [
    "PhysicalConstant",
    "STANDARD_CONSTANTS",
    "DerivedFeature",
    "FeatureMapSpec",
    "TRANSFORM_TAGS",
    "monomial_dimension",
    "enumerate_monomials",
    "evaluate_map",
    "destandardize",
    "render_monomial",
    "spec_to_dict",
    "spec_from_dict",
]


@dataclass(frozen=True)
class PhysicalConstant:
    """A named constant with a value in SI units and an exact dimension."""

    name: str
    value: float
    dimension: Dimension

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or self.value == 0.0:
            raise ValueError(f"constant {self.name!r} must be finite and nonzero")


def _constant(name: str, value: float, unit: str) -> PhysicalConstant:
    return PhysicalConstant(name, value, parse_unit(unit))


#: Built-in constants available to catalogs and to the enumerator.
STANDARD_CONSTANTS: Mapping[str, PhysicalConstant] = {
    "g": _constant("g", 9.80665, "m/s^2"),
    "G": _constant("G", 6.674e-11, "m^3/(kg*s^2)"),
    "mu0": _constant("mu0", 1.2566370614e-6, "kg*m/(A^2*s^2)"),
    "c": _constant("c", 2.99792458e8, "m/s"),
}


def _sin2(values: np.ndarray) -> np.ndarray:
    return np.sin(values) ** 2


#: Closed set of elementwise transform tags.  A transformed feature
#: contributes a dimensionless factor, so tags other than ``identity``
#: only make sense on dimensionless (angle-like) features.
TRANSFORM_TAGS: Mapping[str, Callable[[np.ndarray], np.ndarray]] = {
    "identity": lambda values: values,
    "sin2": _sin2,
}


def _exact_ints(values, what: str) -> tuple[int, ...]:
    # exponents form an integer lattice, and signs and column indices are
    # integers too; silently truncating 1.5 or true would change the value,
    # so anything non-integral is a type error naming ``what``
    values = tuple(values)
    if {int}.issuperset(map(type, values)):
        return values
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"{what} must be integers, got {value!r}")
    return tuple(map(int, values))


def _exact_floats(values, what: str) -> tuple[float, ...]:
    # a document's numbers are read as written: float() would load true as
    # 1.0 and "9.8" as 9.8, so a bool or string is a type error naming ``what``
    values = tuple(values)
    numbers = (int, float, np.integer, np.floating)
    for value in values:
        if isinstance(value, bool) or not isinstance(value, numbers):
            raise TypeError(f"{what} must be numbers, got {value!r}")
    return tuple(map(float, values))


@dataclass(frozen=True)
class DerivedFeature:
    """A named non-monomial column computed from the raw features.

    The only registered kind is ``reduced_mass``: ``a*b/(a+b)`` of two
    same-dimension features, keeping that dimension.
    """

    name: str
    dimension: Dimension
    kind: str
    args: tuple[str, ...]


def _reduced_mass(columns: Sequence[np.ndarray], start: int) -> np.ndarray:
    a, b = columns
    total = a + b
    if not total.all():
        row = start + int(np.flatnonzero(total == 0.0)[0])
        raise DivisionByZero(f"reduced mass undefined at row {row} (zero total)", row=row)
    return a * b / total


# kind -> f(a block's argument columns, the table row of the block's first row)
_DERIVED_KINDS: Mapping[str, Callable[[Sequence[np.ndarray], int], np.ndarray]] = {
    "reduced_mass": _reduced_mass,
}
_DERIVED_ARITY = {"reduced_mass": 2}


def monomial_dimension(spec: FeatureMapSpec, index: int) -> Dimension:
    """Exact dimension of row ``index`` of ``spec``: the exponent-weighted sum.

    Columns wrapped in a non-identity transform contribute a dimensionless
    factor regardless of their own dimension.  The sum runs over each
    item's Fraction exponents and shares no code with the integer lattice
    that the constructor checks.
    """
    index = range(len(spec))[index]
    dimensions = (*spec.column_dimensions, *(c.dimension for c in spec.constants))
    total = DIMENSIONLESS
    for position, (exponent, dimension) in enumerate(
        zip(spec.exponents[index].tolist(), dimensions)
    ):
        tag = spec.transforms.get((index, position), "identity")
        if exponent != 0 and tag == "identity":
            total = total * dimension ** exponent
    return total


# --------------------------------------------------------------------------
# The integer lattice
#
# Scaling every unit exponent by the lcm of their denominators turns "this
# monomial has the target dimension" into the integer equation E @ D == t,
# with one row of D per feature or constant.  Validation checks a spec's
# monomials with one such product; enumeration searches the same table,
# restricted to the units some item or the target uses, and joins its two
# halves on one int64 key per dimension vector (_dimension_keys).

_INT64_MAX = int(np.iinfo(np.int64).max)


def _integer_dimension_table(
    dimensions: Sequence[Dimension], target: Dimension
) -> tuple[list[list[int]], list[int], int]:
    denominators = [e.denominator for d in dimensions for e in d.exponents]
    denominators += [e.denominator for e in target.exponents]
    scale = math.lcm(*denominators) if denominators else 1
    table = [
        [int(e * scale) for e in d.exponents] for d in dimensions
    ]
    target_row = [int(e * scale) for e in target.exponents]
    return table, target_row, scale


def _mismatched_rows(
    exponents: np.ndarray,
    transforms: Mapping[tuple[int, int], str],
    column_dimensions: Sequence[Dimension],
    constant_dimensions: Sequence[Dimension],
    target: Dimension,
) -> dict[int, Dimension]:
    """Row -> dimension of each row of the exponent matrix that misses ``target``.

    A column under a non-identity transform contributes a dimensionless
    factor, so its entry in ``E`` is zeroed.  ``E @ D`` runs in int64 only
    when no entry and no partial sum can overflow, ``max|E|`` times
    ``max_u sum_i |D[i, u]|`` (each at least 1) fitting; a spec file may
    carry any integer exponent, and past that bound the product is taken
    in Python ints.
    """
    table, target_row, scale = _integer_dimension_table(
        (*column_dimensions, *constant_dimensions), target
    )
    transformed = [entry for entry, tag in transforms.items() if tag != "identity"]
    if transformed:
        exponents = exponents.copy()
        exponents[tuple(np.array(transformed).T)] = 0
    largest = max(-int(exponents.min()), int(exponents.max())) if exponents.size else 0
    reach = max((sum(map(abs, column)) for column in zip(*table)), default=0)
    fits = max(max(largest, 1) * max(reach, 1), *map(abs, target_row)) <= _INT64_MAX
    dtype = np.int64 if fits else object
    matrix = np.array(table, dtype=dtype).reshape(len(table), len(target_row))
    products = exponents.astype(dtype) @ matrix
    rows = np.flatnonzero(np.any(products != np.array(target_row, dtype=dtype), axis=1))
    return {
        row: Dimension(tuple(Fraction(v, scale) for v in products[row].tolist()))
        for row in rows.tolist()
    }


def _exponent_matrix(rows, width: int, items: str) -> np.ndarray:
    """``rows`` as an integer matrix with ``width`` columns.

    The matrix is int64 when every entry fits and holds Python ints
    otherwise.  Exponents form an integer lattice; silently truncating 1.5
    would change the monomial, so a bool or non-integral entry is a
    :class:`TypeError`, and a row of the wrong length a
    :class:`~pifmap.errors.LengthMismatch` that names it.
    """
    if not (isinstance(rows, np.ndarray) and rows.dtype.kind == "i"):
        rows = rows.tolist() if isinstance(rows, np.ndarray) else list(rows)
        if not {int}.issuperset(map(type, itertools.chain.from_iterable(rows))):
            _exact_ints(itertools.chain.from_iterable(rows), "exponents")
    if len(rows) == 0:
        return np.zeros((0, width), dtype=np.int64)
    try:
        matrix = np.array(rows, dtype=np.int64)
    except OverflowError:  # an entry beyond int64
        matrix = np.array(rows, dtype=object)
    except ValueError:  # ragged rows
        matrix = None
    if matrix is not None and matrix.ndim == 2 and matrix.shape[1] == width:
        return matrix
    for index, row in enumerate(rows):
        if np.ndim(row) != 1 or len(row) != width:
            raise LengthMismatch(
                f"monomial {index + 1} has {np.size(row)} exponents for "
                f"{width} {items}"
            )
    raise LengthMismatch(f"exponents for {width} {items} do not form a matrix")


def _sign_vector(signs, n_rows: int) -> np.ndarray:
    if signs is None:
        return np.ones(n_rows, dtype=np.int64)
    values = _exact_ints(signs.tolist() if isinstance(signs, np.ndarray) else signs, "signs")
    if len(values) != n_rows:
        raise LengthMismatch(f"{len(values)} signs for {n_rows} monomials")
    wrong = [value for value in values if value not in (-1, 1)]
    if wrong:
        raise ValueError(f"sign must be -1 or +1, got {wrong[0]}")
    return np.array(values, dtype=np.int64)


def _transform_map(
    transforms: Mapping[tuple[int, int], str], n_rows: int, n_columns: int
) -> dict[tuple[int, int], str]:
    checked = {}
    for (row, column), tag in transforms.items():
        row, column = _exact_ints((row, column), "transform indices")
        if tag not in TRANSFORM_TAGS:
            raise ValueError(f"unknown transform tag {tag!r}")
        if not 0 <= column < n_columns:
            raise ValueError(f"transform index {column} out of range")
        if not 0 <= row < n_rows:
            raise ValueError(f"transform on monomial {row + 1} out of range")
        checked[row, column] = str(tag)
    return checked


@dataclass(frozen=True, eq=False)
class FeatureMapSpec:
    """Ordered monomials over a declared schema, all of one target dimension.

    ``exponents`` is the ``p x (columns + constants)`` integer matrix of the
    ``p`` monomials, ``signs`` their ``p`` signs (all +1 when omitted) and
    ``transforms`` maps a ``(row, column)`` entry to its transform tag; an
    entry it does not list is ``identity``.  Construction stores them as a
    read-only matrix, an int64 vector and a dict.

    A monomial that misses ``target_dimension`` raises
    :class:`~pifmap.errors.DimensionMismatch` at construction unless
    ``allow_inconsistent`` is set; then ``inconsistent_indices`` lists it and
    ``diagnostics`` describes it.
    """

    name: str
    features: tuple[Feature, ...]
    constants: tuple[PhysicalConstant, ...]
    exponents: np.ndarray
    target_dimension: Dimension
    signs: np.ndarray | None = None
    transforms: Mapping[tuple[int, int], str] = field(default_factory=dict)
    derived: tuple[DerivedFeature, ...] = ()
    allow_inconsistent: bool = False
    metadata: dict = field(default_factory=dict)
    # row -> dimension of each monomial that misses the target
    _mismatches: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        names = [f.name for f in self.features] + [d.name for d in self.derived]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate feature names in {names}")
        constant_names = [c.name for c in self.constants]
        if len(set(constant_names)) != len(constant_names):
            raise ValueError(f"duplicate constant names in {constant_names}")
        for derived in self.derived:
            self._validate_derived(derived)
        dims = self.column_dimensions
        cdims = tuple(c.dimension for c in self.constants)
        exponents = _exponent_matrix(
            self.exponents, len(dims) + len(cdims), "columns and constants"
        )
        exponents.flags.writeable = False
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "signs", _sign_vector(self.signs, len(exponents)))
        self.signs.flags.writeable = False
        object.__setattr__(self, "transforms", _transform_map(
            self.transforms, len(exponents), len(dims)
        ))
        featureless = np.flatnonzero(~np.any(exponents[:, :len(dims)] != 0, axis=1))
        if featureless.size:
            raise ValueError(
                f"monomial {featureless[0] + 1} uses no feature; a monomial "
                f"must use at least one feature"
            )
        mismatches = _mismatched_rows(
            exponents, self.transforms, dims, cdims, self.target_dimension
        )
        if mismatches and not self.allow_inconsistent:
            raise DimensionMismatch(
                (index, actual, self.target_dimension)
                for index, actual in mismatches.items()
            )
        object.__setattr__(self, "_mismatches", mismatches)

    def _validate_derived(self, derived: DerivedFeature) -> None:
        if derived.kind not in _DERIVED_KINDS:
            raise ValueError(f"unknown derived feature kind {derived.kind!r}")
        if len(derived.args) != _DERIVED_ARITY[derived.kind]:
            raise ValueError(
                f"derived feature {derived.name!r} needs "
                f"{_DERIVED_ARITY[derived.kind]} arguments"
            )
        feature_names = [f.name for f in self.features]
        arg_dims = []
        for arg in derived.args:
            if arg not in feature_names:
                raise ValueError(
                    f"derived feature {derived.name!r} references unknown "
                    f"feature {arg!r}"
                )
            arg_dims.append(self.features[feature_names.index(arg)].dimension)
        if derived.kind == "reduced_mass":
            if arg_dims[0] != arg_dims[1] or derived.dimension != arg_dims[0]:
                raise DimensionMismatch(
                    [(0, derived.dimension, arg_dims[0])]
                )

    @property
    def column_dimensions(self) -> tuple[Dimension, ...]:
        return tuple(f.dimension for f in self.features) + tuple(
            d.dimension for d in self.derived
        )

    @property
    def column_feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features) + tuple(
            d.name for d in self.derived
        )

    @property
    def monomial_names(self) -> tuple[str, ...]:
        return tuple(f"pif_{i + 1}" for i in range(len(self)))

    @property
    def inconsistent_indices(self) -> tuple[int, ...]:
        """The 0-based rows that miss the target, kept by ``allow_inconsistent``."""
        return tuple(self._mismatches)

    @property
    def diagnostics(self) -> tuple[str, ...]:
        """One line per inconsistent monomial: its dimension and the target."""
        return tuple(
            f"pif_{index + 1} ({render_monomial(self, index)}) has dimension "
            f"{format_unit(actual)}, declared target is "
            f"{format_unit(self.target_dimension)}"
            for index, actual in self._mismatches.items()
        )

    def __len__(self) -> int:
        return len(self.exponents)


def render_monomial(spec: FeatureMapSpec, index: int) -> str:
    """Human-readable product form, e.g. ``-B^2*r^4*omega*mu0^-1``."""
    index = range(len(spec))[index]
    names = spec.column_feature_names
    row = spec.exponents[index].tolist()
    parts = []
    for position, exponent in enumerate(row[:len(names)]):
        if exponent == 0:
            continue
        tag = spec.transforms.get((index, position), "identity")
        base = names[position] if tag == "identity" else f"{tag}({names[position]})"
        parts.append(base if exponent == 1 else f"{base}^{exponent}")
    for constant, exponent in zip(spec.constants, row[len(names):]):
        if exponent == 0:
            continue
        parts.append(
            constant.name if exponent == 1 else f"{constant.name}^{exponent}"
        )
    text = "*".join(parts)
    return f"-{text}" if spec.signs[index] < 0 else text


# --------------------------------------------------------------------------
# Enumeration


def _half_grid_rows(
    n_features: int, n_constants: int, bound: int, constant_bound: int,
    max_active: int,
) -> int:
    # Feature rows with at most max_active nonzero entries, times every
    # constant row; the closed form of what _half_grid allocates.
    feature_rows = sum(
        math.comb(n_features, k) * (2 * bound) ** k
        for k in range(min(n_features, max_active) + 1)
    )
    return feature_rows * (2 * constant_bound + 1) ** n_constants


def _check_budget(needed: int, budget: int) -> None:
    if needed > budget:
        raise BudgetExceeded(
            f"enumeration needs at least {needed} half-grid rows plus join "
            f"candidates, over its budget of {budget}"
        )


def _group_offsets(sizes: np.ndarray) -> np.ndarray:
    # 0, 1, ..., size - 1 for each group, concatenated
    starts = np.cumsum(sizes) - sizes
    return np.arange(int(sizes.sum())) - np.repeat(starts, sizes)


def _half_grid(
    n_features: int, n_constants: int, bound: int, constant_bound: int,
    max_active: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Exponent rows of one half in lexicographic order, and their active counts.

    Items are features, then constants.  Each row expands in place into
    its children in increasing exponent order, so the rows stay sorted; a
    row that already has ``max_active`` nonzero features only takes 0 for
    the next feature, so nothing beyond the closed-form count is built.
    """
    grid = np.zeros((1, 0), dtype=np.int64)
    active = np.zeros(1, dtype=np.int64)
    for position in range(n_features + n_constants):
        is_feature = position < n_features
        item_bound = bound if is_feature else constant_bound
        free = active < max_active if is_feature else np.ones(len(active), bool)
        sizes = np.where(free, 2 * item_bound + 1, 1)
        column = np.where(
            np.repeat(free, sizes), _group_offsets(sizes) - item_bound, 0
        )
        grid = np.column_stack([np.repeat(grid, sizes, axis=0), column])
        active = np.repeat(active, sizes) + (is_feature & (column != 0))
    return grid, active


def _dimension_keys(rows: np.ndarray) -> np.ndarray:
    """One int64 per row of an int64 matrix, equal exactly when the rows are.

    Each column's offset from its minimum is one digit of a mixed-radix
    number, folded in column by column; spans are Python ints.  A fold that
    could overflow int64 instead relabels the pair (key so far, column)
    densely, so the key then takes no more values than there are rows.
    Every column's ``max - min`` must fit int64.
    """
    keys = np.zeros(len(rows), dtype=np.int64)
    radix = 1  # keys lie in [0, radix)
    for column in rows.T:
        low = int(column.min())
        span = int(column.max()) - low + 1
        if radix * span <= _INT64_MAX:
            keys = keys * span + (column - low)
            radix *= span
        else:
            _, keys = np.unique(
                np.column_stack([keys, column]), axis=0, return_inverse=True
            )
            keys = keys.reshape(-1).astype(np.int64, copy=False)
            radix = int(keys.max()) + 1
    return keys


def _strictly_increasing(rows: np.ndarray) -> bool:
    # each row's first difference from its predecessor must be positive
    if len(rows) < 2:
        return True
    step = np.diff(rows, axis=0)
    first = (step != 0).argmax(axis=1)
    return bool(np.all(step[np.arange(len(step)), first] > 0))


def enumerate_monomials(
    schema: FeatureSchema | Sequence[Feature],
    constants: Sequence[PhysicalConstant],
    target: Dimension,
    max_abs_exponent: int,
    max_active_features: int,
    *,
    max_constant_exponent: int | None = None,
    budget: int = 1_000_000,
) -> np.ndarray:
    """The exponent matrix of every monomial of dimension ``target`` within bounds.

    Feature exponents range over ``[-max_abs_exponent, max_abs_exponent]``
    with at most ``max_active_features`` of them nonzero (and at least
    one); constants get their own bound, ``max_constant_exponent``
    (defaulting to the feature bound), and do not count toward the active
    limit.  The result is an int64 matrix with one row per monomial, the
    feature exponents followed by the constant exponents, duplicate-free
    and in lexicographic row order; it is the ``exponents`` of a
    :class:`FeatureMapSpec` over the same features and constants.

    ``budget`` caps the half-grid rows plus join candidates.  Both are
    counted before the arrays that hold them are allocated, so the budget
    bounds memory as well as time.
    """
    features = tuple(schema.features if isinstance(schema, FeatureSchema) else schema)
    constants = tuple(constants)
    if max_abs_exponent < 1:
        raise InvalidRange("max_abs_exponent must be at least 1")
    if max_active_features < 1:
        raise InvalidRange("max_active_features must be at least 1")
    if budget < 1:
        raise InvalidRange("budget must be positive")
    constant_bound = (
        max_abs_exponent if max_constant_exponent is None else max_constant_exponent
    )
    if constant_bound < 0:
        raise InvalidRange("max_constant_exponent must be non-negative")

    n_features = len(features)
    dims = [f.dimension for f in features] + [c.dimension for c in constants]
    table, target_row, _ = _integer_dimension_table(dims, target)
    # A unit that neither an item nor the target uses adds 0 == 0 to every row.
    used = [
        u for u, t in enumerate(target_row) if t or any(row[u] for row in table)
    ]
    table = [[row[u] for u in used] for row in table]
    target_row = [target_row[u] for u in used]
    bounds = [max_abs_exponent] * n_features + [constant_bound] * len(constants)
    reach = [
        sum(b * abs(row[u]) for b, row in zip(bounds, table))
        for u in range(len(target_row))
    ]
    if any(abs(t) > r for t, r in zip(target_row, reach)):
        return np.zeros((0, len(dims)), dtype=np.int64)
    # |target - left| <= 2 * reach bounds every sum the join computes, and
    # the target - left and right values of one unit span at most 2 * reach,
    # so each key column's max - min fits int64 too.
    largest = max([2 * r for r in reach] + [abs(v) for row in table for v in row],
                  default=0)
    if largest > _INT64_MAX:
        raise InvalidRange("exponent bounds too large for the int64 lattice")

    # Meet in the middle: split the items into two halves, list each
    # half's exponent rows and join them on target - left == right.
    n_left = len(dims) // 2
    left_features = min(n_features, n_left)
    halves = [
        (left_features, n_left - left_features),
        (n_features - left_features, len(constants) - n_left + left_features),
    ]
    needed = sum(
        _half_grid_rows(f, c, max_abs_exponent, constant_bound, max_active_features)
        for f, c in halves
    )
    _check_budget(needed, budget)
    (left, left_active), (right, right_active) = (
        _half_grid(f, c, max_abs_exponent, constant_bound, max_active_features)
        for f, c in halves
    )
    matrix = np.array(table, dtype=np.int64).reshape(len(dims), len(target_row))
    need = np.array(target_row, dtype=np.int64) - left @ matrix[:n_left]
    keys = _dimension_keys(np.concatenate([need, right @ matrix[n_left:]]))
    need_keys, have_keys = np.split(keys, [len(left)])
    right_order = np.argsort(have_keys, kind="stable")
    have_keys = have_keys[right_order]
    first_match = np.searchsorted(have_keys, need_keys, "left")
    matches = np.searchsorted(have_keys, need_keys, "right") - first_match
    needed += int(matches.sum())
    _check_budget(needed, budget)
    left_index = np.repeat(np.arange(len(left)), matches)
    right_index = right_order[np.repeat(first_match, matches) + _group_offsets(matches)]
    active = left_active[left_index] + right_active[right_index]
    keep = (active >= 1) & (active <= max_active_features)
    rows = np.concatenate(
        [left[left_index[keep]], right[right_index[keep]]], axis=1
    )
    # Left-major order over sorted halves, with each key's right rows in
    # their own order, is lexicographic order of the whole row.
    if not _strictly_increasing(rows):
        raise AssertionError("enumerated monomials are not in strict lexicographic order")
    return rows


# --------------------------------------------------------------------------
# Evaluation


def _check_schema(spec: FeatureMapSpec, dataset: Dataset) -> None:
    actual = dataset.schema.features
    expected = spec.features
    if len(actual) != len(expected):
        raise SchemaMismatch(
            f"spec {spec.name!r} expects {len(expected)} features, "
            f"dataset has {len(actual)}"
        )
    for position, (a, e) in enumerate(zip(actual, expected)):
        if a.name != e.name or a.dimension != e.dimension:
            raise SchemaMismatch(
                f"column {position}: dataset has {a.name}[{format_unit(a.dimension)}], "
                f"spec expects {e.name}[{format_unit(e.dimension)}]"
            )


def _extended_columns(spec: FeatureMapSpec, X: np.ndarray, start: int) -> list[np.ndarray]:
    """The columns of ``X``, then the derived columns; ``X`` starts at table row ``start``."""
    columns = [X[:, j] for j in range(X.shape[1])]
    by_name = {f.name: c for f, c in zip(spec.features, columns)}
    for derived in spec.derived:
        compute = _DERIVED_KINDS[derived.kind]
        columns.append(compute([by_name[a] for a in derived.args], start))
    return columns


def _power(base: np.ndarray, exponent: int, monomial: int, start: int) -> np.ndarray:
    """``base ** exponent``; a zero under a negative exponent names ``monomial``
    and its table row, ``base[0]`` being table row ``start``."""
    if exponent < 0 and not base.all():
        row = start + int(np.flatnonzero(base == 0.0)[0])
        raise DivisionByZero(
            f"monomial {monomial + 1} raises a zero value to power {exponent} at row {row}",
            row=row,
            monomial=monomial,
        )
    return base ** exponent


# evaluate_map works through the table this many rows at a time and
# evaluates each block once, so that no cached power is longer than a block,
# whether the evaluation passes or fails; each output column of a block is
# contiguous, so a monomial is computed in place where it is stored.
_BLOCK_ROWS = 8192


# One factor of a monomial: (column, transform tag, exponent).
_Factor = tuple[int, str, int]


def _factor_plan(
    spec: FeatureMapSpec,
) -> tuple[list[list[_Factor]], dict[_Factor, int], list[float]]:
    """Each monomial's factors in column order, each factor's last user, and the scales.

    The factors are the nonzero entries of the column block of the exponent
    matrix; the scale is the sign times the product of the constant powers,
    multiplied in declared order.
    """
    n_columns = len(spec.column_dimensions)
    block = spec.exponents[:, :n_columns]
    rows, columns = np.nonzero(block)
    factors: list[list[_Factor]] = [[] for _ in range(len(spec))]
    for row, column, exponent in zip(
        rows.tolist(), columns.tolist(), block[rows, columns].tolist()
    ):
        tag = spec.transforms.get((row, column), "identity")
        factors[row].append((column, tag, exponent))
    last_user = {key: j for j, row_factors in enumerate(factors) for key in row_factors}
    scales = []
    for sign, powers in zip(spec.signs.tolist(), spec.exponents[:, n_columns:].tolist()):
        scale = 1.0
        for constant, exponent in zip(spec.constants, powers):
            if exponent != 0:
                scale *= constant.value ** exponent
        scales.append(sign * scale)
    return factors, last_user, scales


def _evaluate_rows(plan, columns, out: np.ndarray, start: int, limit: int) -> None:
    """Write monomials ``0 .. limit - 1``, evaluated on one block, into ``out``.

    ``columns`` are the block's extended columns, starting at table row
    ``start``.  An error names the first of these monomials that fails on
    the block, and its table row.
    """
    factors, last_user, scales = plan
    # (column, transform tag, exponent) -> transform(column) ** exponent,
    # kept while a later monomial still uses it.  A zero under a negative
    # exponent raises on the triple's first use, by the first monomial
    # that uses it, so no zero is ever cached.
    powers: dict[_Factor, np.ndarray] = {}
    # overflow is reported as NonFiniteResult below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(limit):
            value = out[:, j]  # contiguous: out is Fortran-ordered
            value.fill(1.0)
            for key in factors[j]:
                power = powers.pop(key, None)
                if power is None:
                    position, tag, exponent = key
                    power = _power(TRANSFORM_TAGS[tag](columns[position]), exponent, j, start)
                if last_user[key] > j:  # a later monomial uses it again
                    powers[key] = power
                value *= power
            value *= scales[j]
            if not np.isfinite(value).all():
                row = start + int(np.flatnonzero(~np.isfinite(value))[0])
                raise NonFiniteResult(
                    f"monomial {j + 1} is non-finite at row {row}", row=row, monomial=j
                )


def evaluate_map(spec: FeatureMapSpec, dataset: Dataset) -> np.ndarray:
    """Evaluate every monomial on every row; an ``n x p`` array in Fortran order.

    Factors multiply in declared order (columns, then constants, then the
    sign) so results are bit-reproducible.  Zero raised to a negative
    power raises :class:`~pifmap.errors.DivisionByZero`; overflow to inf
    raises :class:`~pifmap.errors.NonFiniteResult`.  Either error names
    the first monomial that fails on any row, at its table row in the
    first block of 8,192 rows where it fails: the row of its first factor
    that meets a zero there, or else its first non-finite row.  A derived
    column's error (a zero total mass) is raised from the first block where
    it occurs, before any monomial's error.

    The factors and each one's last user are read once from the nonzero
    entries of the exponent matrix.  Each block is evaluated once.  Within
    a block, each power ``transform(column) ** exponent`` is computed once
    and shared by every monomial that uses that (column, transform,
    exponent) triple; a power is kept only until the last monomial that
    uses it and never outlives its block.  After a block fails, later
    blocks evaluate only the monomials before the failing one.  Beyond the
    output, memory is bounded by one block, whether the evaluation passes
    or fails: at most one block-sized array per distinct triple that occurs
    in more than one monomial.
    """
    _check_schema(spec, dataset)
    n = dataset.n_rows
    out = np.empty((n, len(spec)), dtype=float, order="F")
    plan = _factor_plan(spec)
    limit, error = len(spec), None
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        columns = _extended_columns(spec, dataset.X[rows], start)
        try:
            _evaluate_rows(plan, columns, out[rows], start, limit)
        except (DivisionByZero, NonFiniteResult) as exc:
            limit, error = exc.monomial, exc
    if error is not None:
        raise error
    return out


def destandardize(model):
    """Map weights fitted on standardized columns back to raw-column scale.

    For ``z = (phi - mu) / sigma`` and a fitted affine model
    ``b0 + z . b``, the equivalent raw-space model is
    ``beta0 + phi . beta`` with ``beta_j = b_j / sigma_j`` and
    ``beta0 = b0 - sum_j b_j mu_j / sigma_j``.  Predictions agree exactly
    up to floating-point roundoff.
    """
    params = model.standardization
    weights = np.asarray(model.weights, dtype=float)
    means = np.asarray(params.means, dtype=float)
    scales = np.asarray(params.scales, dtype=float)
    if weights.shape != means.shape or weights.shape != scales.shape:
        raise LengthMismatch(
            f"model has {weights.shape[0]} weights but standardization "
            f"carries {means.shape[0]} columns"
        )
    if np.any(scales <= 0.0):
        raise ZeroScale("standardization scales must be strictly positive")
    coefficients = weights / scales
    intercept = float(model.intercept - np.sum(weights * means / scales))
    return coefficients, intercept


# --------------------------------------------------------------------------
# Serialization


def spec_to_dict(spec: FeatureMapSpec) -> dict:
    n_columns = len(spec.column_dimensions)
    transforms: dict[int, dict[str, str]] = {}
    for (row, column), tag in spec.transforms.items():
        transforms.setdefault(row, {})[str(column)] = tag
    document: dict = {
        "name": spec.name,
        "target_unit": format_unit(spec.target_dimension),
        "features": [
            {"name": f.name, "unit": format_unit(f.dimension)}
            for f in spec.features
        ],
        "constants": [
            {
                "name": c.name,
                "value": c.value,
                "unit": format_unit(c.dimension),
            }
            for c in spec.constants
        ],
        "monomials": [
            {
                "sign": sign,
                "feature_exponents": columns,
                "constant_exponents": constants,
                "transforms": transforms.get(row, {}),
            }
            for row, (sign, columns, constants) in enumerate(zip(
                spec.signs.tolist(),
                spec.exponents[:, :n_columns].tolist(),
                spec.exponents[:, n_columns:].tolist(),
            ))
        ],
    }
    if spec.derived:
        document["derived_features"] = [
            {
                "name": d.name,
                "unit": format_unit(d.dimension),
                "kind": d.kind,
                "args": list(d.args),
            }
            for d in spec.derived
        ]
    if spec.metadata:
        document["metadata"] = dict(spec.metadata)
    return document


def _transform_column(key) -> int:
    # the column's decimal index exactly as spec_to_dict writes it: int() also
    # reads " 3", "+3", "03" and "\u0663" as 3, and two such keys lose a tag
    if isinstance(key, str) and key.isdecimal() and str(int(key)) == key:
        return int(key)
    raise ValueError(f"transform key {key!r} is not a column index such as '3'")


def spec_from_dict(document: Mapping, *, allow_inconsistent: bool = False) -> FeatureMapSpec:
    """Read a spec document; the :class:`FeatureMapSpec` it builds checks it."""
    features = tuple(
        Feature(entry["name"], parse_unit(entry["unit"]))
        for entry in document["features"]
    )
    derived = tuple(
        DerivedFeature(
            name=entry["name"],
            dimension=parse_unit(entry["unit"]),
            kind=entry["kind"],
            args=tuple(entry["args"]),
        )
        for entry in document.get("derived_features", [])
    )
    constants = tuple(
        PhysicalConstant(
            entry["name"],
            _exact_floats((entry["value"],), "constant values")[0],
            parse_unit(entry["unit"]),
        )
        for entry in document.get("constants", [])
    )
    entries = document["monomials"]
    exponents = np.hstack([
        _exponent_matrix(
            [entry["feature_exponents"] for entry in entries],
            len(features) + len(derived), "features",
        ),
        _exponent_matrix(
            [entry.get("constant_exponents", ()) for entry in entries],
            len(constants), "constants",
        ),
    ])
    signs = [entry.get("sign", 1) for entry in entries]
    transforms = {
        (row, _transform_column(key)): tag
        for row, entry in enumerate(entries)
        for key, tag in entry.get("transforms", {}).items()
    }
    return FeatureMapSpec(
        name=document.get("name", "unnamed"),
        features=features,
        constants=constants,
        exponents=exponents,
        target_dimension=parse_unit(document["target_unit"]),
        signs=signs,
        transforms=transforms,
        derived=derived,
        allow_inconsistent=allow_inconsistent,
        metadata=dict(document.get("metadata", {})),
    )
