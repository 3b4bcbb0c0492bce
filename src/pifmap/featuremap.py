"""Dimensionally homogeneous monomial feature maps.

A monomial feature is a signed product of integer powers of the input
features and of physical constants, optionally passing individual features
through a tagged elementwise transform first (the closed tag set is
``identity`` and ``sin2``).  A :class:`FeatureMapSpec` bundles an ordered
list of monomials with the schema they apply to and a target dimension;
every monomial must match the target exactly, which is enforced at
construction.  Specs whose source tables are known to be inconsistent can
be loaded anyway by listing the offending monomial indices, and then carry
human-readable diagnostics instead of silently passing.

:func:`enumerate_monomials` generates every monomial of a given dimension
within exponent bounds, by depth-first search over exponent assignments
with componentwise reachability pruning.  The search is exhaustive within
bounds, emits monomials in lexicographic exponent order, and raises
:class:`~pifmap.errors.BudgetExceeded` once it has walked more candidate
assignments than the configured budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

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
    "Monomial",
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


def _exact_int(value) -> int:
    # exponents form an integer lattice; silently truncating 1.5 would
    # change the monomial, so anything non-integral is a type error
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"exponents must be integers, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Monomial:
    """Signed product of feature powers and constant powers."""

    feature_exponents: tuple[int, ...]
    constant_exponents: tuple[int, ...] = ()
    sign: int = 1
    transforms: tuple[tuple[int, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "feature_exponents",
            tuple(_exact_int(e) for e in self.feature_exponents),
        )
        object.__setattr__(
            self,
            "constant_exponents",
            tuple(_exact_int(e) for e in self.constant_exponents),
        )
        object.__setattr__(
            self,
            "transforms",
            tuple(sorted((int(i), str(t)) for i, t in self.transforms)),
        )
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be -1 or +1, got {self.sign}")
        if not any(e != 0 for e in self.feature_exponents):
            raise ValueError("a monomial must use at least one feature")
        for index, tag in self.transforms:
            if tag not in TRANSFORM_TAGS:
                raise ValueError(f"unknown transform tag {tag!r}")
            if not 0 <= index < len(self.feature_exponents):
                raise ValueError(f"transform index {index} out of range")

    def transform_for(self, index: int) -> str:
        for i, tag in self.transforms:
            if i == index:
                return tag
        return "identity"


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


def _reduced_mass(columns: Sequence[np.ndarray]) -> np.ndarray:
    a, b = columns
    total = a + b
    zeros = np.flatnonzero(total == 0.0)
    if zeros.size:
        raise DivisionByZero(
            f"reduced mass undefined at row {zeros[0]} (zero total)",
            row=int(zeros[0]),
        )
    return a * b / total


_DERIVED_KINDS: Mapping[str, Callable[[Sequence[np.ndarray]], np.ndarray]] = {
    "reduced_mass": _reduced_mass,
}
_DERIVED_ARITY = {"reduced_mass": 2}


def monomial_dimension(
    monomial: Monomial,
    feature_dimensions: Sequence[Dimension],
    constant_dimensions: Sequence[Dimension] = (),
) -> Dimension:
    """Exact dimension of a monomial: the exponent-weighted sum.

    Features wrapped in a non-identity transform contribute a
    dimensionless factor regardless of their own dimension.
    """
    if len(monomial.feature_exponents) != len(feature_dimensions):
        raise LengthMismatch(
            f"{len(monomial.feature_exponents)} feature exponents for "
            f"{len(feature_dimensions)} features"
        )
    if len(monomial.constant_exponents) != len(constant_dimensions):
        raise LengthMismatch(
            f"{len(monomial.constant_exponents)} constant exponents for "
            f"{len(constant_dimensions)} constants"
        )
    total = DIMENSIONLESS
    for index, (exponent, dimension) in enumerate(
        zip(monomial.feature_exponents, feature_dimensions)
    ):
        if exponent == 0:
            continue
        if monomial.transform_for(index) != "identity":
            continue
        total = total * dimension ** exponent
    for exponent, dimension in zip(
        monomial.constant_exponents, constant_dimensions
    ):
        if exponent != 0:
            total = total * dimension ** exponent
    return total


@dataclass(frozen=True)
class FeatureMapSpec:
    """Ordered monomials over a declared schema, all of one target dimension.

    ``inconsistent_indices`` lists monomials that are knowingly kept
    despite failing the dimension check; any mismatch not listed there
    raises :class:`~pifmap.errors.DimensionMismatch` at construction.
    """

    name: str
    features: tuple[Feature, ...]
    constants: tuple[PhysicalConstant, ...]
    monomials: tuple[Monomial, ...]
    target_dimension: Dimension
    derived: tuple[DerivedFeature, ...] = ()
    inconsistent_indices: tuple[int, ...] = ()
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [f.name for f in self.features] + [d.name for d in self.derived]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate feature names in {names}")
        for derived in self.derived:
            self._validate_derived(derived)
        dims = self.column_dimensions
        cdims = tuple(c.dimension for c in self.constants)
        declared = set(self.inconsistent_indices)
        mismatched = []
        for index, monomial in enumerate(self.monomials):
            actual = monomial_dimension(monomial, dims, cdims)
            if actual != self.target_dimension:
                mismatched.append((index, actual, self.target_dimension))
        undeclared = [m for m in mismatched if m[0] not in declared]
        if undeclared:
            raise DimensionMismatch(undeclared)
        actual_set = {m[0] for m in mismatched}
        if declared != actual_set:
            stale = sorted(declared - actual_set)
            raise ValueError(
                f"monomials {stale} are declared inconsistent but check out"
            )

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
        return tuple(f"pif_{i + 1}" for i in range(len(self.monomials)))

    @property
    def diagnostics(self) -> tuple[str, ...]:
        dims = self.column_dimensions
        cdims = tuple(c.dimension for c in self.constants)
        notes = []
        for index in self.inconsistent_indices:
            actual = monomial_dimension(self.monomials[index], dims, cdims)
            notes.append(
                f"pif_{index + 1} ({render_monomial(self, index)}) has dimension "
                f"{format_unit(actual)}, declared target is "
                f"{format_unit(self.target_dimension)}"
            )
        return tuple(notes)

    def __len__(self) -> int:
        return len(self.monomials)


def render_monomial(spec: FeatureMapSpec, index: int) -> str:
    """Human-readable product form, e.g. ``-B^2*r^4*omega*mu0^-1``."""
    monomial = spec.monomials[index]
    names = spec.column_feature_names
    parts = []
    for position, exponent in enumerate(monomial.feature_exponents):
        if exponent == 0:
            continue
        tag = monomial.transform_for(position)
        base = names[position] if tag == "identity" else f"{tag}({names[position]})"
        parts.append(base if exponent == 1 else f"{base}^{exponent}")
    for constant, exponent in zip(spec.constants, monomial.constant_exponents):
        if exponent == 0:
            continue
        parts.append(
            constant.name if exponent == 1 else f"{constant.name}^{exponent}"
        )
    text = "*".join(parts)
    return f"-{text}" if monomial.sign < 0 else text


# --------------------------------------------------------------------------
# Enumeration


def _integer_dimension_table(
    dimensions: Sequence[Dimension], target: Dimension
) -> tuple[list[list[int]], list[int]]:
    # Clearing denominators lets the DFS work in integer arithmetic.
    denominators = [e.denominator for d in dimensions for e in d.exponents]
    denominators += [e.denominator for e in target.exponents]
    scale = math.lcm(*denominators) if denominators else 1
    table = [
        [int(e * scale) for e in d.exponents] for d in dimensions
    ]
    target_row = [int(e * scale) for e in target.exponents]
    return table, target_row


def enumerate_monomials(
    schema: FeatureSchema | Sequence[Feature],
    constants: Sequence[PhysicalConstant],
    target: Dimension,
    max_abs_exponent: int,
    max_active_features: int,
    *,
    max_constant_exponent: int | None = None,
    budget: int = 1_000_000,
) -> tuple[Monomial, ...]:
    """All monomials of dimension ``target`` within the exponent bounds.

    Feature exponents range over ``[-max_abs_exponent, max_abs_exponent]``
    with at most ``max_active_features`` of them nonzero (and at least
    one); constants get their own bound, ``max_constant_exponent``
    (defaulting to the feature bound), and do not count toward the active
    limit.  Results come out duplicate-free in lexicographic order of the
    concatenated exponent vector.
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
    table, target_row = _integer_dimension_table(dims, target)
    n_components = len(target_row)
    bounds = [max_abs_exponent] * n_features + [constant_bound] * len(constants)
    n_items = len(table)

    # suffix_reach[j][u]: the largest |contribution| to component u that
    # items j..end can still make; used to prune unreachable residuals.
    suffix_reach = [[0] * n_components for _ in range(n_items + 1)]
    for j in range(n_items - 1, -1, -1):
        for u in range(n_components):
            suffix_reach[j][u] = (
                suffix_reach[j + 1][u] + bounds[j] * abs(table[j][u])
            )

    results: list[Monomial] = []
    exponents = [0] * n_items
    visited = 0

    def walk(index: int, residual: list[int], active: int, any_active: bool) -> None:
        nonlocal visited
        for u in range(n_components):
            if abs(residual[u]) > suffix_reach[index][u]:
                return
        if index == n_items:
            if any_active and all(r == 0 for r in residual):
                results.append(
                    Monomial(
                        feature_exponents=tuple(exponents[:n_features]),
                        constant_exponents=tuple(exponents[n_features:]),
                    )
                )
            return
        is_feature = index < n_features
        bound = bounds[index]
        row = table[index]
        for exponent in range(-bound, bound + 1):
            if is_feature and exponent != 0 and active >= max_active_features:
                continue
            visited += 1
            if visited > budget:
                raise BudgetExceeded(
                    f"enumeration exceeded budget of {budget} candidates"
                )
            exponents[index] = exponent
            next_residual = [
                residual[u] - exponent * row[u] for u in range(n_components)
            ]
            walk(
                index + 1,
                next_residual,
                active + (1 if is_feature and exponent != 0 else 0),
                any_active or (is_feature and exponent != 0),
            )
        exponents[index] = 0

    walk(0, list(target_row), 0, False)
    return tuple(results)


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


def _extended_columns(spec: FeatureMapSpec, dataset: Dataset) -> list[np.ndarray]:
    columns = [dataset.X[:, j] for j in range(dataset.n_features)]
    by_name = {f.name: c for f, c in zip(spec.features, columns)}
    for derived in spec.derived:
        compute = _DERIVED_KINDS[derived.kind]
        columns.append(compute([by_name[a] for a in derived.args]))
    return columns


def evaluate_map(spec: FeatureMapSpec, dataset: Dataset) -> np.ndarray:
    """Evaluate every monomial on every row; returns an ``n x p`` matrix.

    Factors multiply in declared order (features, then constants, then the
    sign) so results are bit-reproducible.  Zero raised to a negative
    power raises :class:`~pifmap.errors.DivisionByZero` naming the row and
    monomial; overflow to inf raises :class:`~pifmap.errors.NonFiniteResult`.
    """
    _check_schema(spec, dataset)
    columns = _extended_columns(spec, dataset)
    n = dataset.n_rows
    out = np.empty((n, len(spec.monomials)), dtype=float)
    # overflow is reported as NonFiniteResult below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for j, monomial in enumerate(spec.monomials):
            value = np.ones(n, dtype=float)
            for position, exponent in enumerate(monomial.feature_exponents):
                if exponent == 0:
                    continue
                base = TRANSFORM_TAGS[monomial.transform_for(position)](
                    columns[position]
                )
                if exponent < 0:
                    zeros = np.flatnonzero(base == 0.0)
                    if zeros.size:
                        raise DivisionByZero(
                            f"monomial {j + 1} raises a zero value to power "
                            f"{exponent} at row {zeros[0]}",
                            row=int(zeros[0]),
                            monomial=j,
                        )
                value = value * base ** exponent
            scale = 1.0
            for constant, exponent in zip(
                spec.constants, monomial.constant_exponents
            ):
                if exponent != 0:
                    scale *= constant.value ** exponent
            value = value * (monomial.sign * scale)
            bad = np.flatnonzero(~np.isfinite(value))
            if bad.size:
                raise NonFiniteResult(
                    f"monomial {j + 1} is non-finite at row {bad[0]}",
                    row=int(bad[0]),
                    monomial=j,
                )
            out[:, j] = value
    return out


def destandardize(model, spec: FeatureMapSpec | None = None):
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
    if spec is not None:
        known = set(spec.monomial_names)
        missing = [n for n in model.feature_names if n not in known]
        if missing:
            raise SchemaMismatch(
                f"model columns {missing} are not monomials of spec {spec.name!r}"
            )
    coefficients = weights / scales
    intercept = float(model.intercept - np.sum(weights * means / scales))
    return coefficients, intercept


# --------------------------------------------------------------------------
# Serialization


def spec_to_dict(spec: FeatureMapSpec) -> dict:
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
                "sign": m.sign,
                "feature_exponents": list(m.feature_exponents),
                "constant_exponents": list(m.constant_exponents),
                "transforms": {str(i): tag for i, tag in m.transforms},
            }
            for m in spec.monomials
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


def spec_from_dict(document: Mapping, *, allow_inconsistent: bool = False) -> FeatureMapSpec:
    aliases = {
        name: parse_unit(text)
        for name, text in document.get("unit_aliases", {}).items()
    }

    def parse(text: str) -> Dimension:
        return parse_unit(text, aliases=aliases or None)

    features = tuple(
        Feature(entry["name"], parse(entry["unit"]))
        for entry in document["features"]
    )
    derived = tuple(
        DerivedFeature(
            name=entry["name"],
            dimension=parse(entry["unit"]),
            kind=entry["kind"],
            args=tuple(entry["args"]),
        )
        for entry in document.get("derived_features", [])
    )
    constants = tuple(
        PhysicalConstant(entry["name"], float(entry["value"]), parse(entry["unit"]))
        for entry in document.get("constants", [])
    )
    monomials = tuple(
        Monomial(
            feature_exponents=tuple(entry["feature_exponents"]),
            constant_exponents=tuple(entry.get("constant_exponents", ())),
            sign=int(entry.get("sign", 1)),
            transforms=tuple(
                (int(i), tag) for i, tag in entry.get("transforms", {}).items()
            ),
        )
        for entry in document["monomials"]
    )
    target = parse(document["target_unit"])

    fields = dict(
        name=document.get("name", "unnamed"),
        features=features,
        constants=constants,
        monomials=monomials,
        target_dimension=target,
        derived=derived,
        metadata=dict(document.get("metadata", {})),
    )
    try:
        return FeatureMapSpec(**fields)
    except DimensionMismatch as exc:
        if not allow_inconsistent:
            raise
        # With nothing declared inconsistent, construction reports every
        # mismatched monomial; declaring exactly those lets it pass.  A
        # mismatched derived feature is checked first and raises again.
        return FeatureMapSpec(
            **fields,
            inconsistent_indices=tuple(index for index, _, _ in exc.entries),
        )
