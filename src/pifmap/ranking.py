"""Coefficient-magnitude ranking and greedy prefix selection.

Columns are ordered by decreasing absolute standardized weight (ties go
to the lower index).  When the greedy pass ranks a design, columns that
agree in every row to 1e-8 of their largest magnitude count as one column
computed along different paths: their ridge weights are equal in exact
arithmetic and differ only by rounding, so each takes the group's largest
magnitude and the group ranks together, in index order: the order does
not follow the solver's rounding.  The greedy pass fits growing prefixes
of that order and stops at the first size ``k >= 2`` where the relative
improvement of BOTH error metrics,
``(metric(k-1) - metric(k)) / metric(k-1)``, falls below ``epsilon``;
the selected count is then ``k - 1``.  One extra prefix beyond the stop
(capped at the column count) is always evaluated so the reported curve
shows the plateau, and if no stop is ever triggered every column ends up
selected.  The pass checks each input once, and each prefix is solved by
:func:`~pifmap.regression.ridge_fit`'s own solve, so its weights equal a
``ridge_fit`` of those columns bit for bit.  :func:`rank_and_refit` runs
the whole step on a design that is already standardized and fitted: rank
by that fit and map the greedy pass's own fit of the selected prefix back
to raw-column scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyInput, InvalidRange, LengthMismatch
from .featuremap import destandardize
from .metrics import _errors
from .regression import (
    RidgeModel,
    StandardizationParams,
    _centered_labels,
    _check_lambda,
    _check_matrix,
    _ridge_weights,
    identity_standardization,
    ridge_fit,
)

__all__ = [
    "CurvePoint",
    "RankingResult",
    "rank_by_coefficient",
    "greedy_select",
    "rank_and_refit",
    "curve_to_csv",
]


@dataclass(frozen=True)
class CurvePoint:
    k: int
    mae: float
    mse: float


@dataclass(frozen=True)
class RankingResult:
    order: tuple[int, ...]
    selected_count: int
    curve: tuple[CurvePoint, ...]
    epsilon: float
    selected_fit: RidgeModel

    @property
    def selected(self) -> tuple[int, ...]:
        return self.order[: self.selected_count]


def rank_by_coefficient(model: RidgeModel) -> tuple[int, ...]:
    """Column indices sorted by |weight| descending, index ascending on ties."""
    weights = np.asarray(model.weights, dtype=float)
    if weights.size == 0:
        raise EmptyInput("model has no weights to rank")
    return tuple(
        sorted(range(weights.size), key=lambda j: (-abs(weights[j]), j))
    )


# Columns whose rows differ by at most this share of their largest
# magnitude are taken for one column.
_IDENTICAL_RTOL = 1e-8

# One fixed random weight per design row that the projection below reads.
_PROBE = np.random.default_rng(0).standard_normal(64)


def _identical_column_groups(Z: np.ndarray) -> np.ndarray:
    """Label each column with the lowest index of the columns identical to it.

    The first rows of every column are projected on one fixed random
    vector ``v``.  Identical columns project to within
    ``rtol * max|Z| * sum|v|`` of each other, so only columns that close in
    projection order are compared in every row.
    """
    largest = max(float(Z.max(initial=0.0)), -float(Z.min(initial=0.0)))
    head = Z[:len(_PROBE)]
    v = _PROBE[:len(head)]
    projection = v @ head
    reach = _IDENTICAL_RTOL * largest * float(np.abs(v).sum())
    labels = np.arange(Z.shape[1])
    magnitudes: dict[int, float] = {}

    def magnitude(j: int) -> float:
        if j not in magnitudes:
            magnitudes[j] = float(np.abs(Z[:, j]).max(initial=0.0))
        return magnitudes[j]

    by_projection = np.argsort(projection, kind="stable")
    for a, j in enumerate(by_projection):
        for k in by_projection[a + 1:]:
            if projection[k] - projection[j] > reach:
                break
            if labels[j] == labels[k]:
                continue
            limit = _IDENTICAL_RTOL * max(magnitude(j), magnitude(k))
            if np.abs(Z[:, j] - Z[:, k]).max(initial=0.0) <= limit:
                low = min(labels[j], labels[k])
                labels[(labels == labels[j]) | (labels == labels[k])] = low
    return labels


def _rank_design_columns(model: RidgeModel, labels: np.ndarray) -> tuple[int, ...]:
    """:func:`rank_by_coefficient` with identical columns ranked together.

    Each column takes the largest |weight| of its ``labels`` group (see
    :func:`_identical_column_groups`), so a group ranks as one, in index order.
    """
    weights = np.abs(np.asarray(model.weights, dtype=float))
    shared = np.zeros(weights.size)
    np.maximum.at(shared, labels, weights)
    return rank_by_coefficient(replace(model, weights=shared[labels]))


def _relative_improvement(previous: float, current: float) -> float:
    # A perfect previous score cannot be improved; treat as saturated.
    if previous == 0.0:
        return 0.0
    return (previous - current) / previous


def greedy_select(
    Z_train: np.ndarray,
    y_train: np.ndarray,
    Z_eval: np.ndarray,
    y_eval: np.ndarray,
    lam: float,
    order: tuple[int, ...] | None = None,
    epsilon: float = 0.01,
) -> RankingResult:
    """Evaluate growing prefixes of ``order`` and stop once saturated.

    ``order`` defaults to the coefficient ranking of a full fit on the
    training data, with identical columns of ``Z_train`` ranked together.
    ``y_train`` and ``lam`` are checked, and the labels centered, once per
    pass; a column of ``Z_train`` or ``Z_eval`` is checked when it first
    enters a prefix, so a non-finite entry past the last evaluated prefix
    is never read.  Each prefix is solved with the same ``lam`` by
    :func:`~pifmap.regression.ridge_fit`'s own solve, so its weights equal
    a ``ridge_fit`` of those columns bit for bit, and scored on the
    evaluation split with MAE and MSE, from one check of the pair and one
    residual; ``selected_fit`` is the fit of the selected prefix.
    """
    Z_train = np.asarray(Z_train, dtype=float)
    Z_eval = np.asarray(Z_eval, dtype=float)
    if not np.isfinite(epsilon):
        raise InvalidRange(f"epsilon must be finite, got {epsilon}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    p = Z_train.shape[1]
    if p == 0:
        raise EmptyInput("no columns to select from")
    if Z_eval.shape[1] != p:
        raise LengthMismatch(
            f"evaluation matrix has {Z_eval.shape[1]} columns, training has {p}"
        )
    if order is None:
        full_fit = ridge_fit(Z_train, y_train, lam)
        order = _rank_design_columns(full_fit, _identical_column_groups(Z_train))
    else:
        order = tuple(int(j) for j in order)
        if sorted(order) != list(range(p)):
            raise LengthMismatch(
                f"order must be a permutation of 0..{p - 1}, got {order}"
            )

    n = Z_train.shape[0]
    intercept, centered = _centered_labels(y_train, n)
    _check_lambda(lam)

    # Prefix k is the first k columns of these: one column is copied in per
    # prefix, and each prefix is Fortran-ordered, as the gather
    # Z[:, order[:k]] would return it, so its Gram rounds the same way.
    train = np.empty((n, p), order="F")
    evaluation = np.empty((Z_eval.shape[0], p), order="F")
    curve: list[CurvePoint] = []
    stop_k: int | None = None
    for k in range(1, p + 1):
        train[:, k - 1] = Z_train[:, order[k - 1]]
        _check_matrix(train[:, k - 1:k], "Z")
        weights = _ridge_weights(train[:, :k], centered, lam)
        evaluation[:, k - 1] = Z_eval[:, order[k - 1]]
        _check_matrix(evaluation[:, k - 1:k], "Z")
        predictions = evaluation[:, :k] @ weights + intercept
        point = CurvePoint(k, *_errors(y_eval, predictions, np.abs, np.square))
        curve.append(point)
        if stop_k is None and k >= 2:
            previous = curve[k - 2]
            saturated_mae = _relative_improvement(previous.mae, point.mae) < epsilon
            saturated_mse = _relative_improvement(previous.mse, point.mse) < epsilon
            if saturated_mae and saturated_mse:
                stop_k = k
        if stop_k is None:
            selected_weights = weights
        if stop_k is not None and k >= min(p, stop_k + 1):
            break

    selected_count = (stop_k - 1) if stop_k is not None else p
    # the model ridge_fit returns for the selected prefix
    selected_fit = RidgeModel(
        lam=float(lam),
        weights=selected_weights,
        intercept=intercept,
        standardization=identity_standardization(selected_count),
        feature_names=tuple(f"z{j}" for j in range(selected_count)),
    )
    return RankingResult(
        order=order,
        selected_count=selected_count,
        curve=tuple(curve),
        epsilon=float(epsilon),
        selected_fit=selected_fit,
    )


def rank_and_refit(
    model: RidgeModel,
    groups: np.ndarray,
    Z_train: np.ndarray,
    y_train: np.ndarray,
    Z_eval: np.ndarray,
    y_eval: np.ndarray,
    epsilon: float,
) -> tuple[RankingResult, dict]:
    """Greedy-rank a fitted design and destandardize the selected fit.

    ``model`` is the ridge fit of the standardized training design
    ``Z_train`` (as :func:`~pifmap.regression.fit_standardized` returns
    it), ``groups`` the :func:`_identical_column_groups` of ``Z_train`` and
    ``Z_eval`` the evaluation rows under the same standardization.  The
    columns are ranked by the model's own weights, identical columns
    together, and scored with :func:`greedy_select` at the model's
    ``lam``.  Standardization acts on each column alone, so the greedy
    fit of the selected prefix, mapped back with the model's means and
    scales, is the refit of the selected raw columns.  The reported
    coefficients are that fit at the ranking ``lam`` (``pifmap rank
    --lam``, default 1e-3), so they carry its ridge shrinkage.  Returns the
    ranking result, whose indices count the columns kept by
    standardization, and a JSON-ready document that names every column by
    the model's feature names: ``epsilon``, ``order``, ``selected``,
    ``selected_count``, ``curve``, ``coefficients`` (one per selected
    column) and ``intercept``.
    """
    result = greedy_select(
        Z_train, y_train, Z_eval, y_eval, model.lam,
        order=_rank_design_columns(model, groups), epsilon=epsilon,
    )
    names = model.feature_names
    selected = list(result.selected)
    params = model.standardization
    subset = StandardizationParams(params.means[selected], params.scales[selected],
                                   kept=tuple(range(len(selected))))
    fit = replace(result.selected_fit, standardization=subset)
    coefficients, intercept = destandardize(fit)
    document = {
        "epsilon": result.epsilon,
        "order": [names[j] for j in result.order],
        "selected": [names[j] for j in selected],
        "selected_count": result.selected_count,
        "curve": [
            {"k": point.k, "mae": point.mae, "mse": point.mse}
            for point in result.curve
        ],
        "coefficients": {
            names[j]: float(value) for j, value in zip(selected, coefficients)
        },
        "intercept": intercept,
    }
    return result, document


def curve_to_csv(result: RankingResult) -> str:
    lines = ["k,mae,mse"]
    for point in result.curve:
        lines.append(f"{point.k},{point.mae!r},{point.mse!r}")
    return "\n".join(lines) + "\n"
