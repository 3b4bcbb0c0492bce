"""Coefficient-magnitude ranking and greedy prefix selection.

Columns are ordered by decreasing absolute standardized weight (ties go
to the lower index).  The greedy pass refits the model on growing
prefixes of that order and stops at the first size ``k >= 2`` where the
relative improvement of BOTH error metrics,
``(metric(k-1) - metric(k)) / metric(k-1)``, falls below ``epsilon``;
the selected count is then ``k - 1``.  One extra prefix beyond the stop
(capped at the column count) is always evaluated so the reported curve
shows the plateau, and if no stop is ever triggered every column ends up
selected.  :func:`rank_and_refit` runs the whole step on a raw design:
standardize, rank, refit the selected columns and map the refit back to
raw-column scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyInput, LengthMismatch
from .featuremap import destandardize
from .metrics import mae, mse
from .regression import (
    RidgeModel,
    fit_standardized,
    ridge_fit,
    ridge_predict,
    standardize_apply,
)

__all__ = [
    "CurvePoint",
    "RankingResult",
    "rank_by_coefficient",
    "greedy_select",
    "rank_and_refit",
    "ranking_to_dict",
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
    training data.  Each prefix is refit from scratch with the same
    ``lam`` and scored on the evaluation split with MAE and MSE.
    """
    Z_train = np.asarray(Z_train, dtype=float)
    Z_eval = np.asarray(Z_eval, dtype=float)
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
        order = rank_by_coefficient(ridge_fit(Z_train, y_train, lam))
    else:
        order = tuple(int(j) for j in order)
        if sorted(order) != list(range(p)):
            raise LengthMismatch(
                f"order must be a permutation of 0..{p - 1}, got {order}"
            )

    curve: list[CurvePoint] = []
    stop_k: int | None = None
    for k in range(1, p + 1):
        columns = list(order[:k])
        model = ridge_fit(Z_train[:, columns], y_train, lam)
        predictions = ridge_predict(model, Z_eval[:, columns])
        point = CurvePoint(
            k=k, mae=mae(y_eval, predictions), mse=mse(y_eval, predictions)
        )
        curve.append(point)
        if stop_k is None and k >= 2:
            previous = curve[k - 2]
            saturated_mae = _relative_improvement(previous.mae, point.mae) < epsilon
            saturated_mse = _relative_improvement(previous.mse, point.mse) < epsilon
            if saturated_mae and saturated_mse:
                stop_k = k
        if stop_k is not None and k >= min(p, stop_k + 1):
            break

    selected_count = (stop_k - 1) if stop_k is not None else p
    return RankingResult(
        order=order,
        selected_count=selected_count,
        curve=tuple(curve),
        epsilon=float(epsilon),
    )


def rank_and_refit(
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_eval: np.ndarray,
    y_eval: np.ndarray,
    names: Sequence[str],
    lam: float,
    epsilon: float,
) -> tuple[RankingResult, dict]:
    """Greedy-rank the raw columns, refit the selected set, destandardize.

    The columns are standardized on the training rows and ranked with
    :func:`greedy_select`; the selected columns are then refit on the raw
    training rows and their weights mapped back to raw scale.  Returns the
    ranking result, whose indices count the columns kept by
    standardization, and a JSON-ready document that names every column
    by ``names``: ``epsilon``, ``order``, ``selected``,
    ``selected_count``, ``curve``, ``coefficients`` (one per selected
    column) and ``intercept``.
    """
    model, Z_train = fit_standardized(X_train, y_train, lam, feature_names=names)
    Z_eval = standardize_apply(X_eval, model.standardization)
    result = greedy_select(Z_train, y_train, Z_eval, y_eval, lam, epsilon=epsilon)
    kept = model.standardization.kept
    selected_columns = [kept[j] for j in result.selected]
    selected_names = [names[c] for c in selected_columns]
    refit, _ = fit_standardized(
        X_train[:, selected_columns], y_train, lam, feature_names=selected_names
    )
    coefficients, intercept = destandardize(refit)
    document = {
        "epsilon": result.epsilon,
        "order": [names[kept[j]] for j in result.order],
        "selected": selected_names,
        "selected_count": result.selected_count,
        "curve": [
            {"k": point.k, "mae": point.mae, "mse": point.mse}
            for point in result.curve
        ],
        "coefficients": {
            name: float(value)
            for name, value in zip(refit.feature_names, coefficients)
        },
        "intercept": intercept,
    }
    return result, document


def ranking_to_dict(result: RankingResult) -> dict:
    return {
        "order": list(result.order),
        "selected_count": result.selected_count,
        "epsilon": result.epsilon,
        "curve": [
            {"k": point.k, "mae": point.mae, "mse": point.mse}
            for point in result.curve
        ],
    }


def curve_to_csv(result: RankingResult) -> str:
    lines = ["k,mae,mse"]
    for point in result.curve:
        lines.append(f"{point.k},{point.mae!r},{point.mse!r}")
    return "\n".join(lines) + "\n"
