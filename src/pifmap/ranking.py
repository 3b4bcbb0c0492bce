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
to raw-column scale.  Several passes, one per label vector, run in lock
step as one stack (``_greedy_passes``), one stacked solve per prefix
size; each design of a stack of designs serves consecutive label vectors
(an experiment's seeds, each with its noise levels), and
:func:`greedy_select` and :func:`rank_and_refit` are the one-design,
one-pass case.
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
    _as_stack,
    _centered_labels,
    _check_lambda,
    _check_matrix,
    _predict,
    _ridge_weights,
    identity_standardization,
    ridge_fit,
)

__all__ = [
    "CurvePoint",
    "RankingResult",
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


# Columns whose rows differ by at most this share of their largest
# magnitude are taken for one column.
_IDENTICAL_RTOL = 1e-8

# One fixed random weight per design row that the projection below reads.
_PROBE = np.random.default_rng(0).standard_normal(64)


def _identical_column_groups(Z: np.ndarray) -> np.ndarray:
    """Label each column with the lowest index of the columns identical to it.

    Columns ``j`` and ``k`` are identical when ``max|Z_j - Z_k|`` is within
    ``rtol * max(max|Z_j|, max|Z_k|)``.  Every column's ``max|Z_j|`` is read
    from one column-wise max and min of ``Z``.  The first rows of every
    column are projected on one fixed random vector ``v``.  Identical
    columns project to within ``rtol * max|Z| * sum|v|`` of each other, so
    only columns that close in projection order are compared in every row,
    each pair through one reused n-row buffer.  Beyond its labels, memory
    is that one buffer: the ``tracemalloc`` peak on 200,000 rows of 9
    columns is under 1.1x one column of ``Z``.
    """
    magnitudes = np.maximum(Z.max(axis=0, initial=0.0), -Z.min(axis=0, initial=0.0))
    largest = float(magnitudes.max(initial=0.0))
    head = Z[:len(_PROBE)]
    v = _PROBE[:len(head)]
    projection = v @ head
    reach = _IDENTICAL_RTOL * largest * float(np.abs(v).sum())
    labels = np.arange(Z.shape[1])
    difference = np.empty(len(Z))

    by_projection = np.argsort(projection, kind="stable")
    for a, j in enumerate(by_projection):
        for k in by_projection[a + 1:]:
            if projection[k] - projection[j] > reach:
                break
            if labels[j] == labels[k]:
                continue
            limit = _IDENTICAL_RTOL * max(magnitudes[j], magnitudes[k])
            np.subtract(Z[:, j], Z[:, k], out=difference)
            if max(difference.max(initial=0.0), -difference.min(initial=0.0)) <= limit:
                low = min(labels[j], labels[k])
                labels[(labels == labels[j]) | (labels == labels[k])] = low
    return labels


def _rank_design_columns(model: RidgeModel, labels: np.ndarray) -> tuple[int, ...]:
    """Column indices by |weight| descending, index ascending on ties.

    Each column takes the largest |weight| of its ``labels`` group (see
    :func:`_identical_column_groups`), so a group ranks as one, in index order.
    """
    weights = np.abs(np.asarray(model.weights, dtype=float))
    if weights.size == 0:
        raise EmptyInput("model has no weights to rank")
    shared = np.zeros(weights.size)
    np.maximum.at(shared, labels, weights)
    values = shared[labels].tolist()
    return tuple(sorted(range(len(values)), key=lambda j: (-values[j], j)))


def _relative_improvement(previous: float, current: float) -> float:
    # A perfect previous score cannot be improved; treat as saturated.
    if previous == 0.0:
        return 0.0
    return (previous - current) / previous


def _pass_inputs(Z_train, Z_eval, epsilon) -> tuple[np.ndarray, np.ndarray]:
    """The designs of a greedy pass, or stacks of them, checked for their
    column counts, and a checked ``epsilon``."""
    Z_train = np.asarray(Z_train, dtype=float)
    Z_eval = np.asarray(Z_eval, dtype=float)
    if not np.isfinite(epsilon):
        raise InvalidRange(f"epsilon must be finite, got {epsilon}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    p = Z_train.shape[-1]
    if p == 0:
        raise EmptyInput("no columns to select from")
    if Z_eval.shape[-1] != p:
        raise LengthMismatch(
            f"evaluation matrix has {Z_eval.shape[-1]} columns, training has {p}"
        )
    return Z_train, Z_eval


def _greedy_passes(
    Z_train: np.ndarray,
    y_train: np.ndarray,
    Z_eval: np.ndarray,
    y_eval: np.ndarray,
    lam: float,
    orders: list[tuple[int, ...]],
    epsilon: float,
) -> list[RankingResult]:
    """Greedy passes in lock step, one per label vector, over a stack of designs.

    ``Z_train`` is ``(designs, n, p)`` and ``Z_eval`` ``(designs, m, p)``,
    ``y_train`` is ``(items, n)`` and ``y_eval`` ``(items, m)``, and
    ``orders`` holds one column order per item.  ``items`` is a multiple
    of ``designs``: consecutive items share a design, ``items // designs``
    each (an experiment's seeds, each with its noise levels), and a
    one-design caller passes ``Z[None]``, a view.
    Each prefix size is one stacked solve of every item whose pass has not
    ended; an item whose pass ends leaves the stack, so no item computes a
    prefix its own pass would not.  Item ``i``'s prefix buffer is
    Fortran-ordered, as the gather ``Z[:, order[:k]]`` of its design would
    return it, and its Gram, right-hand side, predictions and error sums
    are the arrays a pass of that item alone forms, so its result equals
    that pass bit for bit.  An error is raised at the first prefix size
    where any item fails, by that size's one stacked solve, as
    :func:`~pifmap.regression._solve_normal_equations` orders its checks:
    where ``lam`` lifts every Gram, as in the experiments, it is the
    error the first failing item's own pass raises.
    """
    designs, n, p = Z_train.shape
    m = Z_eval.shape[1]
    for order in orders:
        if sorted(order) != list(range(p)):
            raise LengthMismatch(
                f"order must be a permutation of 0..{p - 1}, got {order}"
            )
    intercepts, centered = _centered_labels(y_train, n)
    _check_lambda(lam)
    y_eval = np.array(y_eval, dtype=float)
    items = len(orders)
    if y_eval.shape != (items, m):
        raise LengthMismatch(f"shapes differ: {y_eval.shape[1:]} vs {(m,)}")
    intercept_values = intercepts.tolist()
    per_design = items // designs
    train_designs, eval_designs = list(Z_train), list(Z_eval)
    # Per-item state, compacted in place as passes end: slot s holds item
    # live_items[s], and row j of its buffers is column j of its prefix.
    train = np.empty((items, p, n))
    evaluation = np.empty((items, p, m))
    live_items = list(range(items))
    curves: list[list[CurvePoint]] = [[] for _ in orders]
    stops: list[int | None] = [None] * items
    selected_weights: list = [None] * items
    for k in range(1, p + 1):
        live = len(live_items)
        entering = [(item // per_design, orders[item][k - 1]) for item in live_items]
        for slot, (design, j) in enumerate(entering):
            train[slot, k - 1] = train_designs[design][:, j]
        _check_matrix(train[:live, k - 1], "Z")
        weights = _ridge_weights(np.swapaxes(train[:live, :k], 1, 2),
                                 centered[:live], lam)
        for slot, (design, j) in enumerate(entering):
            evaluation[slot, k - 1] = eval_designs[design][:, j]
        _check_matrix(evaluation[:live, k - 1], "Z")
        predictions = _predict(np.swapaxes(evaluation[:live, :k], 1, 2), weights,
                               intercepts[:live])
        maes, mses = _errors(y_eval[:live], predictions, np.abs, np.square, axis=-1)
        ended = []
        for slot, (item, mae, mse) in enumerate(zip(live_items, maes.tolist(),
                                                    mses.tolist())):
            curve = curves[item]
            point = CurvePoint(k, mae, mse)
            curve.append(point)
            if stops[item] is None and k >= 2:
                previous = curve[k - 2]
                saturated_mae = _relative_improvement(previous.mae, point.mae) < epsilon
                saturated_mse = _relative_improvement(previous.mse, point.mse) < epsilon
                if saturated_mae and saturated_mse:
                    stops[item] = k
            if stops[item] is None:
                selected_weights[item] = weights[slot]
            elif k >= min(p, stops[item] + 1):
                ended.append(slot)
        if ended:
            kept = [slot for slot in range(live) if slot not in ended]
            for new, old in enumerate(kept):
                if new != old:
                    for state in (train, evaluation, centered, intercepts, y_eval):
                        state[new] = state[old]
            live_items = [live_items[slot] for slot in kept]
            if not live_items:
                break

    results = []
    for item, order in enumerate(orders):
        count = (stops[item] - 1) if stops[item] is not None else p
        # the model ridge_fit returns for the selected prefix
        selected_fit = RidgeModel(
            lam=float(lam),
            weights=selected_weights[item],
            intercept=intercept_values[item],
            standardization=identity_standardization(count),
            feature_names=tuple(f"z{j}" for j in range(count)),
        )
        results.append(RankingResult(
            order=order,
            selected_count=count,
            curve=tuple(curves[item]),
            epsilon=float(epsilon),
            selected_fit=selected_fit,
        ))
    return results


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
    residual; ``selected_fit`` is the fit of the selected prefix.  This is
    the one-pass case of the lock-step passes :func:`rank_and_refit` and
    the experiments run.
    """
    Z_train, Z_eval = _pass_inputs(Z_train, Z_eval, epsilon)
    if order is None:
        full_fit = ridge_fit(Z_train, y_train, lam)
        order = _rank_design_columns(full_fit, _identical_column_groups(Z_train))
    else:
        order = tuple(int(j) for j in order)
    return _greedy_passes(Z_train[None], _as_stack(y_train), Z_eval[None],
                          _as_stack(y_eval), lam, [order], epsilon)[0]


def _ranked_refits(
    models: list[RidgeModel],
    Z_train: np.ndarray,
    y_train: np.ndarray,
    Z_eval: np.ndarray,
    y_eval: np.ndarray,
    epsilon: float,
) -> list[tuple[RankingResult, dict]]:
    """:func:`rank_and_refit` of each design of a stack for each of its label vectors.

    ``Z_train`` is ``(designs, n, p)`` and ``Z_eval`` ``(designs, m, p)``,
    each grouped once by :func:`_identical_column_groups`.  ``models``
    holds one fit per item, all at one ``lam``, ``y_train`` is ``(items,
    n)`` and ``y_eval`` ``(items, m)``; consecutive items share a design as
    in :func:`_greedy_passes`, whose lock-step passes rank them.  Each
    item's result equals its own ``rank_and_refit`` bit for bit.

    Beyond its inputs (and the grouping's n-row buffer, let go before the
    passes) the rank holds, for ``L`` items (seeds times noise levels in an
    experiment) and ``p``-column designs of ``n`` training and ``m``
    evaluation rows, one train and one evaluation prefix buffer per item
    (``L * (n + m) * p`` doubles), the centered training labels and a copy
    of the evaluation labels (``L * (n + m)``), and per prefix size a few
    ``(L, m)`` temporaries: ranking 200,000 ``pulsar`` rows at three noise
    levels, its ``tracemalloc`` peak is under 1.15x those buffers and
    labels.
    """
    Z_train, Z_eval = _pass_inputs(Z_train, Z_eval, epsilon)
    groups = [_identical_column_groups(Z) for Z in Z_train]
    per_design = len(models) // len(groups)
    orders = [_rank_design_columns(model, groups[item // per_design])
              for item, model in enumerate(models)]
    results = _greedy_passes(Z_train, y_train, Z_eval, y_eval, models[0].lam,
                             orders, epsilon)
    return [(result, _refit_document(model, result))
            for model, result in zip(models, results)]


def _refit_document(model: RidgeModel, result: RankingResult) -> dict:
    """The JSON-ready document of :func:`rank_and_refit` for one result."""
    names = model.feature_names
    selected = list(result.selected)
    params = model.standardization
    subset = StandardizationParams(params.means[selected], params.scales[selected],
                                   kept=tuple(range(len(selected))))
    fit = replace(result.selected_fit, standardization=subset)
    coefficients, intercept = destandardize(fit)
    return {
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


def rank_and_refit(
    model: RidgeModel,
    Z_train: np.ndarray,
    y_train: np.ndarray,
    Z_eval: np.ndarray,
    y_eval: np.ndarray,
    epsilon: float,
) -> tuple[RankingResult, dict]:
    """Greedy-rank a fitted design and destandardize the selected fit.

    ``model`` is the ridge fit of the standardized training design
    ``Z_train`` (as :func:`~pifmap.regression.fit_standardized` returns
    it) and ``Z_eval`` the evaluation rows under the same standardization.
    The columns are ranked by the model's own weights, identical columns
    of ``Z_train`` together, and scored with :func:`greedy_select` at the
    model's ``lam``.  Standardization acts on each column alone, so the
    greedy fit of the selected prefix, mapped back with the model's means
    and scales, is the refit of the selected raw columns.  The reported
    coefficients are that fit at the ranking ``lam`` (``pifmap rank
    --lam``, default 1e-3), so they carry its ridge shrinkage.  Returns the
    ranking result, whose indices count the columns kept by
    standardization, and a JSON-ready document that names every column by
    the model's feature names: ``epsilon``, ``order``, ``selected``,
    ``selected_count``, ``curve``, ``coefficients`` (one per selected
    column) and ``intercept``.
    """
    return _ranked_refits([model], np.asarray(Z_train, dtype=float)[None],
                          _as_stack(y_train), np.asarray(Z_eval, dtype=float)[None],
                          _as_stack(y_eval), epsilon)[0]


def curve_to_csv(result: RankingResult) -> str:
    lines = ["k,mae,mse"]
    for point in result.curve:
        lines.append(f"{point.k},{point.mae!r},{point.mse!r}")
    return "\n".join(lines) + "\n"
