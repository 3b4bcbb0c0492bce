"""Standardization and ridge regression with an unpenalized intercept.

The intercept is handled by centering: ``b0 = mean(y)`` and the weights
solve ``(Z'Z + lambda I) b = Z'(y - b0)`` by an LU factorization with
partial pivoting (LAPACK ``gesv`` through ``np.linalg.solve``); no matrix
inverse is ever formed.  When ``lambda`` is zero or below the rounding of
the Gram's diagonal, a Cholesky factorization of ``Z'Z + lambda I`` first
checks that it is numerically positive definite, because LU alone accepts
a consistent rank-deficient system; a larger ``lambda`` makes the system
positive definite.  A residual check guards against a factorization that
silently lost accuracy: if the normal equations are not satisfied to 1e-8
relative, the fit raises instead of returning garbage.  The solve, both
checks and the finite-weights check live in one helper,
:func:`_solve_normal_equations`, which solves a stack of systems in one
call, failing or not; each check raises the error of its first failing
item, and an overflow is reported by the check it fails, not warned of.
Every ridge fit and greedy prefix reaches it through ``_ridge_weights``,
which forms the Gram and right-hand side, and :func:`select_lambda`
falls back to it.
``_ridge_fits`` fits a stack of designs, each to its own stack of label
vectors (an experiment's seeds, each with its noise levels), with one
Gram per design and one stacked solve; :func:`ridge_fit` is its
one-design, one-item case, and each item equals a ``ridge_fit`` of its
own design and labels bit for bit.

Inputs are checked once each, by one helper per kind: ``_check_matrix``
(2-d, every entry finite) for every design a public function takes,
``_check_finite`` for the training rows ``_standardized`` takes and the
evaluation stacks ``_ridge_predictions`` takes, ``_check_labels`` (one
finite label per row of each item) for the labels and ``_check_lambda``
(finite, non-negative) for each ridge strength.  A non-finite entry
raises :class:`~pifmap.errors.NonFiniteInput`, and finite entries pass
however large their sum.  :func:`standardize_fit` sums every column
anyway, and a column with a non-finite entry has a non-finite sum, so it
runs ``_check_matrix``'s entry test only when a sum is not finite.  The
training designs ``_standardized`` returns are finite by construction,
so the private ``_ridge_fits`` and ``_select_lambda`` fit them unchecked.

Most fits in a run are small (hundreds of rows, a few columns), so their
time is the fixed cost of each numpy call, not arithmetic.  The code takes
the cheapest call that gives the same bits: ``mean(y)`` is one pairwise
sum and one division (``np.mean``'s own steps) and a vector norm is
``math.sqrt(v @ v)`` (``np.linalg.norm``'s, for a real vector).

A fit's design stays column-major from
:func:`~pifmap.featuremap.evaluate_map` to the Gram: ``_standardized``
standardizes a stack of designs (an experiment's seeds) on their first
rows in one flow for every layout, centering each row once into
column-major stacks and scaling it there, with the bits of
``X.mean(axis=0)`` and ``X.std(axis=0)`` for the layout passed;
:func:`standardize_fit` is its one-design case.  The stacks are new
arrays, or, for a caller that hands over one column-major design it never
reads again (the command line's ``fit --spec`` and ``rank``), that
design's own rows, with the same bits.

:func:`select_lambda` forms the training Gram ``G = Z'Z``, the right-hand
side and ``mean(y)`` once per grid and eigendecomposes ``G`` once
(``np.linalg.eigh``), the SVD route to ridge (Hoerl & Kennard 1970; Golub,
Heath & Wahba 1979), so each grid value costs two ``p x p``
matrix-vector products, not an ``O(p^3)`` factorization.  Each value's
weights keep the finite check and the 1e-8 residual bound; a value that
fails either, or lies at or below the Gram's rounding, is solved by
:func:`_solve_normal_equations` instead.  Where ``p >= n_train``, or
``lambda`` is near the Gram's rounding, the choice can differ from an LU
refit per value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    ColumnMismatch,
    DroppedColumnWarning,
    EmptyInput,
    InsufficientData,
    InvalidRange,
    NonFiniteInput,
    NonFiniteResult,
    SingularSystem,
)
from .featuremap import _exact_floats, _exact_ints

__all__ = [
    "DEFAULT_LAMBDA",
    "DEFAULT_LAMBDA_GRID",
    "StandardizationParams",
    "RidgeModel",
    "standardize_fit",
    "standardize_apply",
    "identity_standardization",
    "ridge_fit",
    "ridge_predict",
    "fit_standardized",
    "select_lambda",
    "classify",
    "model_to_dict",
    "model_from_dict",
]

#: Ridge strength used when selection is not requested.
DEFAULT_LAMBDA: float = 1e-3

#: Ten logarithmically spaced candidates for validation-based selection.
DEFAULT_LAMBDA_GRID: tuple[float, ...] = tuple(
    float(x) for x in np.logspace(-6.0, 2.0, 10)
)

# select_lambda validates on this share of the rows, taken from the end.
_VALIDATION_FRACTION = 0.3

# A column counts as constant when its population standard deviation is
# zero to within this relative tolerance of the mean magnitude.
_ZERO_SCALE_RTOL = 1e-12

# Standardization squares a column-major stack's centered columns, or a
# row-major stack's centered rows, into a buffer of at most this many bytes
# (or one column or two rows per design, if that is larger).
_SQUARES_BYTES = 1 << 18

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class StandardizationParams:
    """Per-column means and scales for the columns that were kept."""

    means: np.ndarray
    scales: np.ndarray
    kept: tuple[int, ...]
    dropped: tuple[int, ...] = ()

    @property
    def n_input_columns(self) -> int:
        return len(self.kept) + len(self.dropped)


def _as_matrix(X: np.ndarray, name: str = "X") -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {X.shape}")
    return X


def _check_finite(X: np.ndarray, name: str) -> np.ndarray:
    if not np.isfinite(X).all():
        raise NonFiniteInput(f"{name} contains non-finite values")
    return X


def _check_matrix(X: np.ndarray, name: str = "X") -> np.ndarray:
    return _check_finite(_as_matrix(X, name), name)


def _as_stack(y) -> np.ndarray:
    """One label vector as a stack of one, ``(1, ...)``."""
    return np.asarray(y, dtype=float)[None]


def _check_labels(y: np.ndarray, n: int) -> np.ndarray:
    """A stack of label vectors ``(items, n)``: one finite label per row of each.

    A one-item caller passes :func:`_as_stack` of its labels; the message
    names the shape of one item's labels.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[1] != n:
        raise ValueError(f"y shape {y.shape[1:]} does not match {n} rows")
    if not np.isfinite(y).all():
        raise NonFiniteInput("y contains non-finite values")
    return y


def _column_sums_of_squares(centered: np.ndarray) -> np.ndarray:
    """``np.add.reduce(np.square(centered), axis=0)`` for a Fortran-ordered
    ``centered``, bit for bit.

    The columns are squared a few at a time into one reused buffer of at
    most ``_SQUARES_BYTES`` (or one column), and each column sums pairwise
    down its contiguous run.
    """
    n, p = centered.shape
    width = max(min(_SQUARES_BYTES // (8 * n), p), 1)
    squares = np.empty((n, width), order="F")
    sums = np.empty(p)
    for start in range(0, p, width):
        block = centered[:, start:start + width]
        np.add.reduce(np.square(block, out=squares[:, :block.shape[1]]), axis=0,
                      out=sums[start:start + width])
    return sums


def _row_major_sums_of_squares(X: np.ndarray, means: np.ndarray) -> np.ndarray:
    """``np.add.reduce(np.square(X - means[:, None]), axis=1)`` for a stack
    of row-major designs ``(designs, n, p)``, bit for bit, with no centered
    copy.

    That sum adds each design's rows in order, so a block of rows at a time
    is centered and squared into rows ``1:`` of one reused C-ordered buffer
    of at most ``_SQUARES_BYTES`` (or two rows per design), whose row 0
    carries the running column sums: reducing the buffer goes on with each
    column's sum in the same order.
    """
    designs, n, p = X.shape
    rows = min(max(_SQUARES_BYTES // (8 * designs * p) - 1, 1), n)
    buffer = np.zeros((designs, rows + 1, p))
    sums = np.empty((designs, p))
    for start in range(0, n, rows):
        block = X[:, start:start + rows]
        squares = buffer[:, 1:block.shape[1] + 1]
        np.square(np.subtract(block, means[:, None], out=squares), out=squares)
        np.add.reduce(buffer[:, :block.shape[1] + 1], axis=1, out=sums)
        buffer[:, 0] = sums
    return sums


def _standardized(
    X: np.ndarray, k: int, *, overwrite: bool = False
) -> tuple[np.ndarray, np.ndarray, list[StandardizationParams]]:
    """:func:`standardize_fit` of each design of a stack ``(designs, n, p)``
    on its first ``k >= 2`` rows, and :func:`standardize_apply` of the
    fitted parameters to its other rows, bit for bit.

    Returns the training stack ``(designs, k, p)`` and the evaluation stack
    ``(designs, n - k, p)``, whose items are Fortran-ordered, and each
    design's parameters.  A stack of several designs with a constant
    column raises :class:`~pifmap.errors.ColumnMismatch` and warns nothing,
    since its designs would keep different columns.  The evaluation rows
    are not checked: a non-finite one standardizes to a non-finite row.

    Every layout takes one flow.  The two output stacks are picked first:
    two new column-major arrays, or, with ``overwrite`` on one column-major
    design that a caller never reads again, ``X``'s own leading ``k`` and
    trailing ``n - k`` rows, so that no second ``n x p`` design is held.
    A row-major ``X``'s squares are summed in row order before anything is
    written.  The training rows are then centered into their stack, whose
    columns give a non-row-major ``X``'s sums.  A dropped column's kept
    ones move forward in the training stack, and in ``X`` when it is
    overwritten; the evaluation rows are then centered from there, or
    from ``X``'s kept columns, and both stacks are scaled.  A non-finite
    training entry still raises before ``X`` is written; a later error
    leaves it partly standardized.  Every value is the same bit whichever
    the stacks, since each step works entry by entry and the squares are
    summed from the same buffer.  A row-major design is never
    overwritten: its ``Z`` is written column-major, as the Gram, Z'y and
    the predictions round according to that layout.

    Every entry of a training stack returned is finite, so its fits need
    no check of their own: finite means and scales bound every centered
    entry.  A non-finite training entry makes its column's mean non-finite
    and raises, and a centered entry ``c`` adds ``c**2`` to its column's
    sum of squares ``k * scale**2``, so ``|c| <= sqrt(k) * scale`` and the
    standardized entry ``c / scale`` (``scale > 0`` for a kept column)
    lies within ``sqrt(k)`` of 0.
    """
    designs, n, p = X.shape
    in_place = overwrite and designs == 1 and X[0].flags.f_contiguous
    row_major = p > 1 and abs(X.strides[2]) < abs(X.strides[1])
    if in_place:
        Z_train, Z_eval = X[:, :k], X[:, k:]
    else:
        Z_train, Z_eval = (np.empty((designs, p, rows)).transpose(0, 2, 1)
                           for rows in (k, n - k))
    # overflow is reported as NonFiniteResult below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        means = np.add.reduce(X[:, :k], axis=1) / k
        if not np.isfinite(means).all():
            # a non-finite entry, or finite ones whose sum overflows
            _check_finite(X[:, :k], "X")
        if row_major:
            sums = _row_major_sums_of_squares(X[:, :k], means)
        np.subtract(X[:, :k], means[:, None], out=Z_train)
        if not row_major:
            columns = Z_train.transpose(0, 2, 1).reshape(-1, k).T
            sums = _column_sums_of_squares(columns).reshape(designs, p)
        # population (1/n) convention
        scales = np.sqrt(sums / k)
    if not np.isfinite(scales).all():
        column = int(np.argwhere(~np.isfinite(scales))[0][1])
        raise NonFiniteResult(
            f"column {column} is too large to standardize: its standard "
            "deviation overflows"
        )
    constant = scales <= _ZERO_SCALE_RTOL * np.abs(means)
    kept, dropped = range(p), ()
    rest = X[:, k:]
    if constant.any():
        if designs > 1:
            raise ColumnMismatch("the designs of a stack drop constant columns")
        kept = np.flatnonzero(~constant[0]).tolist()
        dropped = np.flatnonzero(constant[0]).tolist()
        warnings.warn(
            f"dropping constant columns {dropped} (zero variance)",
            DroppedColumnWarning,
            stacklevel=3,
        )
        means, scales = means[:, kept], scales[:, kept]
        # in order, each to a slot at or before its own: none is
        # overwritten before it moves; X's evaluation rows move with its
        # training rows
        moved = X if in_place else Z_train
        for to, column in enumerate(kept):
            if to != column:
                moved[:, :, to] = moved[:, :, column]
        Z_train, Z_eval = Z_train[:, :, :len(kept)], Z_eval[:, :, :len(kept)]
        rest = Z_eval if in_place else X[:, k:, kept]
    params = [StandardizationParams(means=m, scales=s, kept=tuple(kept),
                                    dropped=tuple(dropped))
              for m, s in zip(means, scales)]
    # outside the errstate above, so an overflow here warns, as
    # standardize_apply's does
    np.subtract(rest, means[:, None], out=Z_eval)
    np.divide(Z_train, scales[:, None], out=Z_train)
    np.divide(Z_eval, scales[:, None], out=Z_eval)
    return Z_train, Z_eval, params


def standardize_fit(X: np.ndarray) -> tuple[np.ndarray, StandardizationParams]:
    """Center and scale columns to zero mean and unit population variance.

    Columns whose standard deviation is zero (to 1e-12 relative of the
    mean magnitude) carry no information at this scale; they are dropped
    with a :class:`~pifmap.errors.DroppedColumnWarning` and recorded in
    ``params.dropped`` so later matrices can be sliced consistently.  A
    non-finite entry raises :class:`~pifmap.errors.NonFiniteInput`, before
    any other error but a design that is not 2-d; a finite column whose
    values are too large for its variance to be finite raises
    :class:`~pifmap.errors.NonFiniteResult`.

    Every design is centered once, into a new Fortran-ordered ``Z``, and
    scaled there, with no transposing copy; a row-major one is first
    centered a block of rows at a time to sum its squares in row order.
    ``Z`` never shares memory with ``X``.  The means are taken by the steps
    of ``np.mean`` (sum over rows, divide by ``n``) and the scales from the
    centered matrix by those of ``np.std`` (square, sum over rows, divide by
    ``n``, square root), so they equal ``X.mean(axis=0)`` and
    ``X.std(axis=0)`` bit for bit for the array as passed.  Beyond ``Z``, a
    design with no dropped column needs one buffer of squares, at most 256
    KiB or one column (two rows if row-major): at 200,000 rows and 9
    columns, the ``tracemalloc`` peak of a column-major design is under
    1.15x ``Z`` and of a row-major one under 1.05x ``Z``.  A dropped column
    costs no copy: the kept columns move forward in ``Z``'s buffer.
    """
    X = _as_matrix(X)
    n = X.shape[0]
    if n < 2:
        _check_matrix(X)
        raise InsufficientData(f"standardization needs at least 2 rows, got {n}")
    Z, _, (params,) = _standardized(X[None], n)
    return Z[0], params


def standardize_apply(X: np.ndarray, params: StandardizationParams) -> np.ndarray:
    """Apply previously fitted means/scales (e.g. to a test split)."""
    X = _check_matrix(X)
    if X.shape[1] != params.n_input_columns:
        raise ColumnMismatch(
            f"matrix has {X.shape[1]} columns, parameters expect "
            f"{params.n_input_columns}"
        )
    if params.dropped:
        X = X[:, list(params.kept)]
    # Fortran-ordered, as standardize_fit returns Z
    Z = np.subtract(X, params.means, out=np.empty(X.shape, order="F"))
    return np.divide(Z, params.scales, out=Z)


def identity_standardization(p: int) -> StandardizationParams:
    """Parameters that leave a ``p``-column matrix unchanged."""
    return StandardizationParams(
        means=np.zeros(p), scales=np.ones(p), kept=tuple(range(p))
    )


@dataclass(frozen=True)
class RidgeModel:
    """Fitted ridge weights plus everything needed to replay the pipeline."""

    lam: float
    weights: np.ndarray
    intercept: float
    standardization: StandardizationParams
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.feature_names) != len(self.weights):
            raise ColumnMismatch(
                f"{len(self.feature_names)} names for {len(self.weights)} weights"
            )


def _check_lambda(lam: float) -> None:
    if not np.isfinite(lam):
        raise InvalidRange(f"lam must be finite, got {lam}")
    if lam < 0:
        raise ValueError(f"lam must be non-negative, got {lam}")


def _gram_rounding(diagonal: np.ndarray) -> np.ndarray:
    """``p * eps`` times the largest entry of each ``p x p`` Gram's diagonal.

    A ridge strength at or below this does not lift the Gram above its own
    rounding, so it does not make the system positive definite.
    """
    return diagonal.shape[-1] * _EPS * diagonal.max(axis=-1)


def _row_dots(v: np.ndarray) -> np.ndarray:
    """``v @ v`` for each vector along the last axis of ``v``."""
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


def _within_residual_bound(residual: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Whether each normal-equation residual is within 1e-8 of its ``|rhs|``.

    Vectors lie along the last axis; a non-finite residual is never within
    the bound.
    """
    # the square root of v @ v is what np.linalg.norm computes for a real vector
    limit = 1e-8 * np.maximum(np.sqrt(_row_dots(rhs)), _TINY)
    norm = np.sqrt(_row_dots(residual))
    # an overflowing rhs @ rhs makes the limit inf, which an inf norm meets
    return np.isfinite(norm) & (norm <= limit)


def _solve_normal_equations(
    gram: np.ndarray, rhs: np.ndarray, lam: float
) -> np.ndarray:
    """Solve ``(gram + lam*I) @ b = rhs`` by LU and check the residual.

    ``rhs`` is one right-hand side ``(p,)`` or a stack ``(..., p)``, and
    ``gram`` one ``(p, p)`` Gram or a stack ``(..., p, p)`` whose leading
    axes broadcast against ``rhs``'s, so one Gram can serve many items.
    ``np.linalg.solve`` (LAPACK ``gesv``) solves every item alone, so each
    item's weights equal its own solve bit for bit.  When ``lam`` is at
    most ``p * eps`` times the largest diagonal entry of an item's ``gram``
    it does not lift that system above rounding, so ``np.linalg.cholesky``
    first checks that ``gram + lam*I`` is numerically positive definite:
    each squared pivot over its diagonal entry, the share of that column's
    squared norm the earlier columns leave unexplained, must exceed
    ``p * eps`` (LAPACK ``pstrf``'s default rank tolerance, taken per
    column so column scale does not matter).  A rank-deficient Gram leaves
    rounding there, not zero, and whether rounding comes out positive
    depends on the LAPACK build.  A larger ``lam`` makes the system
    positive definite.

    Raises :class:`~pifmap.errors.SingularSystem`.  The stack is solved
    at most once, failing or not, and each check in turn raises for its
    first failing item in the C order of the leading axes: the
    definiteness check; the solve, whose exactly singular system names no
    item; and the 1e-8 residual bound, whose first failing item raises
    "non-finite weights" if its weights are non-finite and "residual
    exceeds" otherwise.  Where ``lam`` lifts every Gram, the error is the
    one the first failing item raises alone.
    """
    p = gram.shape[-1]
    # gram + lam*I with no identity formed: a matmul sums from +0.0, so no
    # Gram entry is -0.0 and adding lam*0.0 off the diagonal changes no bit
    system = gram.copy()
    diagonal = system.reshape(*system.shape[:-2], p * p)[..., ::p + 1]
    unlifted = lam <= _gram_rounding(diagonal)
    diagonal += lam
    try:
        if unlifted.any():
            for checked in system[unlifted]:
                pivots = np.linalg.cholesky(checked).diagonal() ** 2
                if (pivots <= p * _EPS * checked.diagonal()).any():
                    raise SingularSystem(
                        "normal equations are singular: the Gram is not "
                        "numerically positive definite"
                    )
        solution = np.linalg.solve(system, rhs[..., None])
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"normal equations are singular: {exc}") from exc
    weights = solution[..., 0]
    # an overflow fails the bound below, which reports it
    with np.errstate(over="ignore", invalid="ignore"):
        within = _within_residual_bound((system @ solution)[..., 0] - rhs, rhs)
    if not within.all():
        # a non-finite weight makes every entry of its residual non-finite,
        # so only an item outside the bound needs the finite test
        first = np.unravel_index(np.argmin(within), within.shape)
        if not np.isfinite(weights[first]).all():
            raise SingularSystem("solver produced non-finite weights")
        raise SingularSystem(
            "normal-equation residual exceeds 1e-8 relative; the system "
            "is too ill-conditioned to trust"
        )
    return weights


def _centered_labels(y: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Checked labels of ``n``-row fits as ``mean(y)`` and ``y - mean(y)``.

    ``y`` is ``(items, n)``, one label vector per fit; there is one mean
    per item.
    """
    y = _check_labels(y, n)
    if n == 0:
        raise EmptyInput("cannot fit on zero rows")
    # the steps of np.mean: one pairwise sum, one division
    intercepts = y.sum(axis=1) / n
    return intercepts, y - intercepts[:, None]


def _ridge_weights(Z: np.ndarray, centered: np.ndarray, lam: float) -> np.ndarray:
    """Solve ``(Z'Z + lam*I) b = Z'centered`` for each item of a checked stack.

    The one solve of every ridge fit and greedy prefix.  ``Z`` is a stack
    of designs ``(designs, n, p)`` and ``centered`` ``(items, n)``, where
    ``items`` is a multiple of ``designs`` and consecutive items share a
    design, ``items // designs`` each.  Each design's Gram is formed once,
    the same array its own ``Z.T @ Z`` gives, and ``np.linalg.solve``
    broadcasts it over that design's items.  A design with no columns has
    no weights.  Returns ``(items, p)``.
    """
    designs, n, p = Z.shape
    if not p:
        return np.zeros((len(centered), 0))
    Zt = np.swapaxes(Z, -1, -2)
    # an overflow fails a check of the solve, which reports it
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = (Zt[:, None] @ centered.reshape(designs, -1, n, 1))[..., 0]
        gram = Zt @ Z
    return _solve_normal_equations(gram[:, None], rhs, lam).reshape(-1, p)


def _predict(Z: np.ndarray, weights: np.ndarray, intercepts) -> np.ndarray:
    """``Z @ weights + intercept`` for each item: ``Z`` is ``(designs, m, p)``
    and ``weights`` ``(items, p)``, consecutive items sharing a design as in
    :func:`_ridge_weights`.  Returns ``(items, m)``."""
    designs, m, p = Z.shape
    products = Z[:, None] @ weights.reshape(designs, len(weights) // designs, p, 1)
    return products.reshape(len(weights), m) + np.asarray(intercepts)[:, None]


def _ridge_fits(
    Z: np.ndarray,
    y: np.ndarray,
    lam: float,
    *,
    feature_names: Sequence[Sequence[str]] | None = None,
    standardizations: Sequence[StandardizationParams] | None = None,
) -> list[RidgeModel]:
    """:func:`ridge_fit` of each design of a stack to each of its label vectors.

    ``Z`` is ``(designs, n, p)`` and ``y`` ``(items, n)``; consecutive
    items share a design, ``items // designs`` each, and
    ``feature_names`` and ``standardizations`` hold one entry per design.
    ``lam`` is checked once for the whole stack and each design's Gram is
    formed once; each model equals a ``ridge_fit`` of its
    own design and labels bit for bit.  Returns one model per item, in
    order.  ``Z`` is not checked: a caller passes a design it checked, or
    stacks that :func:`_standardized` made (see there why they are finite).
    """
    designs, n, p = Z.shape
    intercepts, centered = _centered_labels(y, n)
    _check_lambda(lam)
    weights = _ridge_weights(Z, centered, lam)
    names = ([tuple(column_names) for column_names in feature_names]
             if feature_names is not None
             else [tuple(f"z{j}" for j in range(p))] * designs)
    params = (standardizations if standardizations is not None
              else [identity_standardization(p)] * designs)
    per_design = len(weights) // designs
    return [
        RidgeModel(lam=float(lam), weights=w, intercept=b,
                   standardization=params[item // per_design],
                   feature_names=names[item // per_design])
        for item, (w, b) in enumerate(zip(weights, intercepts.tolist()))
    ]


def _ridge_predictions(models: Sequence[RidgeModel], Z: np.ndarray) -> np.ndarray:
    """:func:`ridge_predict` of each model on its design, one row per model.

    ``Z`` is a stack ``(designs, m, p)`` shared by consecutive models as in
    :func:`_ridge_fits`, and is checked once; every model has ``p``
    weights.
    """
    Z = _check_finite(Z, "Z")
    if Z.shape[-1] != len(models[0].weights):
        raise ColumnMismatch(
            f"matrix has {Z.shape[-1]} columns, model has {len(models[0].weights)} weights"
        )
    weights = np.array([model.weights for model in models])
    return _predict(Z, weights, [model.intercept for model in models])


def ridge_fit(
    Z: np.ndarray,
    y: np.ndarray,
    lam: float = DEFAULT_LAMBDA,
    *,
    feature_names: Sequence[str] | None = None,
    standardization: StandardizationParams | None = None,
) -> RidgeModel:
    """Solve ``(Z'Z + lam*I) b = Z'(y - mean(y))`` by LU.

    ``lam`` must be finite and non-negative.  It may be zero, in which
    case the design must have full column rank; a rank-deficient or
    numerically unreliable system raises
    :class:`~pifmap.errors.SingularSystem`.
    """
    return _ridge_fits(
        _check_matrix(Z, "Z")[None], _as_stack(y), lam,
        feature_names=None if feature_names is None else [feature_names],
        standardizations=None if standardization is None else [standardization],
    )[0]


def ridge_predict(model: RidgeModel, Z: np.ndarray) -> np.ndarray:
    return _ridge_predictions([model], _as_matrix(Z, "Z")[None])[0]


def fit_standardized(
    X: np.ndarray,
    y: np.ndarray,
    lam: float = DEFAULT_LAMBDA,
    *,
    feature_names: Sequence[str] | None = None,
) -> tuple[RidgeModel, np.ndarray]:
    """Standardize ``X`` and fit in one step; the model keeps the params.

    Returns the model and the standardized design so callers can reuse it.
    Column names follow the kept columns when any were dropped.
    """
    Z, params = standardize_fit(X)
    if feature_names is not None:
        if len(feature_names) != params.n_input_columns:
            raise ColumnMismatch(
                f"{len(feature_names)} names for {params.n_input_columns} columns"
            )
        names = tuple(feature_names[j] for j in params.kept)
    else:
        names = tuple(f"z{j}" for j in params.kept)
    model = ridge_fit(
        Z, y, lam, feature_names=names, standardization=params
    )
    return model, Z


def select_lambda(
    Z: np.ndarray,
    y: np.ndarray,
    grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
) -> float:
    """Pick the ridge strength by a single chronological tail split.

    The last ``ceil(0.3 * n)`` rows, a fixed 30% tail, are the validation
    set; the winner minimizes validation MSE with ties resolved toward the
    larger (more regularized) candidate.

    Every grid value is checked (finite, non-negative) before any work.
    The training Gram ``G = Z'Z``, the right-hand side and ``mean(y)`` are
    formed once and ``G`` is eigendecomposed once; each candidate then
    costs two ``p x p`` matrix-vector products, the weights
    ``V (V'rhs / (s + lambda))`` and their normal-equation residual, and
    its validation errors, formed and squared in one validation-sized
    buffer that every candidate reuses.
    Weights that are non-finite or miss the 1e-8 residual bound, and every
    value at or below the Gram's rounding (``p * eps * max diag G``, zero
    included), are solved instead by the LU solve :func:`ridge_fit` uses,
    with its definiteness check, residual guard and
    :class:`~pifmap.errors.SingularSystem` errors.  The choice equals an LU
    refit per value except where ``p >= n_train`` or ``lambda`` is near the
    Gram's rounding, where both solves carry rounding amplified by
    ``1/lambda`` and near-equal validation errors can swap.
    """
    return _select_lambda(_check_matrix(Z, "Z"), y, grid)


def _select_lambda(Z: np.ndarray, y: np.ndarray, grid: Sequence[float]) -> float:
    """:func:`select_lambda` of a 2-d float design that is not checked again:
    one the caller checked, or a training design :func:`_standardized` made.
    """
    if not grid:
        raise ValueError("lambda grid is empty")
    grid = [float(lam) for lam in grid]
    for lam in grid:
        _check_lambda(lam)
    n, p = Z.shape
    n_val = int(np.ceil(n * _VALIDATION_FRACTION))
    n_train = n - n_val
    if n_train < 2 or n_val < 1:
        raise InsufficientData(
            f"cannot split {n} rows into a usable train/validation pair"
        )
    y = _check_labels(_as_stack(y), n)[0]
    Z_train, Z_val = Z[:n_train], Z[n_train:]
    y_train, y_val = y[:n_train], y[n_train:]
    intercept = float(y_train.sum()) / n_train
    best_lam = None
    best_mse = None
    errors = np.empty(n_val)
    # an overflow fails a check of the solve or makes an error inf
    with np.errstate(over="ignore", invalid="ignore"):
        gram = Z_train.T @ Z_train
        rhs = Z_train.T @ (y_train - intercept)
        for lam, weights in zip(grid, _grid_weights(gram, rhs, grid)):
            # Z_val @ weights + intercept - y_val, squared, in one buffer
            np.matmul(Z_val, weights, out=errors)
            errors += intercept
            errors -= y_val
            mse = float(np.mean(np.square(errors, out=errors)))
            if best_mse is None or mse < best_mse or (mse == best_mse and lam > best_lam):
                best_mse, best_lam = mse, lam
    return best_lam


def _grid_weights(
    gram: np.ndarray, rhs: np.ndarray, grid: list[float]
) -> Iterator[np.ndarray]:
    """Yield the solution of ``(gram + lam*I) w = rhs`` for each grid value.

    One ``np.linalg.eigh`` of ``gram`` serves every value above the Gram's
    rounding; the rest, and any eigen-solution that is non-finite or misses
    the residual bound, go through :func:`_solve_normal_equations`.
    """
    if not len(gram):
        for _ in grid:
            yield np.zeros(0)
        return
    rounding = _gram_rounding(gram.diagonal())
    try:
        eigenvalues, vectors = np.linalg.eigh(gram)
    except np.linalg.LinAlgError:
        rounding = math.inf  # no decomposition: every value is solved by LU
    else:
        rotated = vectors.T @ rhs
    for lam in grid:
        if lam > rounding:
            # a failed solution shows as inf or nan and is refused below
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                weights = vectors @ (rotated / (eigenvalues + lam))
                residual = gram @ weights + lam * weights - rhs
                within = _within_residual_bound(residual, rhs)
            if np.isfinite(weights).all() and within:
                yield weights
                continue
        yield _solve_normal_equations(gram, rhs, lam)


def classify(scores: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Map regression scores to {0, 1}: label 1 iff score >= threshold."""
    scores = np.asarray(scores, dtype=float)
    if not np.isfinite(scores).all():
        raise NonFiniteInput("scores contain non-finite values")
    return (scores >= threshold).astype(int)


def model_to_dict(model: RidgeModel) -> dict:
    return {
        "lambda": model.lam,
        "weights": [float(w) for w in model.weights],
        "intercept": model.intercept,
        "means": [float(v) for v in model.standardization.means],
        "scales": [float(v) for v in model.standardization.scales],
        "kept_columns": list(model.standardization.kept),
        "dropped_columns": list(model.standardization.dropped),
        "feature_names": list(model.feature_names),
    }


def model_from_dict(document: dict) -> RidgeModel:
    """Rebuild a model written by :func:`model_to_dict`.

    Raises :class:`~pifmap.errors.ColumnMismatch` when the weights, means,
    scales and kept columns differ in length, or when the kept and dropped
    columns together are not a permutation of the input columns, and
    :class:`TypeError` when a column index is a bool or not an integer, or
    a number (lambda, intercept, weight, mean or scale) is a bool or a
    string.
    """
    params = StandardizationParams(
        means=np.array(_exact_floats(document["means"], "means")),
        scales=np.array(_exact_floats(document["scales"], "scales")),
        kept=_exact_ints(document["kept_columns"], "kept_columns"),
        dropped=_exact_ints(document.get("dropped_columns", ()), "dropped_columns"),
    )
    weights = np.array(_exact_floats(document["weights"], "weights"))
    lengths = (len(weights), len(params.means), len(params.scales), len(params.kept))
    if len(set(lengths)) != 1:
        raise ColumnMismatch(
            "{} weights, {} means, {} scales and {} kept columns".format(*lengths)
        )
    columns = sorted(params.kept + params.dropped)
    if columns != list(range(params.n_input_columns)):
        raise ColumnMismatch(
            f"kept columns {list(params.kept)} and dropped columns "
            f"{list(params.dropped)} are not a permutation of "
            f"0..{params.n_input_columns - 1}"
        )
    return RidgeModel(
        lam=_exact_floats((document["lambda"],), "lambda")[0],
        weights=weights,
        intercept=_exact_floats((document["intercept"],), "intercept")[0],
        standardization=params,
        feature_names=tuple(document["feature_names"]),
    )
