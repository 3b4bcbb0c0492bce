"""Standardization, ridge solver, lambda selection, Gram, classification."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pifmap import regression
from pifmap.errors import (
    ColumnMismatch,
    DroppedColumnWarning,
    EmptyInput,
    InsufficientData,
    InvalidRange,
    NonFiniteInput,
    NonFiniteResult,
    SingularSystem,
)
from pifmap.regression import (
    DEFAULT_LAMBDA,
    DEFAULT_LAMBDA_GRID,
    classify,
    fit_standardized,
    model_from_dict,
    model_to_dict,
    ridge_fit,
    ridge_predict,
    select_lambda,
    standardize_apply,
    standardize_fit,
)


def _random_problem(seed, n=30, p=4):
    rng = np.random.Generator(np.random.PCG64(seed))
    Z = rng.standard_normal((n, p))
    w = rng.standard_normal(p)
    y = Z @ w + 0.1 * rng.standard_normal(n)
    return Z, y


class TestStandardize:
    def test_two_point_column(self):
        Z, params = standardize_fit(np.array([[0.0], [2.0]]))
        assert params.means[0] == 1.0
        assert params.scales[0] == 1.0  # population std of {0, 2}
        np.testing.assert_allclose(Z[:, 0], [-1.0, 1.0])

    def test_population_convention(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        _, params = standardize_fit(X)
        assert params.scales[0] == pytest.approx(np.std(X[:, 0], ddof=0))

    def test_unit_variance_after(self):
        rng = np.random.Generator(np.random.PCG64(3))
        X = rng.random((50, 3)) * np.array([1e6, 1.0, 1e-6])
        Z, _ = standardize_fit(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, rtol=1e-12)

    def test_constant_column_dropped_with_warning(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        with pytest.warns(DroppedColumnWarning):
            Z, params = standardize_fit(X)
        assert params.kept == (1,)
        assert params.dropped == (0,)
        assert Z.shape == (10, 1)

    def test_apply_uses_training_statistics(self):
        X_train = np.array([[0.0], [2.0]])
        _, params = standardize_fit(X_train)
        Z_new = standardize_apply(np.array([[4.0]]), params)
        assert Z_new[0, 0] == 3.0

    def test_apply_checks_width(self):
        _, params = standardize_fit(np.array([[0.0], [2.0]]))
        with pytest.raises(ColumnMismatch):
            standardize_apply(np.ones((3, 2)), params)

    def test_single_row_rejected(self):
        with pytest.raises(InsufficientData):
            standardize_fit(np.array([[1.0, 2.0]]))

    @staticmethod
    def _design(layout, constant_column=None):
        rng = np.random.Generator(np.random.PCG64(17))
        X = (rng.standard_normal((2001, 6)) * [1e-3, 1.0, 7.0, 1e4, 0.3, 2e6]
             + [5.0, -2.0, 1e3, 0.0, 9.0, -4e6])
        if constant_column is not None:
            X[:, constant_column] = 3.25
        # "F-row-slice" is what the fit path passes: the training rows of
        # the Fortran-ordered design evaluate_map returns
        return {"C": X, "F": np.asfortranarray(X), "column-view": X[:, 1:],
                "row-view": X[::3],
                "F-row-slice": np.asfortranarray(X)[:1500]}[layout]

    LAYOUTS = ["C", "F", "column-view", "row-view", "F-row-slice"]

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("constant_column", [None, 2])
    def test_bitwise_equal_to_the_two_pass_formulas(self, layout,
                                                    constant_column):
        X = self._design(layout, constant_column)
        X_new = X[:700] * 1.5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DroppedColumnWarning)
            Z, params = standardize_fit(X)
        means, scales = X.mean(axis=0), X.std(axis=0)
        kept = [j for j in range(X.shape[1]) if scales[j] > 1e-12 * abs(means[j])]
        assert list(params.kept) == kept
        assert len(kept) < X.shape[1] or constant_column is None
        assert params.means.tobytes() == means[kept].tobytes()
        assert params.scales.tobytes() == scales[kept].tobytes()
        expected = (X[:, kept] - means[kept]) / scales[kept]
        assert Z.tobytes(order="A") == expected.tobytes(order="A")
        assert Z.flags.f_contiguous
        applied = standardize_apply(X_new, params)
        expected = (X_new[:, kept] - means[kept]) / scales[kept]
        assert applied.tobytes(order="A") == expected.tobytes(order="A")
        assert applied.flags.f_contiguous

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("constant_column", [None, 2])
    def test_bitwise_equal_to_the_two_pass_formulas_over_many_blocks(
            self, layout, constant_column, monkeypatch):
        # an 8-row buffer: a row-major design's squares are summed 7 rows at
        # a time after the running sums, 286 blocks with a short last one
        monkeypatch.setattr(regression, "_SQUARES_BYTES", 8 * 6 * 8)
        X = self._design(layout, constant_column)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DroppedColumnWarning)
            Z, params = standardize_fit(X)
        means, scales = X.mean(axis=0), X.std(axis=0)
        kept = list(params.kept)
        assert params.means.tobytes() == means[kept].tobytes()
        assert params.scales.tobytes() == scales[kept].tobytes()
        expected = (X[:, kept] - means[kept]) / scales[kept]
        assert Z.tobytes(order="A") == expected.tobytes(order="A")
        assert Z.flags.f_contiguous

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("constant_column", [None, 2])
    def test_never_changes_or_shares_the_callers_array(self, layout,
                                                       constant_column):
        X = self._design(layout, constant_column)
        memory = X if X.base is None else X.base  # all of a view's array
        before = memory.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DroppedColumnWarning)
            Z, params = standardize_fit(X)
        applied = standardize_apply(X, params)
        for result in (Z, applied, params.means, params.scales):
            assert not np.shares_memory(result, memory)
        assert memory.tobytes() == before

    def test_overflowing_scale_is_a_numerical_error(self):
        X = np.column_stack([np.arange(10.0), np.arange(1.0, 11.0) * 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning either
            with pytest.raises(NonFiniteResult, match="column 1 is too large"):
                standardize_fit(X)

    def test_overflowing_mean_is_a_numerical_error(self):
        X = np.full((4, 1), 1.7e308) * [[1.0], [-1.0], [1.0], [1.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResult, match="column 0"):
                standardize_fit(X)


class TestStandardizeErrors:
    """Which error ``standardize_fit`` raises, and which comes first."""

    @staticmethod
    def _design(n, layout):
        X = np.arange(1.0, 3 * n + 1.0).reshape(n, 3)
        return np.asfortranarray(X) if layout == "F" else X

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 2, 50])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (-1, 2), (-1, 1)])
    def test_a_non_finite_entry_is_non_finite_input(self, layout, n, bad, where):
        X = self._design(n, layout)
        X[where] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInput, match="X contains non-finite values"):
                standardize_fit(X)

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_infinities_that_cancel_in_a_sum_are_non_finite_input(self, layout):
        X = self._design(6, layout)
        X[1, 1], X[4, 1] = np.inf, -np.inf
        with pytest.raises(NonFiniteInput):
            standardize_fit(X)

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_a_non_finite_entry_comes_before_an_overflowing_column(self, layout):
        # column 0's sum and variance overflow; column 2 holds a NaN
        X = self._design(4, layout)
        X[:, 0] = [1.7e308, 1.7e308, -1.7e308, 1.7e308]
        X[3, 2] = np.nan
        with pytest.raises(NonFiniteInput):
            standardize_fit(X)

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("column", [0, 2])
    def test_a_finite_column_whose_variance_overflows_is_non_finite_result(
            self, layout, column):
        X = self._design(8, layout)
        X[:, column] = np.linspace(-1e200, 1e200, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResult, match=f"column {column} is too large"):
                standardize_fit(X)

    @pytest.mark.parametrize("n", [0, 1])
    def test_a_finite_design_of_fewer_than_two_rows_is_insufficient(self, n):
        with pytest.raises(InsufficientData):
            standardize_fit(np.ones((n, 3)))

    @pytest.mark.parametrize("X", [
        np.arange(4.0), np.array([1.0, np.nan, 2.0]), np.ones((2, 2, 2)), np.float64(3.0),
    ])
    def test_a_design_that_is_not_2_d_is_a_value_error(self, X):
        with pytest.raises(ValueError, match="X must be 2-d"):
            standardize_fit(X)

class TestRidgeFit:
    def test_intercept_is_label_mean(self):
        Z, y = _random_problem(1)
        model = ridge_fit(Z, y, 1e-3)
        assert model.intercept == float(np.mean(y))

    def test_closed_form_small_case(self):
        # one column: b = z.(y - ybar) / (z.z + lam)
        Z = np.array([[1.0], [-1.0], [0.5], [-0.5]])
        y = np.array([2.0, -2.0, 1.0, -1.0])
        lam = 0.5
        model = ridge_fit(Z, y, lam)
        expected = Z[:, 0] @ y / (Z[:, 0] @ Z[:, 0] + lam)
        assert model.weights[0] == pytest.approx(expected, rel=1e-12)

    def test_lambda_zero_interpolates_orthonormal(self):
        # columns orthonormal => lam=0 weights are Z^T (y - ybar)
        Z = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        y = np.array([3.0, 1.0, -3.0, -1.0])
        model = ridge_fit(Z, y, 0.0)
        np.testing.assert_allclose(model.weights, Z.T @ y / 2.0, rtol=1e-12)

    def test_shrinkage_monotone_in_lambda(self):
        Z, y = _random_problem(7)
        norms = [
            float(np.linalg.norm(ridge_fit(Z, y, lam).weights))
            for lam in (0.0, 1e-3, 1e-1, 1.0, 10.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_rank_deficient_lambda_zero_raises(self):
        Z = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([1.0, 2.0, 3.0])
        with pytest.raises(SingularSystem):
            ridge_fit(Z, y, 0.0)

    def test_lambda_zero_on_consistent_exact_combination_raises(self):
        # LU alone solves this consistent rank-deficient system; the
        # definiteness check must reject it at lambda = 0 and at every
        # lambda below the rounding of the Gram's diagonal (about 200).
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((200, 5))
        Z[:, 2] = 2.0 * Z[:, 0] - 0.5 * Z[:, 1]
        y = Z @ rng.standard_normal(5) + 0.1 * rng.standard_normal(200)
        for lam in (0.0, 1e-300, 1e-14):
            with pytest.raises(SingularSystem):
                ridge_fit(Z, y, lam)
        assert np.isfinite(ridge_fit(Z, y, 1e-3).weights).all()

    def test_lambda_zero_on_duplicated_column_raises(self):
        # A duplicated column leaves a rounding-level Cholesky pivot whose
        # sign depends on the LAPACK build; the pivot tolerance rejects it.
        for seed in range(200):
            rng = np.random.default_rng(seed)
            p = int(rng.integers(3, 9))
            n = int(rng.integers(p + 2, 80))
            Z = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-2, 2, p)
            i, j = rng.choice(p, size=2, replace=False)
            Z[:, j] = Z[:, i]
            y = Z @ rng.standard_normal(p) + rng.standard_normal(n)
            with pytest.raises(SingularSystem):
                ridge_fit(Z, y, 0.0)

    def test_lambda_zero_pivot_tolerance_ignores_column_scale(self):
        Z, y = _random_problem(11, n=40, p=3)
        scale = np.array([1.0, 1e-9, 1.0])
        np.testing.assert_allclose(
            ridge_fit(Z * scale, y, 0.0).weights * scale,
            ridge_fit(Z, y, 0.0).weights, rtol=1e-9,
        )

    def test_rank_deficient_with_ridge_succeeds(self):
        Z = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([1.0, 2.0, 3.0])
        model = ridge_fit(Z, y, 1e-3)
        assert np.isfinite(model.weights).all()

    def test_no_columns_gives_mean_model(self):
        y = np.array([1.0, 3.0])
        model = ridge_fit(np.empty((2, 0)), y, 1e-3)
        assert model.weights.size == 0
        np.testing.assert_allclose(
            ridge_predict(model, np.empty((3, 0))), [2.0, 2.0, 2.0]
        )

    def test_negative_lambda_rejected(self):
        Z, y = _random_problem(2)
        with pytest.raises(ValueError):
            ridge_fit(Z, y, -1e-3)

    @pytest.mark.parametrize("lam", [np.inf, -np.inf, np.nan])
    def test_non_finite_lambda_rejected(self, lam):
        Z, y = _random_problem(2)
        with pytest.raises(InvalidRange, match="lam must be finite"):
            ridge_fit(Z, y, lam)

    def test_non_finite_rejected(self):
        Z, y = _random_problem(3)
        y = y.copy()
        y[0] = np.nan
        with pytest.raises(NonFiniteInput):
            ridge_fit(Z, y, 1e-3)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            ridge_fit(np.empty((0, 2)), np.empty(0), 1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["Z", "y"])
    def test_every_non_finite_value_rejected(self, bad, where):
        Z, y = _random_problem(3)
        Z, y = Z.copy(), y.copy()
        if where == "Z":
            Z[4, 1] = bad
        else:
            y[4] = bad
        with pytest.raises(NonFiniteInput, match=f"{where} contains non-finite"):
            ridge_fit(Z, y, 1e-3)

    @pytest.mark.parametrize("Z, y, lam, message", [
        # an exactly rank-1 Gram: Cholesky meets a zero pivot
        ([[1.0, 1.0], [0.0, 0.0]], [1.0, 2.0], 0.0,
         "normal equations are singular: Matrix is not positive definite"),
        # a Gram that overflows: its first pivot is inf
        ([[1e200, 1e200], [1e200, -1e200], [1.0, 2.0]], [1.0, 2.0, 3.0], 1e-3,
         "the Gram is not numerically positive definite"),
        # a Gram that underflows to zero under a tiny lambda: LU divides
        # 1e100 by 1e-300
        ([[1e-200], [-1e-200], [2e-200]], [1e300, -1e300, 0.0], 1e-300,
         "solver produced non-finite weights"),
        # a right-hand side whose square overflows: the residual bound is
        # inf too, which an inf residual must not meet
        ([[1e-90], [-1e-90], [2e-90]], [1e300, -1e300, 0.0], 1e-100,
         "solver produced non-finite weights"),
    ], ids=["zero-pivot", "overflowing-gram", "overflowing-weights",
            "overflowing-rhs"])
    def test_each_singular_system_check_is_reachable(self, Z, y, lam, message):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SingularSystem, match=message):
                ridge_fit(np.array(Z), np.array(y), lam)

    def test_residual_guard_catches_an_inaccurate_solve(self):
        # nearly collinear pairs pass the definiteness check at lambda = 0,
        # and on some draws LU leaves a residual far above 1e-8 relative
        guarded = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            z, w, y = rng.standard_normal((3, 6))
            for d in (3e-8, 1e-7):
                Z = np.column_stack([z, z + d * w])
                try:
                    model = ridge_fit(Z, y, 0.0)
                except SingularSystem as exc:
                    guarded += "residual exceeds 1e-8 relative" in str(exc)
                    continue
                rhs = Z.T @ (y - model.intercept)
                residual = Z.T @ Z @ model.weights - rhs
                assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(rhs)
        assert guarded > 0

    def test_an_overflowing_right_hand_side_raises_and_warns_of_nothing(self):
        # labels near 1e307 overflow Z'y and the residual: the residual
        # check reports the failure, and numpy's overflow warnings stay in
        Z = np.column_stack([np.arange(1.0, 11.0), np.arange(1, 11) ** 2 % 7.0])
        Z = (Z - Z.mean(axis=0)) / Z.std(axis=0)
        y = np.array([(1 + i / 10) * 1e307 * (-1) ** i for i in range(1, 11)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystem, match="residual exceeds"):
                ridge_fit(Z, y)

    def test_finite_values_whose_sums_overflow_are_not_non_finite_input(self):
        # the Gram of such a design overflows, which the solve reports as
        # a numerical failure of its own
        Z = np.array([[1e308], [1e308], [-1e308]])
        with np.errstate(over="ignore"), pytest.raises(SingularSystem):
            ridge_fit(Z, np.array([1.0, 2.0, 3.0]), 1e-3)

    @settings(max_examples=150)
    @given(arrays(np.float64, st.integers(1, 1100),
                  elements=st.floats(-1e300, 1e300)))
    def test_intercept_and_norm_steps_are_bitwise_numpys(self, v):
        # ridge_fit's intercept and the residual guard's norms take these
        # steps in place of np.mean and np.linalg.norm
        assert (np.float64(float(v.sum()) / len(v)).tobytes()
                == np.mean(v).tobytes())
        with np.errstate(over="ignore"):
            assert (np.float64(math.sqrt(v @ v)).tobytes()
                    == np.linalg.norm(v).tobytes())


class TestRidgePredict:
    @staticmethod
    def _flat_model():
        # constant labels give a weight of exactly 0 and an intercept of 1
        model = ridge_fit(np.array([[1.0], [2.0], [4.0]]), np.ones(3), 1e-3)
        assert model.weights.tolist() == [0.0] and model.intercept == 1.0
        return model

    def test_finite_values_whose_sums_overflow_pass_without_a_warning(self):
        Z = np.array([[1e308], [1e308], [-1e308], [1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ridge_predict(self._flat_model(), Z).tolist() == [1.0] * 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_non_finite_value_rejected(self, bad):
        Z = np.array([[1e308], [bad], [1e308]])
        with pytest.raises(NonFiniteInput, match="Z contains non-finite"):
            ridge_predict(self._flat_model(), Z)


class TestFitStandardized:
    def test_names_follow_kept_columns(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        with pytest.warns(DroppedColumnWarning):
            model, _ = fit_standardized(
                X, np.arange(10.0), 1e-3, feature_names=["const", "t"]
            )
        assert model.feature_names == ("t",)

    def test_name_count_checked(self):
        with pytest.raises(ColumnMismatch):
            fit_standardized(
                np.random.default_rng(0).random((5, 2)),
                np.arange(5.0),
                feature_names=["only_one"],
            )


class TestSelectLambda:
    def test_noiseless_prefers_smallest(self):
        Z, _ = _random_problem(11, n=50, p=3)
        Z = Z - Z.mean(axis=0)  # centered design, as standardize_fit produces
        w = np.array([1.0, -2.0, 0.5])
        y = Z @ w  # exactly linear: shrinkage hurts validation error
        grid = (1e-6, 1e-3, 1.0)
        assert select_lambda(Z, y, grid) == 1e-6

    def test_ties_take_larger(self):
        # two columns, validation tail fits equally for duplicated lams
        Z, y = _random_problem(13)
        grid = (1e-3, 1e-3)
        assert select_lambda(Z, y, grid) == 1e-3
        # degenerate y: every lambda predicts the constant mean equally
        y_const = np.zeros(len(y))
        assert select_lambda(Z, y_const, (1e-4, 1e-2)) == 1e-2

    def test_default_grid_shape(self):
        assert len(DEFAULT_LAMBDA_GRID) == 10
        assert DEFAULT_LAMBDA_GRID[0] == pytest.approx(1e-6)
        assert DEFAULT_LAMBDA_GRID[-1] == pytest.approx(1e2)

    def test_validation_tail_is_chronological(self):
        # train head is constant, tail is informative; selection must
        # still run (train >= 2, val >= 1) and return from the grid
        Z, y = _random_problem(17, n=10)
        lam = select_lambda(Z, y, (1e-3, 1e-1))
        assert lam in (1e-3, 1e-1)

    def test_too_few_rows(self):
        # two rows leave one for training once the 30% tail is taken
        Z, y = _random_problem(19, n=2)
        with pytest.raises(InsufficientData):
            select_lambda(Z, y, (1e-3,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [2, 9])  # a training row, a validation row
    def test_every_non_finite_entry_rejected(self, bad, row):
        Z, y = _random_problem(23, n=10)
        Z = Z.copy()
        Z[row, 1] = bad
        with pytest.raises(NonFiniteInput, match="Z contains non-finite"):
            select_lambda(Z, y, (1e-3, 1e-1))

    @staticmethod
    def _refit_per_value(Z, y, grid):
        """Oracle: one independent ridge_fit per grid value, last 30% held out."""
        n_train = len(y) - int(np.ceil(len(y) * 0.3))
        best_lam = best_mse = None
        for lam in grid:
            model = ridge_fit(Z[:n_train], y[:n_train], lam)
            errors = ridge_predict(model, Z[n_train:]) - y[n_train:]
            mse = float(np.mean(errors ** 2))
            if best_mse is None or mse < best_mse or (
                    mse == best_mse and lam > best_lam):
                best_mse, best_lam = mse, lam
        return best_lam

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_a_refit_per_grid_value(self, seed):
        rng = np.random.Generator(np.random.PCG64(1000 + seed))
        n = int(rng.integers(8, 120))
        p = int(rng.integers(1, 12))
        Z = rng.standard_normal((n, p))
        if seed % 3 == 0:  # near-collinear columns make the choice sensitive
            Z[:, -1] = Z[:, 0] + 1e-3 * rng.standard_normal(n)
        y = Z @ rng.standard_normal(p) + rng.uniform(0.0, 2.0) * rng.standard_normal(n)
        pool = np.logspace(-6.0, 2.0, 9)
        grid = tuple(float(lam) for lam in rng.choice(pool, size=int(rng.integers(1, 12))))
        if seed % 2 == 0:
            grid = grid + grid[:2]  # duplicated values, out of order
        assert select_lambda(Z, y, grid) == self._refit_per_value(Z, y, grid)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_a_refit_on_standardized_designs(self, seed):
        # wide standardized designs with n_train > p, one exact duplicate
        # column (as an enumerated spec has) and one near-collinear pair
        rng = np.random.Generator(np.random.PCG64(5000 + seed))
        p = int(rng.integers(1, 61))
        n = 2 * p + int(rng.integers(4, 60))
        X = rng.standard_normal((n, p))
        if p >= 3:
            X[:, 1] = X[:, 0]
            X[:, 2] = X[:, 0] + 10.0 ** -rng.uniform(2.0, 8.0) * rng.standard_normal(n)
        y = X[:, :3].sum(axis=1) + rng.uniform(0.0, 2.0) * rng.standard_normal(n)
        Z, _ = standardize_fit(X)
        pool = np.logspace(-6.0, 2.0, 10)
        grid = tuple(float(lam) for lam in rng.choice(pool, size=int(rng.integers(1, 12))))
        grid = grid + grid[:2]  # duplicated values
        assert select_lambda(Z, y, grid) == self._refit_per_value(Z, y, grid)

    def test_one_eigendecomposition_and_lu_only_at_the_rounding(self, monkeypatch):
        calls = {"eigh": 0, "lu": []}
        eigh, solve = np.linalg.eigh, regression._solve_normal_equations

        def count_eigh(a):
            calls["eigh"] += 1
            return eigh(a)

        def count_solve(gram, rhs, lam):
            calls["lu"].append(lam)
            return solve(gram, rhs, lam)

        monkeypatch.setattr(regression.np.linalg, "eigh", count_eigh)
        monkeypatch.setattr(regression, "_solve_normal_equations", count_solve)
        rng = np.random.Generator(np.random.PCG64(29))
        X = rng.standard_normal((200, 12))
        y = X @ rng.standard_normal(12) + 0.5 * rng.standard_normal(200)
        Z, _ = standardize_fit(X)
        select_lambda(Z, y)
        assert calls == {"eigh": 1, "lu": []}
        select_lambda(Z, y, (1e-3, 0.0, 1e-1))
        assert calls == {"eigh": 2, "lu": [0.0]}
        Z[:, 1] = Z[:, 0]  # rank-deficient: zero must still be refused
        with pytest.raises(SingularSystem):
            select_lambda(Z, y, (1e-3, 0.0))
        assert calls["lu"] == [0.0, 0.0]

    def test_zero_lambda_on_rank_deficient_design_raises(self):
        Z = np.zeros((10, 2))
        Z[:, 0] = np.arange(1.0, 11.0)  # the second column is all zero
        y = np.arange(10.0)
        assert select_lambda(Z, y, (1e-3, 1e-1)) in (1e-3, 1e-1)
        with pytest.raises(SingularSystem):
            select_lambda(Z, y, (1e-3, 0.0))

    @pytest.mark.parametrize("bad, error", [
        (np.nan, InvalidRange), (np.inf, InvalidRange), (-1.0, ValueError),
    ])
    def test_bad_grid_value_rejected_before_any_solve(self, bad, error,
                                                      monkeypatch):
        def no_factorization(*args):
            raise AssertionError("a factorization ran before the grid was checked")

        monkeypatch.setattr(regression, "_solve_normal_equations", no_factorization)
        monkeypatch.setattr(regression.np.linalg, "eigh", no_factorization)
        Z, y = _random_problem(23)
        with pytest.raises(error):
            select_lambda(Z, y, (1e-3, 1e-2, bad))

    def test_no_columns_picks_the_largest_value(self):
        y = np.arange(10.0)
        assert select_lambda(np.empty((10, 0)), y, (1e-3, 1e-1, 1e-2)) == 1e-1


class TestClassify:
    def test_threshold_inclusive(self):
        scores = np.array([0.49, 0.5, 0.51])
        np.testing.assert_array_equal(classify(scores), [0, 1, 1])

    def test_custom_threshold(self):
        scores = np.array([0.2, 0.8])
        np.testing.assert_array_equal(classify(scores, 0.9), [0, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(NonFiniteInput, match="scores contain non-finite"):
            classify(np.array([0.2, bad]))


class TestModelSerialization:
    def test_round_trip_predicts_identically(self):
        rng = np.random.Generator(np.random.PCG64(8))
        X = rng.random((20, 3))
        y = rng.random(20)
        model, _ = fit_standardized(X, y, 1e-2, feature_names=["a", "b", "c"])
        back = model_from_dict(model_to_dict(model))
        Z = standardize_apply(X, back.standardization)
        np.testing.assert_array_equal(
            ridge_predict(model, standardize_apply(X, model.standardization)),
            ridge_predict(back, Z),
        )
        assert back.feature_names == model.feature_names
        assert back.lam == model.lam

    @pytest.mark.parametrize("key, position, bad", [
        ("kept_columns", 0, True), ("kept_columns", 1, 2.7), ("dropped_columns", 0, 0.5),
    ])
    def test_column_indices_must_be_integers(self, key, position, bad):
        # each bad index truncates to the index it replaces, so only the
        # exact-integer check can tell
        X = np.column_stack([np.ones(6), np.arange(6.0), np.arange(6.0) ** 2])
        with pytest.warns(DroppedColumnWarning):
            model, _ = fit_standardized(X, np.arange(6.0), 1e-2)
        document = model_to_dict(model)
        assert (document["kept_columns"], document["dropped_columns"]) == ([1, 2], [0])
        assert int(bad) == document[key][position]
        document[key][position] = bad
        with pytest.raises(TypeError, match=f"{key} must be integers"):
            model_from_dict(document)

    @pytest.mark.parametrize("key, position, bad", [
        ("lambda", None, True), ("intercept", None, "2"), ("weights", 0, "1.5"),
        ("means", 0, True), ("scales", 1, "0.5"), ("weights", 1, None),
    ])
    def test_numbers_must_be_numbers(self, key, position, bad):
        Z, y = _random_problem(4, p=3)
        document = model_to_dict(fit_standardized(Z, y, 1e-2)[0])
        if position is None:
            document[key] = bad
        else:
            document[key][position] = bad
        with pytest.raises(TypeError, match=f"{key} must be numbers, got {bad!r}"):
            model_from_dict(document)

    def test_integral_numbers_load_as_floats(self):
        Z, y = _random_problem(4, p=2)
        document = model_to_dict(fit_standardized(Z, y, 1.0)[0])
        document.update({"lambda": 1, "intercept": 2, "weights": [3, 4.5]})
        model = model_from_dict(document)
        assert (model.lam, model.intercept) == (1.0, 2.0)
        assert type(model.lam) is float and type(model.intercept) is float
        assert model.weights.dtype == np.float64
        assert model.weights.tolist() == [3.0, 4.5]

    def test_default_lambda_value(self):
        assert DEFAULT_LAMBDA == 1e-3
