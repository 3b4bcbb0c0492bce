"""Coefficient ranking and greedy prefix selection."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pifmap import ranking, regression
from pifmap.catalogs import load_catalog
from pifmap.errors import (
    DroppedColumnWarning,
    EmptyInput,
    InvalidRange,
    LengthMismatch,
    NonFiniteInput,
    PifmapError,
)
from pifmap.experiments import split_point
from pifmap.featuremap import destandardize, evaluate_map
from pifmap.metrics import mae, mse
from pifmap.ranking import (
    _identical_column_groups,
    _rank_design_columns,
    curve_to_csv,
    greedy_select,
    rank_and_refit,
)
from pifmap.regression import (
    fit_standardized,
    ridge_fit,
    ridge_predict,
    standardize_apply,
    standardize_fit,
)
from pifmap.synthdata import NoiseConfig, add_noise, gen_bernoulli, gen_pulsar


def _planted_problem(seed=0, n=80, weights=(10.0, 5.0, 1.0, 0.0, 0.0)):
    """Centered design whose useful signal lives in the first columns."""
    rng = np.random.Generator(np.random.PCG64(seed))
    p = len(weights)
    Z = rng.standard_normal((n, p))
    Z -= Z.mean(axis=0)
    y = Z @ np.array(weights)
    return Z[: n // 2], y[: n // 2], Z[n // 2 :], y[n // 2 :]


class TestRankByCoefficient:
    def test_magnitude_descending(self):
        Z = np.diag([1.0, 1.0, 1.0]).repeat(4, axis=0)
        Z -= Z.mean(axis=0)
        y = Z @ np.array([0.5, -3.0, 1.5])
        model = ridge_fit(Z, y, 1e-6)
        assert _rank_design_columns(model, _identical_column_groups(Z)) == (1, 2, 0)

    def test_tie_goes_to_lower_index(self):
        from pifmap.regression import RidgeModel, identity_standardization

        model = RidgeModel(
            lam=1e-3,
            weights=np.array([2.0, -2.0, 1.0]),
            intercept=0.0,
            standardization=identity_standardization(3),
            feature_names=("a", "b", "c"),
        )
        assert _rank_design_columns(model, np.arange(3)) == (0, 1, 2)

    def test_empty_model(self):
        model = ridge_fit(np.empty((4, 0)), np.arange(4.0), 1e-3)
        with pytest.raises(EmptyInput, match="model has no weights to rank"):
            _rank_design_columns(model, np.arange(0))


class TestGreedySelect:
    def test_planted_signal_selected(self):
        Z_tr, y_tr, Z_ev, y_ev = _planted_problem()
        result = greedy_select(Z_tr, y_tr, Z_ev, y_ev, lam=1e-6)
        assert result.selected_count == 3
        assert set(result.selected) == {0, 1, 2}

    def test_epsilon_one_selects_single(self):
        # epsilon >= 1 means no improvement can clear the bar past k=1
        Z_tr, y_tr, Z_ev, y_ev = _planted_problem()
        result = greedy_select(Z_tr, y_tr, Z_ev, y_ev, lam=1e-6, epsilon=1.0)
        assert result.selected_count == 1

    def test_curve_includes_plateau_point(self):
        Z_tr, y_tr, Z_ev, y_ev = _planted_problem()
        result = greedy_select(Z_tr, y_tr, Z_ev, y_ev, lam=1e-6)
        # stop at k=4 (count 3) plus one extra evaluated prefix
        assert result.curve[-1].k == min(Z_tr.shape[1], result.selected_count + 2)
        assert [point.k for point in result.curve] == list(
            range(1, result.curve[-1].k + 1)
        )

    def test_never_saturating_selects_all(self):
        # orthogonal equal-strength columns: every addition halves the error
        rng = np.random.Generator(np.random.PCG64(5))
        Z = rng.standard_normal((120, 4))
        Z -= Z.mean(axis=0)
        y = Z @ np.array([4.0, 4.0, 4.0, 4.0])
        result = greedy_select(Z[:60], y[:60], Z[60:], y[60:], lam=1e-6)
        assert result.selected_count == 4
        assert len(result.curve) == 4

    def test_explicit_order_respected(self):
        Z_tr, y_tr, Z_ev, y_ev = _planted_problem()
        result = greedy_select(
            Z_tr, y_tr, Z_ev, y_ev, lam=1e-6, order=(4, 3, 2, 1, 0)
        )
        assert result.order == (4, 3, 2, 1, 0)
        assert result.curve[0].k == 1

    def test_order_must_be_permutation(self):
        Z_tr, y_tr, Z_ev, y_ev = _planted_problem()
        with pytest.raises(LengthMismatch):
            greedy_select(Z_tr, y_tr, Z_ev, y_ev, lam=1e-6, order=(0, 0, 1, 2, 3))
        with pytest.raises(LengthMismatch):
            greedy_select(Z_tr, y_tr, Z_ev, y_ev, lam=1e-6, order=(0, 1))

    def test_eval_width_checked(self):
        Z_tr, y_tr, Z_ev, y_ev = _planted_problem()
        with pytest.raises(LengthMismatch):
            greedy_select(Z_tr, y_tr, Z_ev[:, :3], y_ev, lam=1e-6)

    def test_epsilon_positive(self):
        Z_tr, y_tr, Z_ev, y_ev = _planted_problem()
        with pytest.raises(ValueError):
            greedy_select(Z_tr, y_tr, Z_ev, y_ev, lam=1e-6, epsilon=0.0)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -float("inf")])
    def test_epsilon_finite(self, epsilon):
        # a nan epsilon would never saturate and silently select every column
        Z_tr, y_tr, Z_ev, y_ev = _planted_problem()
        with pytest.raises(InvalidRange):
            greedy_select(Z_tr, y_tr, Z_ev, y_ev, lam=1e-6, epsilon=epsilon)

    def test_selected_fit_is_the_fit_of_the_selected_prefix(self):
        Z_tr, y_tr, Z_ev, y_ev = _planted_problem()
        for epsilon in (0.01, 1.0, 1e-300):
            result = greedy_select(Z_tr, y_tr, Z_ev, y_ev, lam=1e-6, epsilon=epsilon)
            fit = ridge_fit(Z_tr[:, list(result.selected)], y_tr, 1e-6)
            assert result.selected_fit.weights.tobytes() == fit.weights.tobytes()
            assert result.selected_fit.intercept == fit.intercept

    def test_no_columns(self):
        with pytest.raises(EmptyInput):
            greedy_select(
                np.empty((4, 0)), np.arange(4.0), np.empty((2, 0)),
                np.arange(2.0), lam=1e-3,
            )

    def test_perfect_fit_saturates(self):
        # once eval error hits zero the next prefix cannot improve it
        rng = np.random.Generator(np.random.PCG64(9))
        Z_tr = rng.standard_normal((20, 3))
        Z_ev = rng.standard_normal((20, 3))
        Z_tr -= Z_tr.mean(axis=0)  # per-split centering keeps the k=1 fit exact
        Z_ev -= Z_ev.mean(axis=0)
        result = greedy_select(
            Z_tr, Z_tr[:, 0] * 2.0, Z_ev, Z_ev[:, 0] * 2.0, lam=0.0
        )
        assert result.selected_count == 1
        assert result.curve[0].mae == pytest.approx(0.0, abs=1e-10)

    def test_selected_prefix_property(self):
        Z_tr, y_tr, Z_ev, y_ev = _planted_problem()
        result = greedy_select(Z_tr, y_tr, Z_ev, y_ev, lam=1e-6)
        assert result.selected == result.order[: result.selected_count]



def _reference_greedy(Z_tr, y_tr, Z_ev, y_ev, lam, order, epsilon):
    """The greedy rule with public ``ridge_fit``, ``ridge_predict``, ``mae``
    and ``mse`` per prefix: order, selected count, curve and selected fit."""
    p = Z_tr.shape[1]
    if order is None:
        order = _rank_design_columns(ridge_fit(Z_tr, y_tr, lam),
                                     _identical_column_groups(Z_tr))
    curve, fits, stop = [], [], None
    for k in range(1, p + 1):
        if stop is not None and k > stop + 1:
            break
        columns = list(order[:k])
        fit = ridge_fit(Z_tr[:, columns], y_tr, lam)
        predictions = ridge_predict(fit, Z_ev[:, columns])
        curve.append((k, mae(y_ev, predictions), mse(y_ev, predictions)))
        fits.append(fit)
        if stop is None and k >= 2 and all(
            previous == 0.0 or (previous - current) / previous < epsilon
            for previous, current in zip(curve[-2][1:], curve[-1][1:])
        ):
            stop = k
    count = stop - 1 if stop is not None else p
    return tuple(order), count, curve, fits[count - 1]


def _seeded_design(seed):
    """Train and evaluation rows of a design with uneven column scales and
    an offset label; odd seeds copy one column exactly, and the layout
    alternates between row- and column-major."""
    rng = np.random.Generator(np.random.PCG64(seed))
    p = int(rng.integers(2, 9))
    n_tr, n_ev = int(rng.integers(p + 12, 200)), int(rng.integers(5, 80))
    X = rng.standard_normal((n_tr + n_ev, p)) * 10.0 ** rng.uniform(-2, 2, p)
    if seed % 2 and p >= 3:
        X[:, 2] = X[:, 0]
    y = X @ rng.standard_normal(p) + 3.0 + 0.3 * rng.standard_normal(n_tr + n_ev)
    if seed % 4 >= 2:
        X = np.asfortranarray(X)
    order = tuple(int(j) for j in rng.permutation(p))
    return X[:n_tr], y[:n_tr], X[n_tr:], y[n_tr:], order


def _hexes(curve):
    return [(k, float(a).hex(), float(b).hex()) for k, a, b in curve]


class TestGreedyMatchesPerPrefixRidgeFit:
    """``greedy_select`` gives, bit for bit, what a loop of public fits gives."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    @pytest.mark.parametrize("epsilon", [0.01, 1.0, 1e-300])
    @pytest.mark.parametrize("given_order", [False, True], ids=["ranked", "given"])
    def test_bit_identical_to_the_reference_loop(self, seed, lam, epsilon,
                                                 given_order):
        Z_tr, y_tr, Z_ev, y_ev, order = _seeded_design(seed)
        order = order if given_order else None
        try:
            expected = _reference_greedy(Z_tr, y_tr, Z_ev, y_ev, lam, order, epsilon)
        except PifmapError as exc:
            # a prefix holding both copies of a column is singular at lam=0
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                greedy_select(Z_tr, y_tr, Z_ev, y_ev, lam, order, epsilon)
            return
        result = greedy_select(Z_tr, y_tr, Z_ev, y_ev, lam, order, epsilon)
        expected_order, count, curve, fit = expected
        assert result.order == expected_order
        assert result.selected_count == count
        assert _hexes((pt.k, pt.mae, pt.mse) for pt in result.curve) == _hexes(curve)
        selected = result.selected_fit
        assert selected.weights.tobytes() == fit.weights.tobytes()
        assert selected.intercept.hex() == fit.intercept.hex()
        assert (selected.lam, selected.feature_names) == (fit.lam, fit.feature_names)
        assert selected.standardization.kept == fit.standardization.kept
        assert selected.standardization.means.tobytes() == fit.standardization.means.tobytes()
        assert selected.standardization.scales.tobytes() == fit.standardization.scales.tobytes()

    @pytest.mark.parametrize("given_order", [False, True], ids=["ranked", "given"])
    def test_one_shared_solve_per_curve_point(self, given_order, monkeypatch):
        calls = {"ridge_fit": 0, "weights": [], "solve": []}
        fit, weights, solve = (regression.ridge_fit, regression._ridge_weights,
                               regression._solve_normal_equations)

        def count_fit(*args, **kwargs):
            calls["ridge_fit"] += 1
            return fit(*args, **kwargs)

        # a pass solves a stack of one prefix design per size; the ranking
        # fit is one 2-d design
        def count_weights(Z, centered, lam):
            calls["weights"].append(Z.shape[-1])
            return weights(Z, centered, lam)

        def count_solve(gram, rhs, lam):
            calls["solve"].append(gram.shape[-1])
            return solve(gram, rhs, lam)

        monkeypatch.setattr(regression, "ridge_fit", count_fit)
        monkeypatch.setattr(ranking, "ridge_fit", count_fit)
        monkeypatch.setattr(ranking, "_ridge_weights", count_weights)
        monkeypatch.setattr(regression, "_solve_normal_equations", count_solve)
        Z_tr, y_tr, Z_ev, y_ev, order = _seeded_design(0)
        p = Z_tr.shape[1]
        result = greedy_select(Z_tr, y_tr, Z_ev, y_ev, 1e-3,
                               order if given_order else None)
        prefixes = [point.k for point in result.curve]
        # public ridge_fit runs only for the ranking fit of all p columns
        assert calls["ridge_fit"] == (0 if given_order else 1)
        assert calls["weights"] == prefixes
        assert calls["solve"] == (prefixes if given_order else [p] + prefixes)


class TestGreedyInputChecks:
    """Labels and lambda are always checked; of the design, only the columns
    of the prefixes the pass evaluates."""

    ORDER = (4, 3, 2, 1, 0)

    @staticmethod
    def _problem():
        Z_tr, y_tr, Z_ev, y_ev = _planted_problem(seed=4)
        rng = np.random.Generator(np.random.PCG64(40))
        return (Z_tr, y_tr + 0.5 * rng.standard_normal(y_tr.size), Z_ev,
                y_ev + 0.5 * rng.standard_normal(y_ev.size))

    def _stopped_early(self, order):
        # epsilon 1.0 stops at k=2, so prefixes 1..3 are evaluated of 5
        Z_tr, y_tr, Z_ev, y_ev = self._problem()
        result = greedy_select(Z_tr, y_tr, Z_ev, y_ev, 1e-3, order, epsilon=1.0)
        assert [point.k for point in result.curve] == [1, 2, 3]
        return result

    @pytest.mark.parametrize("side", ["train", "eval"])
    @pytest.mark.parametrize("position", [0, 2])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_in_an_evaluated_prefix_raises(self, side, position,
                                                            value):
        Z_tr, y_tr, Z_ev, y_ev = self._problem()
        (Z_tr if side == "train" else Z_ev)[3, self.ORDER[position]] = value
        with pytest.raises(NonFiniteInput, match="Z contains non-finite values"):
            greedy_select(Z_tr, y_tr, Z_ev, y_ev, 1e-3, self.ORDER, epsilon=1.0)

    @pytest.mark.parametrize("side, given_order", [
        ("train", True), ("eval", True), ("eval", False),
    ])
    def test_non_finite_entry_past_the_last_evaluated_prefix_is_not_read(
            self, side, given_order):
        clean = self._stopped_early(self.ORDER if given_order else None)
        Z_tr, y_tr, Z_ev, y_ev = self._problem()
        (Z_tr if side == "train" else Z_ev)[3, clean.order[4]] = np.nan
        result = greedy_select(Z_tr, y_tr, Z_ev, y_ev, 1e-3,
                               self.ORDER if given_order else None, epsilon=1.0)
        assert result.curve == clean.curve
        assert result.selected_fit.weights.tobytes() == clean.selected_fit.weights.tobytes()

    @pytest.mark.parametrize("order", [None, ORDER], ids=["ranked", "given"])
    @pytest.mark.parametrize("lam, error", [
        (np.nan, InvalidRange), (-1e-3, ValueError),
    ], ids=["nan", "negative"])
    def test_bad_lambda_raises(self, order, lam, error):
        Z_tr, y_tr, Z_ev, y_ev = self._problem()
        with pytest.raises(error, match="lam must be"):
            greedy_select(Z_tr, y_tr, Z_ev, y_ev, lam, order)

    @pytest.mark.parametrize("order", [None, ORDER], ids=["ranked", "given"])
    def test_wrong_length_labels_raise(self, order):
        Z_tr, y_tr, Z_ev, y_ev = self._problem()
        with pytest.raises(ValueError, match="does not match"):
            greedy_select(Z_tr, y_tr[:-1], Z_ev, y_ev, 1e-3, order)


class TestRankAndRefit:
    @staticmethod
    def _fitted(X, y, k, names):
        with pytest.warns(DroppedColumnWarning):
            model, Z_train = fit_standardized(X[:k], y[:k], 1e-3,
                                              feature_names=names)
        return model, Z_train, standardize_apply(X[k:], model.standardization)

    def _problem(self):
        rng = np.random.Generator(np.random.PCG64(3))
        X = rng.uniform(1.0, 2.0, size=(60, 4))
        X[:, 1] = 7.0
        y = 4.0 * X[:, 2] - 2.0 * X[:, 0] + 0.01 * rng.standard_normal(60)
        return X, y, 40, ["a", "const", "b", "c"]

    @staticmethod
    def _assert_matches_the_raw_refit(X_train, y_train, model, document):
        """The reported model is, to rounding, the old second fit: the raw
        selected columns standardized afresh, refit and destandardized."""
        columns = [model.feature_names.index(name) for name in document["selected"]]
        raw = [model.standardization.kept[j] for j in columns]
        refit, _ = fit_standardized(X_train[:, raw], y_train, model.lam,
                                    feature_names=document["selected"])
        coefficients, intercept = destandardize(refit)
        np.testing.assert_allclose(
            [document["coefficients"][name] for name in document["selected"]],
            coefficients, rtol=1e-10, atol=0.0,
        )
        np.testing.assert_allclose(document["intercept"], intercept,
                                   rtol=1e-10, atol=0.0)

    def test_ranks_by_the_given_fit_and_refits_the_raw_columns(self):
        X, y, k, names = self._problem()
        model, Z_train, Z_eval = self._fitted(X, y, k, names)
        result, document = rank_and_refit(model, Z_train, y[:k], Z_eval, y[k:], 0.01)
        # by |weight|: b, then a, then c, which y does not depend on
        assert result.order == (1, 0, 2)
        assert document["order"] == [model.feature_names[j] for j in result.order]
        assert "const" not in document["order"]
        assert document["selected"][:2] == ["b", "a"]
        fit = ridge_fit(Z_train[:, list(result.selected)], y[:k], model.lam)
        assert result.selected_fit.weights.tobytes() == fit.weights.tobytes()
        self._assert_matches_the_raw_refit(X[:k], y[:k], model, document)

    @pytest.mark.parametrize("name, generator", [("bernoulli", gen_bernoulli),
                                                 ("pulsar", gen_pulsar)])
    def test_reported_fit_matches_the_raw_refit_on_catalog_data(self, name,
                                                                generator):
        spec = load_catalog(name, allow_inconsistent=name == "pulsar")
        for seed in (1, 2, 3):
            data = generator(1000, seed)
            k = split_point(data.n_rows, 0.7)
            Phi = evaluate_map(spec, data)
            Z_train, params = standardize_fit(Phi[:k])
            Z_eval = standardize_apply(Phi[k:], params)
            kept_names = [spec.monomial_names[j] for j in params.kept]
            for level in (0.1, 0.5):
                y = add_noise(data.y, NoiseConfig(level=level, seed=seed))
                model = ridge_fit(Z_train, y[:k], 1e-3, feature_names=kept_names,
                                  standardization=params)
                result, document = rank_and_refit(
                    model, Z_train, y[:k], Z_eval, y[k:], 0.01
                )
                fit = ridge_fit(Z_train[:, list(result.selected)], y[:k], 1e-3)
                assert result.selected_fit.weights.tobytes() == fit.weights.tobytes()
                self._assert_matches_the_raw_refit(Phi[:k], y[:k], model, document)


class TestIdenticalColumns:
    """Columns equal to rounding rank together, lower index first."""

    @staticmethod
    def _fitted(gap):
        rng = np.random.Generator(np.random.PCG64(11))
        X = rng.uniform(1.0, 2.0, size=(60, 4))
        # A scaled copy would standardize to the same column; add a share
        # of another column instead.
        X[:, 3] = X[:, 1] + gap * X[:, 0]
        y = 3.0 * X[:, 0] + 2.0 * X[:, 1] + 2.0 * X[:, 3] + X[:, 2]
        y = y + 0.01 * rng.standard_normal(60)
        model, Z_train = fit_standardized(X[:40], y[:40], 1e-3)
        Z_eval = standardize_apply(X[40:], model.standardization)
        return X, y, model, Z_train, Z_eval

    @staticmethod
    def _order(X, y, model, Z_train, Z_eval, weights):
        nudged = dataclasses.replace(model, weights=np.array(weights))
        result, _ = rank_and_refit(nudged, Z_train, y[:40], Z_eval, y[40:], 0.01)
        return result.order

    def test_order_does_not_follow_rounding_of_the_weights(self):
        X, y, model, Z_train, Z_eval = self._fitted(1e-15)
        w = model.weights
        larger_first = [w[0], w[1] * (1 + 1e-9), w[2], w[1]]
        larger_last = [w[0], w[1], w[2], w[1] * (1 + 1e-9)]
        order = self._order(X, y, model, Z_train, Z_eval, larger_last)
        assert order == self._order(X, y, model, Z_train, Z_eval, larger_first)
        assert order[order.index(1) + 1] == 3

    def test_default_order_of_greedy_select_keeps_identical_columns_together(self):
        X, y, model, Z_train, Z_eval = self._fitted(1e-15)
        order = greedy_select(Z_train, y[:40], Z_eval, y[40:], 1e-3).order
        assert order[order.index(1) + 1] == 3

    def test_columns_apart_beyond_rounding_rank_by_weight(self):
        X, y, model, Z_train, Z_eval = self._fitted(1e-6)
        w = model.weights
        order = self._order(X, y, model, Z_train, Z_eval,
                            [w[0], w[1], w[2], w[1] * (1 + 1e-9)])
        assert order.index(3) < order.index(1)


def _reference_identical_column_groups(Z):
    """The grouping as first written, the oracle of the one in ``ranking``:
    ``max|Z|`` from two global passes, each magnitude from an ``np.abs``
    copy of its column and each pair compared through two fresh n-row
    temporaries."""
    largest = max(float(Z.max(initial=0.0)), -float(Z.min(initial=0.0)))
    head = Z[:len(ranking._PROBE)]
    v = ranking._PROBE[:len(head)]
    projection = v @ head
    reach = ranking._IDENTICAL_RTOL * largest * float(np.abs(v).sum())
    labels = np.arange(Z.shape[1])
    magnitudes = {}

    def magnitude(j):
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
            limit = ranking._IDENTICAL_RTOL * max(magnitude(j), magnitude(k))
            if np.abs(Z[:, j] - Z[:, k]).max(initial=0.0) <= limit:
                low = min(labels[j], labels[k])
                labels[(labels == labels[j]) | (labels == labels[k])] = low
    return labels


# How a planted column is made from an earlier one; "near" moves one row of
# a copy by a share of the copy's magnitude, on either side of the 1e-8
# tolerance.
_PLANTS = ("fresh", "identical", "scaled", "flipped", "zero", "near")
_NEAR_SHARES = (0.5e-8, 0.999e-8, 1e-8, 1.001e-8, 2e-8, 1e-6)


def _planted_design(n, seed, plants, fortran):
    rng = np.random.default_rng(seed)
    columns = []
    for kind, source, share in plants:
        base = columns[source % len(columns)] if columns else None
        if base is None or kind == "fresh":
            column = rng.standard_normal(n) * 10.0 ** int(rng.integers(-3, 4))
        elif kind == "identical":
            column = base.copy()
        elif kind == "scaled":
            column = base * (1.0 + share if rng.random() < 0.5 else 3.0)
        elif kind == "flipped":
            column = -base
        elif kind == "zero":
            column = np.zeros(n)
        else:
            column = base.copy()
            column[rng.integers(n)] += rng.choice([-1.0, 1.0]) * share * np.abs(base).max()
        columns.append(column)
    Z = np.column_stack(columns)
    return np.asfortranarray(Z) if fortran else np.ascontiguousarray(Z)


class TestIdenticalColumnGroupsOracle:
    """The grouping's labels equal the first-written grouping's."""

    @settings(max_examples=300)
    @given(
        n=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
        plants=st.lists(
            st.tuples(st.sampled_from(_PLANTS), st.integers(0, 8),
                      st.sampled_from(_NEAR_SHARES)),
            min_size=1, max_size=9,
        ),
        fortran=st.booleans(),
    )
    @example(n=64, seed=1, fortran=False, plants=[
        ("fresh", 0, 1e-8), ("near", 0, 0.999e-8), ("near", 0, 1.001e-8),
        ("identical", 1, 1e-8), ("zero", 0, 1e-8), ("zero", 0, 1e-8),
    ])
    @example(n=200, seed=2, fortran=True, plants=[
        ("fresh", 0, 1e-8), ("scaled", 0, 0.5e-8), ("flipped", 0, 1e-8),
        ("identical", 2, 1e-8), ("fresh", 0, 1e-8), ("near", 4, 2e-8),
    ])
    def test_labels_match_the_reference(self, n, seed, plants, fortran):
        Z = _planted_design(n, seed, plants, fortran)
        expected = _reference_identical_column_groups(Z)
        np.testing.assert_array_equal(_identical_column_groups(Z), expected)

    def test_planted_groups_are_found(self):
        Z = _planted_design(100, 3, [
            ("fresh", 0, 1e-8), ("identical", 0, 1e-8), ("flipped", 0, 1e-8),
            ("zero", 0, 1e-8), ("zero", 0, 1e-8), ("near", 0, 0.5e-8),
            ("near", 0, 2e-8),
        ], fortran=False)
        expected = [0, 0, 2, 3, 3, 0, 6]
        np.testing.assert_array_equal(_reference_identical_column_groups(Z), expected)
        np.testing.assert_array_equal(_identical_column_groups(Z), expected)


class TestSerialization:
    def test_dict_shape(self):
        X_tr, y_tr, X_ev, y_ev = _planted_problem()
        model, Z_tr = fit_standardized(X_tr, y_tr, 1e-6)
        Z_ev = standardize_apply(X_ev, model.standardization)
        result, document = rank_and_refit(model, Z_tr, y_tr, Z_ev, y_ev, 0.01)
        assert document["selected_count"] == result.selected_count
        assert document["order"] == [model.feature_names[j] for j in result.order]
        assert document["epsilon"] == result.epsilon
        assert document["curve"] == [
            {"k": point.k, "mae": point.mae, "mse": point.mse}
            for point in result.curve
        ]

    def test_curve_csv_format(self):
        Z_tr, y_tr, Z_ev, y_ev = _planted_problem()
        result = greedy_select(Z_tr, y_tr, Z_ev, y_ev, lam=1e-6)
        text = curve_to_csv(result)
        lines = text.split("\n")
        assert lines[0] == "k,mae,mse"
        assert lines[-1] == ""  # trailing newline
        first = lines[1].split(",")
        assert first[0] == "1"
        # repr round-trips floats exactly
        assert float(first[1]) == result.curve[0].mae
        assert float(first[2]) == result.curve[0].mse
