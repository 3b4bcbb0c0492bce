"""Error metrics, confusion counting, and skill scores."""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pifmap.errors import (
    EmptyInput,
    LengthMismatch,
    NonBinaryLabel,
    NonFiniteInput,
    NonFiniteResult,
)
from pifmap.metrics import (
    ConfusionMatrix,
    confusion,
    mae,
    mse,
    scores_to_dict,
    skill_scores,
)


class TestRegressionMetrics:
    def test_mae_hand_case(self):
        assert mae([1.0, 2.0, 3.0], [2.0, 2.0, 1.0]) == pytest.approx(1.0)

    def test_mse_hand_case(self):
        assert mse([1.0, 2.0, 3.0], [2.0, 2.0, 1.0]) == pytest.approx(5.0 / 3.0)

    def test_perfect_prediction(self):
        y = np.linspace(-3, 3, 7)
        assert mae(y, y) == 0.0
        assert mse(y, y) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(LengthMismatch):
            mae([1.0, 2.0], [1.0])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            mse([], [])

    def test_non_finite(self):
        with pytest.raises(NonFiniteInput):
            mae([1.0, np.nan], [1.0, 2.0])

    @pytest.mark.parametrize("metric", [mae, mse])
    def test_finite_values_whose_sums_overflow_pass_without_a_warning(self, metric):
        huge = np.array([1e308, 1e308, -1e308, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert metric(huge, huge) == 0.0

    @pytest.mark.parametrize("metric", [mae, mse])
    def test_an_overflowing_error_raises_without_a_warning(self, metric):
        # the error sum is not finite, but every input is
        a = np.array([1e308, -1e308, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResult, match="overflows"):
                metric(a, -a)

    @pytest.mark.parametrize("metric", [mae, mse])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("other", [1.0, np.inf], ids=["finite", "inf"])
    def test_a_non_finite_entry_raises(self, metric, bad, side, other):
        # the other input holds 1e308s, so the error sum may overflow too,
        # or +inf where the bad entry is
        pair = [np.array([1e308, 1e308, 2.0]), np.array([1e308, -1e308, 1.0])]
        pair[side][2] = bad
        pair[1 - side][2] = other
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteInput, match="non-finite"):
                metric(*pair)

    @settings(max_examples=150)
    @given(st.integers(1, 1100).flatmap(lambda n: st.tuples(
        arrays(np.float64, n, elements=st.floats(-1e150, 1e150)),
        arrays(np.float64, n, elements=st.floats(-1e150, 1e150)),
    )))
    def test_bitwise_equal_to_np_mean(self, pair):
        y_true, y_pred = pair
        for value, reference in (
            (mae(y_true, y_pred), np.mean(np.abs(y_true - y_pred))),
            (mse(y_true, y_pred), np.mean((y_true - y_pred) ** 2)),
        ):
            assert type(value) is float
            assert np.float64(value).tobytes() == np.float64(reference).tobytes()


class TestConfusion:
    def test_hand_count(self):
        cm = confusion([1, 1, 0, 0, 1, 0], [1, 0, 1, 0, 1, 0])
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (2, 1, 1, 2)

    def test_rows_layout(self):
        cm = ConfusionMatrix(tp=3, fp=2, fn=1, tn=4)
        assert scores_to_dict(cm)["confusion"] == [[3, 2], [1, 4]]
        assert cm.total == 10

    def test_float_binary_labels_accepted(self):
        cm = confusion(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert (cm.tp, cm.fn, cm.tn) == (0, 1, 1)

    def test_non_binary_rejected(self):
        with pytest.raises(NonBinaryLabel):
            confusion([0, 1, 2], [0, 1, 1])
        with pytest.raises(NonBinaryLabel):
            confusion([0, 1], [0.5, 1.0])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1, fp=0, fn=0, tn=5)

    def test_non_integer_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=1.5, fp=0, fn=0, tn=5)

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyInput):
            ConfusionMatrix(tp=0, fp=0, fn=0, tn=0)


# Matrices with all five scores worked out by hand in exact rationals.
_EXACT_CASES = [
    (
        ConfusionMatrix(tp=1507, fp=61, fn=2, tn=30),
        {
            "sensitivity": Fraction(1507, 1509),
            "specificity": Fraction(30, 91),
            "accuracy": Fraction(1537, 1600),
            "tss": Fraction(1507, 1509) + Fraction(30, 91) - 1,
            "hss": Fraction(
                2 * (1507 * 30 - 2 * 61),
                (1507 + 2) * (2 + 30) + (1507 + 61) * (61 + 30),
            ),
        },
    ),
    (
        ConfusionMatrix(tp=1550, fp=18, fn=2, tn=30),
        {
            "sensitivity": Fraction(1550, 1552),
            "specificity": Fraction(30, 48),
            "accuracy": Fraction(1580, 1600),
            "tss": Fraction(1550, 1552) + Fraction(30, 48) - 1,
            "hss": Fraction(
                2 * (1550 * 30 - 2 * 18),
                (1550 + 2) * (2 + 30) + (1550 + 18) * (18 + 30),
            ),
        },
    ),
    (
        ConfusionMatrix(tp=187, fp=50, fn=9, tn=36),
        {
            "sensitivity": Fraction(187, 196),
            "specificity": Fraction(36, 86),
            "accuracy": Fraction(223, 282),
            "tss": Fraction(187, 196) + Fraction(36, 86) - 1,
            "hss": Fraction(
                2 * (187 * 36 - 9 * 50),
                (187 + 9) * (9 + 36) + (187 + 50) * (50 + 36),
            ),
        },
    ),
    (
        ConfusionMatrix(tp=210, fp=27, fn=11, tn=34),
        {
            "sensitivity": Fraction(210, 221),
            "specificity": Fraction(34, 61),
            "accuracy": Fraction(244, 282),
            "tss": Fraction(210, 221) + Fraction(34, 61) - 1,
            "hss": Fraction(
                2 * (210 * 34 - 11 * 27),
                (210 + 11) * (11 + 34) + (210 + 27) * (27 + 34),
            ),
        },
    ),
]


class TestSkillScores:
    @pytest.mark.parametrize("cm,expected", _EXACT_CASES)
    def test_exact_rational_values(self, cm, expected):
        scores = skill_scores(cm)
        for name, fraction in expected.items():
            assert getattr(scores, name) == float(fraction), name
        assert scores.undefined == ()

    def test_perfect_classifier(self):
        scores = skill_scores(ConfusionMatrix(tp=5, fp=0, fn=0, tn=5))
        assert scores.sensitivity == 1.0
        assert scores.specificity == 1.0
        assert scores.tss == 1.0
        assert scores.hss == 1.0

    def test_undefined_sensitivity_without_positives(self):
        scores = skill_scores(ConfusionMatrix(tp=0, fp=3, fn=0, tn=7))
        assert math.isnan(scores.sensitivity)
        assert math.isnan(scores.tss)
        assert "sensitivity" in scores.undefined
        assert "tss" in scores.undefined
        assert "specificity" not in scores.undefined

    def test_undefined_specificity_without_negatives(self):
        scores = skill_scores(ConfusionMatrix(tp=7, fp=0, fn=3, tn=0))
        assert math.isnan(scores.specificity)
        assert "specificity" in scores.undefined

    def test_single_class_hss_undefined(self):
        # all-positive truth and prediction: both HSS marginals vanish
        scores = skill_scores(ConfusionMatrix(tp=4, fp=0, fn=0, tn=0))
        assert math.isnan(scores.hss)
        assert "hss" in scores.undefined

    @settings(max_examples=200)
    @given(
        tp=st.integers(0, 500),
        fp=st.integers(0, 500),
        fn=st.integers(0, 500),
        tn=st.integers(0, 500),
    )
    def test_hss_one_iff_diagonal(self, tp, fp, fn, tn):
        if tp + fp + fn + tn == 0:
            return
        scores = skill_scores(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn))
        if math.isnan(scores.hss):
            return
        if scores.hss == 1.0:
            assert fp == 0 and fn == 0
        if fp == 0 and fn == 0 and tp > 0 and tn > 0:
            assert scores.hss == 1.0

    @settings(max_examples=200)
    @given(
        tp=st.integers(0, 500),
        fp=st.integers(0, 500),
        fn=st.integers(0, 500),
        tn=st.integers(0, 500),
    )
    def test_defined_scores_bounded(self, tp, fp, fn, tn):
        if tp + fp + fn + tn == 0:
            return
        scores = skill_scores(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn))
        for name in ("sensitivity", "specificity", "accuracy"):
            value = getattr(scores, name)
            if not math.isnan(value):
                assert 0.0 <= value <= 1.0
        for name in ("tss", "hss"):
            value = getattr(scores, name)
            if not math.isnan(value):
                assert -1.0 <= value <= 1.0

    def test_deterministic_across_calls(self):
        cm = ConfusionMatrix(tp=187, fp=50, fn=9, tn=36)
        first = skill_scores(cm)
        second = skill_scores(cm)
        assert first == second  # bit-identical floats


class TestScoresToDict:
    def test_shape_and_values(self):
        cm = ConfusionMatrix(tp=3, fp=2, fn=1, tn=4)
        document = scores_to_dict(cm)
        assert document["confusion"] == [[3, 2], [1, 4]]
        assert set(document["scores"]) == {
            "sensitivity", "specificity", "accuracy", "tss", "hss",
        }
        assert document["undefined"] == []
        assert document["scores"]["accuracy"] == pytest.approx(0.7)

    def test_undefined_scores_are_null(self):
        document = scores_to_dict(ConfusionMatrix(tp=0, fp=3, fn=0, tn=7))
        assert document["scores"]["sensitivity"] is None
        assert document["scores"]["tss"] is None
        assert document["scores"]["specificity"] == pytest.approx(0.7)
        assert sorted(document["undefined"]) == ["sensitivity", "tss"]
        json.dumps(document, allow_nan=False)
