"""Regression error metrics and binary skill scores.

Skill scores are computed in exact rational arithmetic (the confusion
counts are integers) and promoted to float only at the end, so identical
matrices always give bit-identical scores.  A score whose denominator is
zero is undefined: it is NaN in :class:`SkillScores` and ``null`` in the
JSON of :func:`scores_to_dict`, and is named in ``undefined`` rather than
being silently clamped to 0.  An MAE or MSE that overflows on finite
inputs raises :class:`~pifmap.errors.NonFiniteResult`, and warns of nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    EmptyInput,
    LengthMismatch,
    NonBinaryLabel,
    NonFiniteInput,
    NonFiniteResult,
)

__all__ = [
    "mae",
    "mse",
    "ConfusionMatrix",
    "confusion",
    "SkillScores",
    "skill_scores",
    "scores_to_dict",
]


def _check_pair(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise LengthMismatch(
            f"shapes differ: {y_true.shape} vs {y_pred.shape}"
        )
    if y_true.size == 0:
        raise EmptyInput("no values to score")
    return y_true, y_pred


def _mean_error(total, y_true: np.ndarray, y_pred: np.ndarray, axis):
    """``total`` over the entries it sums, np.mean's own steps, once the
    sums are known finite.

    ``total`` sums one non-negative error term per entry: of all of them
    (``axis`` None) or along ``axis``, one sum per item of a stack.  A NaN
    or infinite input makes its term, and so the sum, non-finite, so finite
    sums show the inputs finite with no pass of their own; only a sum that
    is not finite needs the elementwise test, which tells a non-finite
    input (:class:`~pifmap.errors.NonFiniteInput`) from finite terms that
    overflow (:class:`~pifmap.errors.NonFiniteResult`).
    """
    if not np.isfinite(total).all():
        if not (np.isfinite(y_true).all() and np.isfinite(y_pred).all()):
            raise NonFiniteInput("metric inputs contain non-finite values")
        raise NonFiniteResult("the error of finite values overflows")
    return total / (y_true.size if axis is None else y_true.shape[axis])


def _errors(y_true, y_pred, *terms, axis=None) -> list:
    """The mean of each ``term(y_true - y_pred)``, in order.

    The pair is checked, and the residual formed, once for all the terms.
    With ``axis=-1`` a stack of pairs gives one mean per item, each the sum
    of its contiguous row, the same sum a single pair gives.
    """
    y_true, y_pred = _check_pair(y_true, y_pred)
    # an overflow is raised by _mean_error, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        residual = y_true - y_pred
        totals = [term(residual).sum(axis=axis) for term in terms]
    return [_mean_error(total, y_true, y_pred, axis) for total in totals]


def mae(y_true, y_pred) -> float:
    return float(_errors(y_true, y_pred, np.abs)[0])


def mse(y_true, y_pred) -> float:
    return float(_errors(y_true, y_pred, np.square)[0])


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary confusion counts; :func:`scores_to_dict` writes them as
    ``[[tp, fp], [fn, tn]]``."""

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "fn", "tn"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer")
            object.__setattr__(self, name, int(value))
        if self.total == 0:
            raise EmptyInput("confusion matrix is empty")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(y_true, y_pred) -> ConfusionMatrix:
    """Count agreement between two {0, 1} label vectors."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise LengthMismatch(f"shapes differ: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise EmptyInput("no labels to compare")
    for name, values in (("y_true", y_true), ("y_pred", y_pred)):
        if not np.isin(values, (0, 1)).all():
            raise NonBinaryLabel(f"{name} contains values other than 0 and 1")
    y_true = y_true.astype(int)
    y_pred = y_pred.astype(int)
    return ConfusionMatrix(
        tp=int(np.sum((y_true == 1) & (y_pred == 1))),
        fp=int(np.sum((y_true == 0) & (y_pred == 1))),
        fn=int(np.sum((y_true == 1) & (y_pred == 0))),
        tn=int(np.sum((y_true == 0) & (y_pred == 0))),
    )


@dataclass(frozen=True)
class SkillScores:
    sensitivity: float
    specificity: float
    accuracy: float
    tss: float
    hss: float
    undefined: tuple[str, ...] = ()


def _ratio(numerator: int, denominator: int) -> Fraction | None:
    if denominator == 0:
        return None
    return Fraction(numerator, denominator)


def skill_scores(cm: ConfusionMatrix) -> SkillScores:
    """Sensitivity, specificity, accuracy, TSS and HSS from the counts.

    TSS = sensitivity + specificity - 1.  HSS uses
    ``2*(tp*tn - fn*fp) / ((tp+fn)*(fn+tn) + (tp+fp)*(fp+tn))``.
    """
    tp, fp, fn, tn = cm.tp, cm.fp, cm.fn, cm.tn
    sens = _ratio(tp, tp + fn)
    spec = _ratio(tn, tn + fp)
    acc = _ratio(tp + tn, cm.total)
    tss = sens + spec - 1 if (sens is not None and spec is not None) else None
    hss_denominator = (tp + fn) * (fn + tn) + (tp + fp) * (fp + tn)
    hss = (
        Fraction(2 * (tp * tn - fn * fp), hss_denominator)
        if hss_denominator != 0
        else None
    )
    named = {
        "sensitivity": sens,
        "specificity": spec,
        "accuracy": acc,
        "tss": tss,
        "hss": hss,
    }
    undefined = tuple(name for name, value in named.items() if value is None)
    as_float = {
        name: (float(value) if value is not None else math.nan)
        for name, value in named.items()
    }
    return SkillScores(undefined=undefined, **as_float)


def scores_to_dict(cm: ConfusionMatrix) -> dict:
    """JSON-ready scores; an undefined score is ``None`` (JSON ``null``)."""
    scores = skill_scores(cm)
    return {
        "confusion": [[cm.tp, cm.fp], [cm.fn, cm.tn]],
        "scores": {
            name: None if math.isnan(value) else value
            for name, value in (
                ("sensitivity", scores.sensitivity),
                ("specificity", scores.specificity),
                ("accuracy", scores.accuracy),
                ("tss", scores.tss),
                ("hss", scores.hss),
            )
        },
        "undefined": list(scores.undefined),
    }
