"""Binary-classification evaluation: confusion counts, P/R/F1, accuracy, AUC.

The positive class is the attack class (label 1). Ratios with a zero
denominator fall back to 0.0 and set the `degenerate` flag on the report,
since tiny folds can legitimately produce empty prediction classes. AUC is
the rank statistic (probability a random positive outscores a random
negative, ties counting one half), which equals the trapezoidal area under
the ROC curve. A report on rows of one class only (an attack-only capture)
has AUC NaN, and is degenerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import elm
from .errors import DataError, ShapeError
from .preprocess import FlowDataset


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise DataError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def _check_binary(vec, name: str) -> np.ndarray:
    """A vector whose values truncate to 0 or 1, as a bool array: one byte
    per row, and no copy of a bool vector."""
    arr = np.asarray(vec)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be a vector")
    if arr.dtype == bool:
        return arr
    if arr.size and not (arr.min() > -1 and arr.max() < 2):
        raise DataError(f"{name} must contain only 0 and 1")
    return arr >= 1


def confusion(y_true, y_pred) -> ConfusionMatrix:
    t = _check_binary(y_true, "y_true")
    p = _check_binary(y_pred, "y_pred")
    if t.shape[0] != p.shape[0]:
        raise ShapeError(f"length mismatch: {t.shape[0]} labels vs {p.shape[0]} predictions")
    if t.shape[0] == 0:
        raise ShapeError("confusion requires at least one sample")
    tp = int(np.count_nonzero(t & p))
    n_true, n_pred = int(np.count_nonzero(t)), int(np.count_nonzero(p))
    return ConfusionMatrix(tp=tp, fp=n_pred - tp, tn=t.shape[0] - n_true - n_pred + tp, fn=n_true - tp)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def prf1(cm: ConfusionMatrix) -> tuple[float, float, float]:
    """Positive-class precision, recall, F1; zero denominators yield 0.0."""
    precision = _ratio(cm.tp, cm.tp + cm.fp)
    recall = _ratio(cm.tp, cm.tp + cm.fn)
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise DataError("accuracy of an empty confusion matrix")
    return (cm.tp + cm.tn) / cm.total


def auc_roc(y_true, scores) -> float:
    """Rank-based AUC; requires both classes present."""
    t = _check_binary(y_true, "y_true")
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.shape[0] != t.shape[0]:
        raise ShapeError(f"scores must be a vector of length {t.shape[0]}")
    n_pos = int(np.count_nonzero(t))
    n_neg = t.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC needs at least one sample of each class")

    # Average 1-based rank: ties span sorted positions [left, right), so
    # their mean 1-based rank is (left + 1 + right) / 2. The positives' sum
    # of left + 1 + right is an exact integer, taken a block of rows at a
    # time, so no temporary but the sorted scores is longer than a block.
    sorted_scores = np.sort(s)
    twice_rank_sum = n_pos
    for start in range(0, s.shape[0], elm._SCORE_ROWS):
        positives = s[start : start + elm._SCORE_ROWS][t[start : start + elm._SCORE_ROWS]]
        twice_rank_sum += int(np.searchsorted(sorted_scores, positives, "left").sum())
        twice_rank_sum += int(np.searchsorted(sorted_scores, positives, "right").sum())
    rank_sum = twice_rank_sum / 2
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class EvalReport:
    """Full evaluation over one labeled set at one decision threshold."""

    confusion: ConfusionMatrix
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc_roc: float
    threshold: float
    n_samples: int
    neg_precision: float
    neg_recall: float
    degenerate: bool


def evaluate(model: elm.ElmModel, test: FlowDataset, threshold: float = 0.5) -> EvalReport:
    """Score once, then report: evaluate_scores on elm.score's scores.

    The test features must already be in model space (selected and scaled).
    """
    return evaluate_scores(test.labels, elm.score(model, test.features), threshold)


def evaluate_scores(labels, scores, threshold: float = 0.5) -> EvalReport:
    """Threshold the scores and fill every report field from the 0/1
    labels and the scores alone, so rows can be scored a chunk at a time
    and only these two vectors kept."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise DataError("cannot evaluate on an empty dataset")
    pred = scores >= threshold
    cm = confusion(labels, pred)
    del pred  # before auc_roc's temporaries
    precision, recall, f1 = prf1(cm)
    neg_precision = _ratio(cm.tn, cm.tn + cm.fn)
    neg_recall = _ratio(cm.tn, cm.tn + cm.fp)
    degenerate = (
        cm.tp + cm.fp == 0
        or cm.tp + cm.fn == 0
        or cm.tn + cm.fn == 0
        or cm.tn + cm.fp == 0
        or precision + recall == 0
    )
    return EvalReport(
        confusion=cm,
        accuracy=accuracy(cm),
        precision=precision,
        recall=recall,
        f1=f1,
        auc_roc=auc_roc(labels, scores) if cm.tp + cm.fn and cm.fp + cm.tn else math.nan,
        threshold=threshold,
        n_samples=cm.total,
        neg_precision=neg_precision,
        neg_recall=neg_recall,
        degenerate=degenerate,
    )
