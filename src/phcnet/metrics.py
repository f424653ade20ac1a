"""Evaluation metrics: ROC AUC and paired AUC differences, accuracy, Dice.

AUC uses the Mann-Whitney formulation, (concordant + 0.5 * tied) / (P*N),
computed exactly in O(n log n) from each exam's placement among the other
class rather than a thresholded ROC grid.  The same placements give the
paired DeLong standard error of the AUC difference of two scorings of the
same exams (DeLong, DeLong & Clarke-Pearson, Biometrics 44:837, 1988).
"""

from __future__ import annotations

import numpy as np

from .errors import MetricError, ShapeError


def _placements(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Each positive's count of negatives scored below it and each negative's
    count of positives scored above it, a tie counting one half.  Every count
    and partial sum is a multiple of 1/2, so sums of them are exact."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ShapeError(f"auc: got shapes {scores.shape} and {labels.shape}")
    pos = labels == 1
    p = int(pos.sum())
    if p == 0 or p == labels.size:
        raise MetricError("auc is undefined without both classes present")
    if not np.isfinite(scores).all():
        raise MetricError("auc needs finite scores")
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    pos_in = np.bincount(group[pos], minlength=counts.size)  # positives per tie group
    neg_in = counts - pos_in
    below = np.cumsum(neg_in) - 0.5 * neg_in
    above = p - np.cumsum(pos_in) + 0.5 * pos_in
    return below[group[pos]], above[group[~pos]]


def auc(scores, labels) -> float:
    below, above = _placements(scores, labels)
    return float(below.sum() / (below.size * above.size))


def auc_difference(scores_a, scores_b, labels) -> tuple[float, float]:
    """``auc(scores_a, labels) - auc(scores_b, labels)`` for two scorings of
    the same exams, and its paired DeLong standard error; needs at least two
    exams of each class."""
    below_a, above_a = _placements(scores_a, labels)
    below_b, above_b = _placements(scores_b, labels)
    p, n = below_a.size, above_a.size
    if min(p, n) < 2:
        raise MetricError(f"a paired AUC difference needs 2 exams of each class, "
                          f"got {p} positive and {n} negative")
    var = (np.var((below_a - below_b) / n, ddof=1) / p
           + np.var((above_a - above_b) / p, ddof=1) / n)
    return auc(scores_a, labels) - auc(scores_b, labels), float(np.sqrt(var))


def accuracy(probs, labels) -> float:
    """Percentage of correct hard decisions at probability 0.5; ties go positive."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.shape != labels.shape:
        raise ShapeError(f"accuracy: got shapes {probs.shape} and {labels.shape}")
    preds = (probs >= 0.5).astype(labels.dtype)
    return float((preds == labels).mean() * 100.0)


def dice(pred, truth) -> float:
    """2|P & T| / (|P| + |T|) on binary masks; 1.0 when both are empty."""
    pred = np.asarray(pred).astype(bool)
    truth = np.asarray(truth).astype(bool)
    if pred.shape != truth.shape:
        raise ShapeError(f"dice: got shapes {pred.shape} and {truth.shape}")
    total = int(pred.sum()) + int(truth.sum())
    if total == 0:
        return 1.0
    return float(2.0 * np.logical_and(pred, truth).sum() / total)
