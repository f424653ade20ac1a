"""Evaluation metrics: ROC AUC, accuracy, Dice.

AUC uses the Mann-Whitney formulation, (concordant + 0.5 * tied) / (P*N),
computed exactly in O(n log n) via rank sums with tie-group averaging
rather than a thresholded ROC grid.
"""

from __future__ import annotations

import numpy as np

from .errors import MetricError, ShapeError


def auc(scores, labels) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ShapeError(f"auc: got shapes {scores.shape} and {labels.shape}")
    pos = labels == 1
    p = int(pos.sum())
    n = int(labels.size - p)
    if p == 0 or n == 0:
        raise MetricError("auc is undefined without both classes present")
    if not np.isfinite(scores).all():
        raise MetricError("auc needs finite scores")
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[group]  # average 1-based rank
    rank_sum = ranks[pos].sum()
    return float((rank_sum - p * (p + 1) / 2.0) / (p * n))


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
