"""Binary classification metrics, implemented from scratch.

ROC AUC uses the Mann-Whitney pair statistic with half credit for ties.
PRC AUC is average precision: step integration of the precision-recall
curve over descending-score cut points, with tied scores entering a cut
together. The composite score is a fixed 0.4/0.3/0.3 weighted sum of
ROC AUC, F1, and PRC AUC, reported on a 0-1 scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter

FM_WEIGHTS = (0.4, 0.3, 0.3)  # roc_auc, f1, prc_auc


@dataclass(frozen=True)
class LabeledScore:
    """One classifier output: binary label and a score in [0, 1]."""

    label: int
    score: float

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must be in [0, 1], got {self.score}")


@dataclass(frozen=True)
class MetricReport:
    roc_auc: float
    f1: float
    prc_auc: float
    fm: float


def roc_auc(samples: list[LabeledScore]) -> float:
    """Probability a random positive outscores a random negative (ties: 1/2).

    Computed via average ranks, which is exact and O(n log n); equivalent to
    counting concordant pairs.
    """
    pos = [s.score for s in samples if s.label == 1]
    neg = [s.score for s in samples if s.label == 0]
    if not pos or not neg:
        raise ValueError("roc_auc needs at least one positive and one negative sample")
    rank_sum_pos = 0.0
    i = 0  # samples ranked below the tie group
    for _, group in groupby(sorted(samples, key=attrgetter("score")), key=attrgetter("score")):
        hits = [s.label == 1 for s in group]
        j = i + len(hits)
        rank_sum_pos += (i + 1 + j) / 2.0 * sum(hits)  # the group's 1-based average rank
        i = j
    u = rank_sum_pos - len(pos) * (len(pos) + 1) / 2.0
    return u / (len(pos) * len(neg))


def precision_recall_f1(samples: list[LabeledScore],
                        threshold: float = 0.5) -> tuple[float, float, float]:
    """Confusion-matrix metrics at a threshold (predict 1 iff score >= threshold).

    0/0 convention: precision is 0 with no predicted positives, recall is 0
    with no actual positives, F1 is 0 when precision + recall is 0.
    """
    if not samples:
        raise ValueError("precision_recall_f1 needs at least one sample")
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    tp = fp = fn = 0
    for s in samples:
        pred = 1 if s.score >= threshold else 0
        if pred == 1 and s.label == 1:
            tp += 1
        elif pred == 1:
            fp += 1
        elif s.label == 1:
            fn += 1
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
    return precision, recall, f1


def prc_auc(samples: list[LabeledScore]) -> float:
    """Average precision: sum of precision(k) * delta-recall(k) over cut points.

    Cut points are the distinct scores in descending order; samples sharing a
    score enter the prediction set together.
    """
    n_pos = sum(1 for s in samples if s.label == 1)
    if n_pos == 0:
        raise ValueError("prc_auc needs at least one positive sample")
    ap = prev_recall = 0.0
    tp = taken = 0
    for _, group in groupby(sorted(samples, key=lambda s: -s.score), key=attrgetter("score")):
        hits = [s.label == 1 for s in group]
        tp += sum(hits)
        taken += len(hits)
        recall = tp / n_pos
        precision = tp / taken
        ap += precision * (recall - prev_recall)
        prev_recall = recall
    return ap


def final_metric(roc_auc_value: float, f1_value: float, prc_auc_value: float) -> float:
    """Composite score: 0.4 * ROC AUC + 0.3 * F1 + 0.3 * PRC AUC."""
    for name, v in (("roc_auc", roc_auc_value), ("f1", f1_value), ("prc_auc", prc_auc_value)):
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"{name} must be in [0, 1], got {v}")
    w_roc, w_f1, w_prc = FM_WEIGHTS
    return w_roc * roc_auc_value + w_f1 * f1_value + w_prc * prc_auc_value


def metric_report(samples: list[LabeledScore], threshold: float = 0.5) -> MetricReport:
    auc = roc_auc(samples)
    _, _, f1 = precision_recall_f1(samples, threshold)
    ap = prc_auc(samples)
    return MetricReport(roc_auc=auc, f1=f1, prc_auc=ap, fm=final_metric(auc, f1, ap))
