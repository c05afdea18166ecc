"""Detection-quality metrics and classification accuracy."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .classifiers import MlrModel, predict_proba


@dataclass
class DetectionMetrics:
    """ER1 (correct removed), ER2 (mislabeled kept), NEP (removed purity).

    A ratio whose denominator is zero is reported as None, never as 0 or 1,
    so aggregation cannot average fictitious values.
    """

    er1: float | None
    er2: float | None
    nep: float | None
    correct_removed: int
    mislabeled_kept: int
    mislabeled_removed: int
    removed: int
    correct_total: int
    mislabeled_total: int


def detection_metrics(removed_ids: Iterable[int], flip_mask: Mapping[int, bool]) -> DetectionMetrics:
    removed = set(removed_ids)
    unknown = removed - set(flip_mask)
    if unknown:
        raise ValueError(f"removed ids not covered by the flip mask: {sorted(unknown)[:5]}")

    mislabeled_total = sum(1 for flipped in flip_mask.values() if flipped)
    correct_total = len(flip_mask) - mislabeled_total
    mislabeled_removed = sum(1 for i in removed if flip_mask[i])
    correct_removed = len(removed) - mislabeled_removed
    mislabeled_kept = mislabeled_total - mislabeled_removed

    return DetectionMetrics(
        er1=correct_removed / correct_total if correct_total else None,
        er2=mislabeled_kept / mislabeled_total if mislabeled_total else None,
        nep=mislabeled_removed / len(removed) if removed else None,
        correct_removed=correct_removed,
        mislabeled_kept=mislabeled_kept,
        mislabeled_removed=mislabeled_removed,
        removed=len(removed),
        correct_total=correct_total,
        mislabeled_total=mislabeled_total,
    )


def accuracy(classifier: MlrModel, features: np.ndarray, labels: Sequence[int]) -> float:
    """Fraction of argmax predictions on ``features`` agreeing with ``labels``."""
    y = np.asarray(labels)
    if len(y) == 0:
        raise ValueError("empty test set")
    if len(features) != len(y):
        raise ValueError("features and labels must align")
    return float((predict_proba(classifier, features).argmax(axis=1) == y).mean())


def ranking_auc(scores: Sequence[float], positive: Sequence[bool]) -> float:
    """Probability a positive outranks a negative, ties counted half.

    Rank-sum (Mann-Whitney) formulation with average ranks on ties; needs at
    least one positive and one negative, and finite scores.
    """
    s = np.asarray(scores, dtype=float)
    pos = np.asarray(positive, dtype=bool)
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    n_pos = int(pos.sum())
    n_neg = len(s) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need both positive and negative examples")
    _, tie_run, run_length = np.unique(s, return_inverse=True, return_counts=True)
    last = np.cumsum(run_length)  # 1-based rank of the last score of each run
    ranks = (last - 0.5 * (run_length - 1))[tie_run]
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))
