"""Detection-quality metrics, classification accuracy and the ranking rule."""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classifiers import MlrModel, predict_proba
from .dataset import _whole_numbers


@dataclass(frozen=True)
class DetectionMetrics:
    """ER1 (correct removed), ER2 (mislabeled kept), NEP (removed purity),
    with the removed count and the batch's correct and mislabeled totals.

    A ratio whose denominator is zero is reported as None, never as 0 or 1,
    so aggregation cannot average fictitious values.
    """

    er1: float | None
    er2: float | None
    nep: float | None
    removed: int
    correct_total: int
    mislabeled_total: int


def detection_metrics(removed: np.ndarray, flipped: np.ndarray) -> DetectionMetrics:
    """ER1/ER2/NEP of a batch from two aligned (B,) bool masks: whether each
    instance was removed, and whether its label was truly flipped."""
    removed, flipped = np.asarray(removed), np.asarray(flipped)
    if removed.dtype != bool or flipped.dtype != bool or removed.ndim != 1 or removed.shape != flipped.shape:
        raise ValueError("removed and flipped must be aligned 1-D bool masks")

    n_removed = int(removed.sum())
    mislabeled_total = int(flipped.sum())
    correct_total = len(flipped) - mislabeled_total
    mislabeled_removed = int((removed & flipped).sum())

    return DetectionMetrics(
        er1=(n_removed - mislabeled_removed) / correct_total if correct_total else None,
        er2=(mislabeled_total - mislabeled_removed) / mislabeled_total if mislabeled_total else None,
        nep=mislabeled_removed / n_removed if n_removed else None,
        removed=n_removed,
        correct_total=correct_total,
        mislabeled_total=mislabeled_total,
    )


def accuracy(classifier: MlrModel, features: np.ndarray, labels: Sequence[int]) -> float:
    """Fraction of argmax predictions on ``features`` agreeing with ``labels``."""
    y = _whole_numbers(labels, classifier.n_classes)
    if len(y) == 0:
        raise ValueError("empty test set")
    if len(features) != len(y):
        raise ValueError("features and labels must align")
    return float((predict_proba(classifier, features).argmax(axis=1) == y).mean())


def ranking_auc(scores: Sequence[float], positive: Sequence[bool]) -> float:
    """Probability a positive outranks a negative, ties counted half.

    Rank-sum (Mann-Whitney) formulation with average ranks on ties, read
    off one stable argsort; needs aligned 1-D scores and bool flags, at
    least one positive and one negative, and finite scores.  The rank sums
    are exact half-integers, so the result equals the pair count whatever
    order the ranks are summed in.
    """
    s, pos = np.asarray(scores, dtype=float), np.asarray(positive)
    if pos.dtype != bool:
        raise ValueError(f"positive flags must be bool, got dtype {pos.dtype}")
    if s.ndim != 1 or pos.shape != s.shape:
        raise ValueError("scores and positive flags must be aligned 1-D arrays")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    n_pos = int(pos.sum())
    n_neg = len(s) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need both positive and negative examples")
    order = np.argsort(s, kind="stable")
    ordered = s[order]
    starts_run = np.empty(len(s), dtype=bool)
    starts_run[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts_run[1:])
    first = np.flatnonzero(starts_run)  # 0-based start of each tie run
    last = np.append(first[1:], len(s))  # 1-based rank of the last score of each run
    run_length = last - first
    ranks = np.repeat(last - 0.5 * (run_length - 1), run_length)  # in ascending score order
    u = ranks[pos[order]].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def first_k(ids: Sequence[int], k: int, *keys: np.ndarray) -> np.ndarray:
    """Positions of the ``k`` entries that sort first by ``keys``, the first
    key most significant and ties going to the lower id, in rank order.

    Every ranking in the package follows this rule: every detector removes
    the first ``removal_count`` through :func:`remove_first`, and entropy
    selection queries the first k.

    ``np.lexsort`` sorts by the ids first, and is fastest when they arrive
    as an ascending int array: the detection suite passes its split so.
    """
    ids = np.asarray(ids)
    if not 0 <= k <= len(ids):
        raise ValueError(f"k={k} out of range [0, {len(ids)}]")
    return np.lexsort((ids, *reversed(keys)))[:k]


def remove_first(ids: Sequence[int], removal_count: int, *keys: np.ndarray) -> np.ndarray:
    """The (B,) bool mask of the first ``removal_count`` of the B ``ids`` by
    :func:`first_k` over ``keys``: the removal step of every detector.

    A budget that is a bool, not an integer or outside [0, B] raises
    ValueError, and so does a float key that is not finite, naming the first
    id that has one, since it would rank by NaN's sort order."""
    if not isinstance(removal_count, numbers.Integral) or isinstance(removal_count, bool):
        raise ValueError(f"removal_count must be an integer, got {removal_count!r}")
    if not 0 <= removal_count <= len(ids):
        raise ValueError(f"removal_count {removal_count} out of range [0, {len(ids)}]")
    for key in keys:
        if key.dtype.kind == "f" and not np.isfinite(key).all():
            bad = int(np.argmin(np.isfinite(key)))
            raise ValueError(f"non-finite ranking key {key[bad]} for instance {ids[bad]}")
    removed = np.zeros(len(ids), dtype=bool)
    removed[first_k(ids, removal_count, *keys)] = True
    return removed


def _assigned_classes(ids: Sequence[int], labels: Sequence[int], n_classes: int) -> np.ndarray:
    """``labels`` as an int array, after checking that it is 1-D and holds
    one class in [0, ``n_classes``) per id."""
    assigned = _whole_numbers(labels, n_classes)
    if assigned.ndim != 1:
        raise ValueError(f"assigned labels must be 1-D, got shape {assigned.shape}")
    if len(assigned) != len(ids):
        raise ValueError("ids and assigned labels must align")
    return assigned
