"""Voting and probabilistic noisy-label detectors used for comparison.

Each detector ranks a batch by keys computed from label-free classifier
outputs and the assigned labels, and removes the first ``removal_count``
ids; ties go to the lower id.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .classifiers import entropy


def _first(ids: Sequence[int], removal_count: int, *keys: np.ndarray) -> set[int]:
    """The ``removal_count`` ids that sort first by ``keys``, the first key
    most significant, ties going to the lower id."""
    ids = np.asarray(ids)
    if not 0 <= removal_count <= len(ids):
        raise ValueError("removal_count out of range")
    order = np.lexsort((ids, *reversed(keys)))
    return set(ids[order[:removal_count]].tolist())


def _checked(ids: Sequence[int], assigned: Sequence[int], *rows: np.ndarray) -> np.ndarray:
    """The assigned labels as an int array, after checking that they and
    every array of ``rows`` hold one entry per id."""
    a = np.asarray(assigned, dtype=int)
    if len(a) != len(ids):
        raise ValueError("ids and assigned labels must align")
    if any(r.ndim != 2 or len(r) != len(ids) for r in rows):
        raise ValueError("member predictions and probabilities need one row per instance")
    return a


def _voting_detect(predictions, mlr_proba, ids, assigned, removal_count, min_disagreements) -> set[int]:
    """Flagged instances first, then ascending confidence in the assigned
    class.

    ``predictions`` holds the ensemble members' class predictions, one row
    per instance as :func:`aux_predictions` returns them, and ``mlr_proba``
    the logistic member's class distributions.  Neither depends on the
    assigned labels, so one pair serves every noise level.  An instance is
    flagged when at least ``min_disagreements`` members predict something
    other than the assigned label.
    """
    preds, proba = np.asarray(predictions), np.asarray(mlr_proba)
    a = _checked(ids, assigned, preds, proba)
    flagged = (preds != a[:, None]).sum(axis=1) >= min_disagreements
    return _first(ids, removal_count, ~flagged, proba[np.arange(len(a)), a])


def majority_detect(
    predictions: np.ndarray,
    mlr_proba: np.ndarray,
    ids: Sequence[int],
    assigned: Sequence[int],
    removal_count: int,
) -> set[int]:
    """Flag when at least 2 of 3 members disagree with the assigned label."""
    return _voting_detect(predictions, mlr_proba, ids, assigned, removal_count, 2)


def consensus_detect(
    predictions: np.ndarray,
    mlr_proba: np.ndarray,
    ids: Sequence[int],
    assigned: Sequence[int],
    removal_count: int,
) -> set[int]:
    """Flag only when all 3 members disagree with the assigned label."""
    return _voting_detect(predictions, mlr_proba, ids, assigned, removal_count, 3)


def probabilistic_detect(
    proba: np.ndarray, ids: Sequence[int], assigned: Sequence[int], removal_count: int
) -> set[int]:
    """Suspicion from prediction mismatch and predictive entropy.

    ``proba`` holds the classifier's class distributions, one row per id.
    Mismatched instances score 1 - p(assigned) and always outrank matched
    ones, which score half their normalized entropy; the highest scores are
    removed first.
    """
    P = np.asarray(proba)
    a = _checked(ids, assigned, P)
    mismatch = P.argmax(axis=1) != a
    s = np.where(mismatch, 1.0 - P[np.arange(len(a)), a], 0.5 * (entropy(P) / np.log(P.shape[1])))
    return _first(ids, removal_count, ~mismatch, -s)
