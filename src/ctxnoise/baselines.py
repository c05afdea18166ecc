"""Voting and probabilistic noisy-label detectors used for comparison.

Each detector ranks a batch by keys computed from label-free classifier
outputs and the assigned labels, and removes the first ``removal_count``
by :func:`metrics.first_k`; ties go to the lower id.  It returns a (B,)
bool mask of the removed instances, aligned with ``ids``.  A key that is
not finite raises ValueError.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .classifiers import entropy
from .dataset import _whole_numbers
from .metrics import first_k


def _checked(
    ids: Sequence[int], assigned: Sequence[int], removal_count: int, proba: np.ndarray, *rows: np.ndarray
) -> np.ndarray:
    """The assigned labels as an int array, after checking that they,
    ``proba`` and every array of ``rows`` hold one entry per id, that each
    label is a column of ``proba``, and that the budget fits the batch."""
    if any(r.ndim != 2 or len(r) != len(ids) for r in (proba, *rows)):
        raise ValueError("member predictions and probabilities need one row per instance")
    a = _whole_numbers(assigned, proba.shape[1])
    if len(a) != len(ids):
        raise ValueError("ids and assigned labels must align")
    if not 0 <= removal_count <= len(ids):
        raise ValueError("removal_count out of range")
    return a


def _removed(ids: Sequence[int], removal_count: int, unflagged: np.ndarray, key: np.ndarray) -> np.ndarray:
    """The (B,) mask of the first ``removal_count`` ids by ``first_k`` over
    ``(unflagged, key)``; a key that is not finite raises ValueError naming
    the first id that has one, since it would rank by NaN's sort order."""
    finite = np.isfinite(key)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"non-finite ranking key {key[bad]} for instance {ids[bad]}")
    removed = np.zeros(len(key), dtype=bool)
    removed[first_k(ids, removal_count, unflagged, key)] = True
    return removed


def _voting_detect(predictions, mlr_proba, ids, assigned, removal_count, min_disagreements) -> np.ndarray:
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
    a = _checked(ids, assigned, removal_count, proba, preds)
    flagged = (preds != a[:, None]).sum(axis=1) >= min_disagreements
    return _removed(ids, removal_count, ~flagged, proba[np.arange(len(a)), a])


def majority_detect(
    predictions: np.ndarray,
    mlr_proba: np.ndarray,
    ids: Sequence[int],
    assigned: Sequence[int],
    removal_count: int,
) -> np.ndarray:
    """Flag when at least 2 of 3 members disagree with the assigned label."""
    return _voting_detect(predictions, mlr_proba, ids, assigned, removal_count, 2)


def consensus_detect(
    predictions: np.ndarray,
    mlr_proba: np.ndarray,
    ids: Sequence[int],
    assigned: Sequence[int],
    removal_count: int,
) -> np.ndarray:
    """Flag only when all 3 members disagree with the assigned label."""
    return _voting_detect(predictions, mlr_proba, ids, assigned, removal_count, 3)


def probabilistic_detect(
    proba: np.ndarray, ids: Sequence[int], assigned: Sequence[int], removal_count: int
) -> np.ndarray:
    """Suspicion from prediction mismatch and predictive entropy.

    ``proba`` holds the classifier's class distributions, one row per id.
    Mismatched instances score 1 - p(assigned) and always outrank matched
    ones, which score half their normalized entropy; the highest scores are
    removed first.
    """
    P = np.asarray(proba)
    a = _checked(ids, assigned, removal_count, P)
    mismatch = P.argmax(axis=1) != a
    s = np.where(mismatch, 1.0 - P[np.arange(len(a)), a], 0.5 * (entropy(P) / np.log(P.shape[1])))
    return _removed(ids, removal_count, ~mismatch, -s)
