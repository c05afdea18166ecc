"""Voting and probabilistic noisy-label detectors used for comparison.

Each detector splits in two halves.  The label-free half is a table of
the batch, row b for instance b and column k for label k, built from the
classifier outputs once per set of models: :func:`suspicion_table` for
the probabilistic detector, :func:`voting_table` for the voting pair.
The per-label half gathers each instance's assigned-label entries from
it, ranks the batch by them and removes the first ``removal_count`` by
:func:`metrics.first_k`; ties go to the lower id.  It returns a (B,) bool
mask of the removed instances, aligned with ``ids``.  A key that is not
finite raises ValueError.  Each detector also takes the classifier
outputs in place of their table, and then builds the table first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classifiers import entropy
from .dataset import _read_only, _whole_numbers
from .metrics import first_k


@dataclass(frozen=True, eq=False)
class SuspicionTable:
    """The probabilistic detector's label-free half.  For instance b
    labeled k, ``mismatch[b, k]`` says the classifier's argmax is not k;
    ``suspicion[b, k]`` is then 1 - p(k), and otherwise half the row's
    normalized entropy."""

    mismatch: np.ndarray   # (B, n) bool
    suspicion: np.ndarray  # (B, n)


@dataclass(frozen=True, eq=False)
class VotingTable:
    """The voting pair's label-free half.  For instance b labeled k,
    ``disagreements[b, k]`` counts the ensemble members that predict
    another class, and ``confidence[b, k]`` is the logistic member's p(k)."""

    disagreements: np.ndarray  # (B, n) int
    confidence: np.ndarray     # (B, n)


def _rows(*arrays: np.ndarray) -> None:
    """Raise unless every array is 2-D with the same number of rows."""
    if any(a.ndim != 2 or len(a) != len(arrays[0]) for a in arrays):
        raise ValueError("member predictions and probabilities need one row per instance")


def suspicion_table(proba: np.ndarray) -> SuspicionTable:
    """The :class:`SuspicionTable` of a classifier's class distributions,
    one row per instance."""
    P = np.asarray(proba)
    _rows(P)
    mismatch = P.argmax(axis=1)[:, None] != np.arange(P.shape[1])
    suspicion = np.where(mismatch, 1.0 - P, (0.5 * (entropy(P) / np.log(P.shape[1])))[:, None])
    return SuspicionTable(_read_only(mismatch), _read_only(suspicion))


def voting_table(predictions: np.ndarray, mlr_proba: np.ndarray) -> VotingTable:
    """The :class:`VotingTable` of the ensemble members' class predictions,
    one row per instance as :func:`aux_predictions` returns them, and of the
    logistic member's class distributions."""
    preds, proba = np.asarray(predictions), np.array(mlr_proba)  # a copy: the table is a snapshot
    _rows(preds, proba)
    disagreements = (preds[:, :, None] != np.arange(proba.shape[1])).sum(axis=1)
    return VotingTable(_read_only(disagreements), _read_only(proba))


def _assigned(ids: Sequence[int], assigned: Sequence[int], removal_count: int, table: np.ndarray) -> np.ndarray:
    """The assigned labels as an int array, after checking that ``table``
    holds one row per id and each label is one of its columns, and that
    the budget fits the batch."""
    if len(table) != len(ids):
        raise ValueError("member predictions and probabilities need one row per instance")
    a = _whole_numbers(assigned, table.shape[1])
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


def _voting_detect(min_disagreements: int, table: VotingTable | np.ndarray, cell: tuple) -> np.ndarray:
    """Flagged instances first, then ascending confidence in the assigned
    class.  An instance is flagged when at least ``min_disagreements``
    members predict something other than the assigned label.  ``cell`` is
    ``(ids, assigned, removal_count)`` after a :class:`VotingTable`, or
    ``(mlr_proba, ids, assigned, removal_count)`` after member predictions."""
    if not isinstance(table, VotingTable):
        mlr_proba, *cell = cell
        table = voting_table(table, mlr_proba)
    ids, assigned, removal_count = cell
    a = _assigned(ids, assigned, removal_count, table.confidence)
    rows = np.arange(len(a))
    flagged = table.disagreements[rows, a] >= min_disagreements
    return _removed(ids, removal_count, ~flagged, table.confidence[rows, a])


def majority_detect(table: VotingTable | np.ndarray, *cell) -> np.ndarray:
    """Flag when at least 2 of 3 members disagree with the assigned label.

    Called as ``majority_detect(table, ids, assigned, removal_count)`` with
    a :func:`voting_table`, or as ``majority_detect(predictions, mlr_proba,
    ids, assigned, removal_count)``.
    """
    return _voting_detect(2, table, cell)


def consensus_detect(table: VotingTable | np.ndarray, *cell) -> np.ndarray:
    """Flag only when all 3 members disagree with the assigned label.

    Called as :func:`majority_detect` is.
    """
    return _voting_detect(3, table, cell)


def probabilistic_detect(
    table: SuspicionTable | np.ndarray, ids: Sequence[int], assigned: Sequence[int], removal_count: int
) -> np.ndarray:
    """Suspicion from prediction mismatch and predictive entropy.

    ``table`` is a :func:`suspicion_table`, or the class distributions it is
    built from.  Mismatched instances always outrank matched ones; the
    highest suspicions are removed first.
    """
    if not isinstance(table, SuspicionTable):
        table = suspicion_table(table)
    a = _assigned(ids, assigned, removal_count, table.suspicion)
    rows = np.arange(len(a))
    return _removed(ids, removal_count, ~table.mismatch[rows, a], -table.suspicion[rows, a])
