"""Voting and probabilistic noisy-label detectors used for comparison.

Each detector splits in two halves.  The label-free half is a table of
the batch, row b for instance b and column k for label k, built from the
classifier outputs once per set of models: :func:`suspicion_table` for
the probabilistic detector, :func:`voting_table` for the voting pair.
The per-label half gathers each instance's assigned-label entries from
it and removes the first ``removal_count`` by them with
:func:`metrics.remove_first`; ties go to the lower id.  It returns a (B,)
bool mask of the removed instances, aligned with ``ids``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classifiers import entropy
from .dataset import _read_only, _whole_numbers
from .metrics import _assigned_classes, remove_first


def _freeze(table, names: tuple[str, str]) -> np.ndarray:
    """Copy a table's two fields into read-only arrays, after checking that
    they are 2-D, of one (B, n) shape, with a column for each of at least 2
    classes; returns the first."""
    first, second = (np.array(getattr(table, name)) for name in names)
    if first.ndim != 2 or first.shape != second.shape:
        raise ValueError(f"{names[0]} and {names[1]} need one (B, n) shape, got {first.shape} and {second.shape}")
    if first.shape[1] < 2:
        raise ValueError(f"class distributions need at least 2 classes, got {first.shape[1]}")
    for name, array in zip(names, (first, second)):
        object.__setattr__(table, name, _read_only(array))
    return first


@dataclass(frozen=True, eq=False)
class SuspicionTable:
    """The probabilistic detector's label-free half.  For instance b
    labeled k, ``mismatch[b, k]`` says the classifier's argmax is not k;
    ``suspicion[b, k]`` is then 1 - p(k), and otherwise half the row's
    normalized entropy.  Construction checks the arrays and copies them
    into read-only ones."""

    mismatch: np.ndarray   # (B, n) bool
    suspicion: np.ndarray  # (B, n)

    def __post_init__(self) -> None:
        mismatch = _freeze(self, ("mismatch", "suspicion"))
        if mismatch.dtype != bool:
            raise ValueError(f"mismatch must be bool, got dtype {mismatch.dtype}")


@dataclass(frozen=True, eq=False)
class VotingTable:
    """The voting pair's label-free half.  For instance b labeled k,
    ``disagreements[b, k]`` counts the ensemble members that predict
    another class, and ``confidence[b, k]`` is the logistic member's p(k).
    Construction checks the arrays, each count a whole number from 0 to 3,
    and copies them into read-only ones."""

    disagreements: np.ndarray  # (B, n) int
    confidence: np.ndarray     # (B, n)

    def __post_init__(self) -> None:
        _whole_numbers(_freeze(self, ("disagreements", "confidence")), 4, what="disagreements")


def suspicion_table(proba: np.ndarray) -> SuspicionTable:
    """The :class:`SuspicionTable` of a classifier's class distributions,
    one row per instance."""
    P = np.asarray(proba)
    mismatch = P.argmax(axis=-1)[..., None] != np.arange(P.shape[-1])
    with np.errstate(divide="ignore", invalid="ignore"):  # one class divides by log 1 = 0; the table rejects it
        suspicion = np.where(mismatch, 1.0 - P, (0.5 * (entropy(P) / np.log(P.shape[-1])))[..., None])
    return SuspicionTable(mismatch, suspicion)


def voting_table(predictions: np.ndarray, mlr_proba: np.ndarray) -> VotingTable:
    """The :class:`VotingTable` of the ensemble members' class predictions,
    one row per instance as :func:`aux_predictions` returns them, and of the
    logistic member's class distributions."""
    preds, proba = np.asarray(predictions), np.asarray(mlr_proba)
    if preds.ndim != 2 or proba.ndim != 2 or len(preds) != len(proba):
        raise ValueError("member predictions and probabilities need one row per instance")
    preds = _whole_numbers(preds, proba.shape[1])
    disagreements = (preds[:, :, None] != np.arange(proba.shape[1])).sum(axis=1)
    return VotingTable(disagreements, proba)


def _assigned(ids: Sequence[int], assigned: Sequence[int], table: np.ndarray) -> np.ndarray:
    """The assigned labels as an int array, after checking that ``table``
    holds one row per id and each label is one of its columns."""
    if len(table) != len(ids):
        raise ValueError(f"table has {len(table)} rows for {len(ids)} ids")
    return _assigned_classes(ids, assigned, table.shape[1])


def _voting_detect(
    table: VotingTable, ids: Sequence[int], assigned: Sequence[int], removal_count: int, min_disagreements: int
) -> np.ndarray:
    """Flagged instances first, then ascending confidence in the assigned
    class.  An instance is flagged when at least ``min_disagreements``
    members predict something other than the assigned label."""
    a = _assigned(ids, assigned, table.confidence)
    rows = np.arange(len(a))
    flagged = table.disagreements[rows, a] >= min_disagreements
    return remove_first(ids, removal_count, ~flagged, table.confidence[rows, a])


def majority_detect(table: VotingTable, ids: Sequence[int], assigned: Sequence[int], removal_count: int) -> np.ndarray:
    """Flag when at least 2 of 3 members disagree with the assigned label;
    ``table`` is a :func:`voting_table`."""
    return _voting_detect(table, ids, assigned, removal_count, 2)


def consensus_detect(table: VotingTable, ids: Sequence[int], assigned: Sequence[int], removal_count: int) -> np.ndarray:
    """Flag only when all 3 members disagree with the assigned label;
    ``table`` is a :func:`voting_table`."""
    return _voting_detect(table, ids, assigned, removal_count, 3)


def probabilistic_detect(
    table: SuspicionTable, ids: Sequence[int], assigned: Sequence[int], removal_count: int
) -> np.ndarray:
    """Suspicion from prediction mismatch and predictive entropy.

    ``table`` is a :func:`suspicion_table`.  Mismatched instances always
    outrank matched ones; the highest suspicions are removed first.
    """
    a = _assigned(ids, assigned, table.suspicion)
    rows = np.arange(len(a))
    return remove_first(ids, removal_count, ~table.mismatch[rows, a], -table.suspicion[rows, a])
