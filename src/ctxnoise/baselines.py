"""Voting and probabilistic noisy-label detectors used for comparison."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classifiers import AuxEnsemble, MlrModel, aux_predictions, predict_proba
from .dataset import Instance


@dataclass
class BaselineScore:
    instance_id: int
    disagreements: tuple[bool, ...]  # per ensemble member, prediction != assigned
    score: float
    rank: int  # 0 = removed first


def _features(instances: Sequence[Instance]) -> np.ndarray:
    return np.stack([inst.features for inst in instances])


def voting_scores(
    ensemble: AuxEnsemble,
    instances: Sequence[Instance],
    assigned: Sequence[int],
    min_disagreements: int,
) -> list[BaselineScore]:
    """Rank suspects: flagged instances first, then ascending confidence in
    the assigned class, ties toward the lower id.

    An instance is flagged when at least ``min_disagreements`` of the three
    members predict something other than the assigned label.
    """
    if ensemble is None:
        raise ValueError("ensemble is not trained")
    if len(instances) != len(assigned):
        raise ValueError("instances and assigned labels must align")
    X = _features(instances)
    a = np.asarray(assigned, dtype=int)
    preds = aux_predictions(ensemble, X)
    disagree = preds != a[:, None]
    flagged = disagree.sum(axis=1) >= min_disagreements
    p_assigned = predict_proba(ensemble.mlr, X)[np.arange(len(a)), a]

    order = sorted(
        range(len(instances)),
        key=lambda i: (not flagged[i], p_assigned[i], instances[i].id),
    )
    scores = [None] * len(instances)
    for rank, i in enumerate(order):
        scores[i] = BaselineScore(
            instance_id=instances[i].id,
            disagreements=tuple(bool(v) for v in disagree[i]),
            score=float(flagged[i]) + float(1.0 - p_assigned[i]),
            rank=rank,
        )
    return scores


def _removed_by_rank(scores: list[BaselineScore], removal_count: int) -> set[int]:
    if removal_count < 0 or removal_count > len(scores):
        raise ValueError("removal_count out of range")
    return {s.instance_id for s in scores if s.rank < removal_count}


def majority_detect(
    ensemble: AuxEnsemble, instances: Sequence[Instance], assigned: Sequence[int], removal_count: int
) -> set[int]:
    """Flag when at least 2 of 3 members disagree with the assigned label."""
    return _removed_by_rank(voting_scores(ensemble, instances, assigned, 2), removal_count)


def consensus_detect(
    ensemble: AuxEnsemble, instances: Sequence[Instance], assigned: Sequence[int], removal_count: int
) -> set[int]:
    """Flag only when all 3 members disagree with the assigned label."""
    return _removed_by_rank(voting_scores(ensemble, instances, assigned, 3), removal_count)


def probabilistic_scores(
    classifier: MlrModel, instances: Sequence[Instance], assigned: Sequence[int]
) -> list[BaselineScore]:
    """Suspicion from prediction mismatch and predictive entropy.

    Mismatched instances score 1 - p(assigned) and always outrank matched
    ones, which score half their normalized entropy; ties fall to the lower
    id.
    """
    if classifier is None:
        raise ValueError("classifier is not trained")
    if len(instances) != len(assigned):
        raise ValueError("instances and assigned labels must align")
    X = _features(instances)
    a = np.asarray(assigned, dtype=int)
    P = predict_proba(classifier, X)
    n = P.shape[1]
    mismatch = P.argmax(axis=1) != a
    entropy = -(P * np.log(np.where(P > 0, P, 1.0))).sum(axis=1) / np.log(n)  # 0 * log 0 = 0
    s = np.where(mismatch, 1.0 - P[np.arange(len(a)), a], 0.5 * entropy)

    order = sorted(
        range(len(instances)),
        key=lambda i: (not mismatch[i], -s[i], instances[i].id),
    )
    scores = [None] * len(instances)
    for rank, i in enumerate(order):
        scores[i] = BaselineScore(
            instance_id=instances[i].id,
            disagreements=(bool(mismatch[i]),),
            score=float(s[i]),
            rank=rank,
        )
    return scores


def probabilistic_detect(
    classifier: MlrModel, instances: Sequence[Instance], assigned: Sequence[int], removal_count: int
) -> set[int]:
    return _removed_by_rank(probabilistic_scores(classifier, instances, assigned), removal_count)
