"""Context-based noisy-label detection (CNLD).

For a queried instance labeled k, the dissimilarity score sums, over every
class j, the hinged gap between how far the posterior conditional for the
assigned class drifted from its prior and how far class j's drifted:

    l = (1/n) * sum_j max(KL(post_k || prior_k) - KL(post_j || prior_j), 0)

plus the analogous attribute term weighted 1/m.  A correctly labeled
instance in consistent context makes the assigned class the best-fitting
one, so every hinge clamps to zero.  Scores are normalized into weights
against the batch maximum and thresholded at beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .classifiers import MlrModel
from .dataset import Dataset
from .inference import NoContextError, build_instance_graph, posterior_conditionals
from .relationship import Conditionals, RelationshipModel, prior_conditionals

KEEP = "keep"
REMOVE = "remove"
UNFILTERABLE = "unfilterable"

DEFAULT_BETA = 0.85

# scores at or below this are indistinguishable from zero; snapping them keeps
# the batch-max normalization from amplifying KL rounding noise into removals
SCORE_FLOOR = 1e-12


@dataclass
class DetectionResult:
    """Per-instance scores, weights and verdicts for one queried batch."""

    ids: list[int]
    assigned: np.ndarray
    scores: np.ndarray
    weights: np.ndarray
    verdicts: list[str]
    max_score: float
    beta: float | None = None
    removal_count: int | None = None

    def removed_ids(self) -> set[int]:
        return {i for i, v in zip(self.ids, self.verdicts) if v == REMOVE}

    def kept_ids(self) -> set[int]:
        return {i for i, v in zip(self.ids, self.verdicts) if v != REMOVE}


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL(p[j] || q[j]) for every row j, with 0 * log 0 = 0: a saturated
    classifier gives posteriors with exact zeros."""
    return (p * np.log(np.where(p > 0, p / q, 1.0))).sum(axis=1)


def dissimilarity(prior: Conditionals, posterior, assigned_class: int) -> float:
    """Hinge-summed KL gap of the assigned class against every other class.

    Parts whose evidence is absent (no data edges / no attribute edges) are
    omitted.  Natural-log KL with 0 * log 0 = 0; the prior rows must be
    strictly positive.  A non-finite total raises ValueError.
    """
    n = prior.data_rows.shape[0]
    if not 0 <= assigned_class < n:
        raise ValueError(f"assigned class {assigned_class} out of range [0, {n})")
    total = 0.0
    if posterior.data_rows is not None:
        if posterior.data_rows.shape != prior.data_rows.shape:
            raise ValueError("posterior and prior data conditionals have different shapes")
        kls = _kl_rows(posterior.data_rows, prior.data_rows)
        total += float(np.maximum(kls[assigned_class] - kls, 0.0).sum()) / n
    if posterior.attr_rows is not None:
        if prior.attr_rows is None or posterior.attr_rows.shape != prior.attr_rows.shape:
            raise ValueError("posterior and prior attribute conditionals have different shapes")
        m = prior.attr_rows.shape[1]
        kls = _kl_rows(posterior.attr_rows, prior.attr_rows)
        total += float(np.maximum(kls[assigned_class] - kls, 0.0).sum()) / m
    if not math.isfinite(total):
        raise ValueError(f"non-finite dissimilarity {total} for assigned class {assigned_class}")
    return total if total > SCORE_FLOOR else 0.0


def batch_weights(scores: Sequence[float]) -> np.ndarray:
    """Weights 1 - l/max(l) over a batch; an all-zero batch keeps everything.

    The normalization is undefined at max = 0, and a batch whose every score
    is zero shows no contextual inconsistency, so all weights become 1.
    """
    s = np.asarray(scores, dtype=float)
    if s.size == 0:
        raise ValueError("empty score batch")
    if (s < 0).any():
        raise ValueError("scores must be nonnegative")
    top = float(s.max())
    if top == 0.0:
        return np.ones_like(s)
    return 1.0 - s / top


def _score_batch(
    queried_ids: Sequence[int],
    assigned_labels: Sequence[int],
    dataset: Dataset,
    classifier: MlrModel,
    relationship: RelationshipModel,
) -> tuple[np.ndarray, np.ndarray]:
    """Scores and has-context flags of a queried batch, as both verdict rules
    need them."""
    if len(queried_ids) == 0:
        raise ValueError("empty query set")
    if len(queried_ids) != len(assigned_labels):
        raise ValueError("queried ids and assigned labels must align")
    prior = prior_conditionals(relationship)
    scores = np.zeros(len(queried_ids))
    has_context = np.ones(len(queried_ids), dtype=bool)
    for i, (qid, assigned) in enumerate(zip(queried_ids, assigned_labels)):
        try:
            graph = build_instance_graph(dataset.by_id(qid), dataset, classifier, relationship)
        except NoContextError:
            has_context[i] = False
            continue
        posterior = posterior_conditionals(graph)
        scores[i] = dissimilarity(prior, posterior, int(assigned))
    return scores, has_context


def cnld_detect(
    queried_ids: Sequence[int],
    assigned_labels: Sequence[int],
    dataset: Dataset,
    classifier: MlrModel,
    relationship: RelationshipModel,
    beta: float = DEFAULT_BETA,
) -> DetectionResult:
    """Score a queried batch and keep instances whose weight exceeds beta.

    Instances without any context cannot be checked: they are marked
    unfilterable and kept.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    scores, has_context = _score_batch(queried_ids, assigned_labels, dataset, classifier, relationship)
    weights = batch_weights(scores)
    verdicts = []
    for i in range(len(queried_ids)):
        if not has_context[i]:
            verdicts.append(UNFILTERABLE)
        elif weights[i] > beta:
            verdicts.append(KEEP)
        else:
            verdicts.append(REMOVE)
    return DetectionResult(
        ids=list(queried_ids),
        assigned=np.asarray(assigned_labels, dtype=int),
        scores=scores,
        weights=weights,
        verdicts=verdicts,
        max_score=float(scores.max()),
        beta=beta,
    )


def detect_topk(
    queried_ids: Sequence[int],
    assigned_labels: Sequence[int],
    dataset: Dataset,
    classifier: MlrModel,
    relationship: RelationshipModel,
    removal_count: int,
) -> DetectionResult:
    """Remove exactly the ``removal_count`` highest-scoring instances.

    Ties break toward the lower instance id.  Used when the evaluation
    protocol fixes the removal budget instead of thresholding on beta.
    """
    if removal_count < 0:
        raise ValueError("removal_count must be >= 0")
    if removal_count > len(queried_ids):
        raise ValueError("removal_count exceeds batch size")
    scores, has_context = _score_batch(queried_ids, assigned_labels, dataset, classifier, relationship)
    order = sorted(range(len(queried_ids)), key=lambda i: (-scores[i], queried_ids[i]))
    removed = set(order[:removal_count])
    verdicts = []
    for i in range(len(queried_ids)):
        if i in removed:
            verdicts.append(REMOVE)
        elif has_context[i]:
            verdicts.append(KEEP)
        else:
            verdicts.append(UNFILTERABLE)
    return DetectionResult(
        ids=list(queried_ids),
        assigned=np.asarray(assigned_labels, dtype=int),
        scores=scores,
        weights=batch_weights(scores),
        verdicts=verdicts,
        max_score=float(scores.max()),
        removal_count=removal_count,
    )


def detection_to_csv(
    result: DetectionResult, path: str | Path, flip_mask: Mapping[int, bool] | None = None
) -> None:
    """Write ``id, assigned, l, gamma, verdict[, truly_flipped]`` rows."""
    with Path(path).open("w") as fh:
        header = "id,assigned,l,gamma,verdict"
        if flip_mask is not None:
            header += ",truly_flipped"
        fh.write(header + "\n")
        for i, qid in enumerate(result.ids):
            row = (
                f"{qid},{int(result.assigned[i])},{repr(float(result.scores[i]))},"
                f"{repr(float(result.weights[i]))},{result.verdicts[i]}"
            )
            if flip_mask is not None:
                row += f",{int(bool(flip_mask[qid]))}"
            fh.write(row + "\n")
