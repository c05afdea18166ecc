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

from .classifiers import BLOCK_BYTES, MlrModel, predict_proba
from .dataset import Dataset
from .inference import batch_posterior_rows
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
    """KL(p[..., j, :] || q[j, :]) for every row j, with 0 * log 0 = 0: a
    saturated classifier gives posteriors with exact zeros.  A zero in q
    gives inf or NaN, without a warning; the callers raise on it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (p * np.log(np.where(p > 0, p / q, 1.0))).sum(axis=-1)


def _hinge_gaps(posterior: np.ndarray, prior: np.ndarray, assigned: np.ndarray) -> np.ndarray:
    """The hinged KL gap of the assigned class, divided by the number of
    leaf classes, for every star of a (B, n, c) block of posterior rows."""
    kls = _kl_rows(posterior, prior)
    assigned_kl = kls[np.arange(len(kls)), assigned]
    with np.errstate(invalid="ignore"):
        return np.maximum(assigned_kl[:, None] - kls, 0.0).sum(axis=-1) / prior.shape[1]


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
        total += float(_hinge_gaps(posterior.data_rows[None], prior.data_rows, [assigned_class])[0])
    if posterior.attr_rows is not None:
        if prior.attr_rows is None or posterior.attr_rows.shape != prior.attr_rows.shape:
            raise ValueError("posterior and prior attribute conditionals have different shapes")
        total += float(_hinge_gaps(posterior.attr_rows[None], prior.attr_rows, [assigned_class])[0])
    if not math.isfinite(total):
        raise ValueError(f"non-finite dissimilarity {total} for assigned class {assigned_class}")
    return total if total > SCORE_FLOOR else 0.0


def batch_weights(scores: Sequence[float]) -> np.ndarray:
    """Weights 1 - l/max(l) over a batch; an all-zero batch keeps everything.

    The normalization is undefined at max = 0, and a batch whose every score
    is zero shows no contextual inconsistency, so all weights become 1.  A
    non-finite score raises ValueError: NaN would turn every weight NaN.
    """
    s = np.asarray(scores, dtype=float)
    if s.size == 0:
        raise ValueError("empty score batch")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
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
    need them.

    Every star is scored as :func:`dissimilarity` scores the posterior
    conditionals of its instance graph, but block by block over the
    dataset's CSR link and attribute indexes: one classifier call for a
    block's data leaves, :func:`batch_posterior_rows` for its rows and one
    expression for its KL gaps.
    """
    if len(queried_ids) == 0:
        raise ValueError("empty query set")
    if len(queried_ids) != len(assigned_labels):
        raise ValueError("queried ids and assigned labels must align")
    if classifier.n_features != dataset.n_features:
        raise ValueError("classifier feature dimension does not match the dataset")
    if classifier.n_classes != relationship.n_classes:
        raise ValueError("classifier and relationship class counts differ")
    rows = dataset.rows(queried_ids)
    assigned = np.asarray(assigned_labels, dtype=int)
    leaf_rows, link_ptr = dataset.links.gather(rows)
    observations, obs_ptr = dataset.attributes.gather(rows)
    has_context = (np.diff(link_ptr) > 0) | (np.diff(obs_ptr) > 0)
    if obs_ptr[-1] > 0:
        if relationship.attr_counts is None:
            raise ValueError("instance has attribute observations but the relationship model has none")
        if relationship.m_attribute_classes != dataset.m_attribute_classes:
            raise ValueError("relationship and dataset attribute class counts differ")
    n = relationship.n_classes
    out_of_range = has_context & ((assigned < 0) | (assigned >= n))
    if out_of_range.any():
        bad = int(assigned[out_of_range.argmax()])
        raise ValueError(f"assigned class {bad} out of range [0, {n})")
    assigned = np.where(has_context, assigned, 0)  # an unscored label is never checked

    prior = prior_conditionals(relationship)
    data_edge = relationship.data_counts + relationship.epsilon
    attr_edge = None if relationship.attr_counts is None else relationship.attr_counts + relationship.epsilon
    per_leaf = 8 * max(dataset.n_features, n * n, n * relationship.m_attribute_classes)
    leaves_per_block = max(1, BLOCK_BYTES // per_leaf)
    leaves = link_ptr + obs_ptr  # leaves before each star
    scores = np.zeros(len(rows))
    start = 0
    while start < len(rows):
        stop = int(np.searchsorted(leaves, leaves[start] + leaves_per_block, side="right")) - 1
        stop = min(max(stop, start + 1), len(rows))
        block = slice(start, stop)
        a, b = link_ptr[start], link_ptr[stop]
        if b > a:
            potentials = predict_proba(classifier, dataset.features[leaf_rows[a:b]])
            posterior = batch_posterior_rows(data_edge, potentials, link_ptr[start : stop + 1] - a)
            scores[block] += _hinge_gaps(posterior, prior.data_rows, assigned[block])
        a, b = obs_ptr[start], obs_ptr[stop]
        if b > a:
            posterior = batch_posterior_rows(attr_edge, observations[a:b], obs_ptr[start : stop + 1] - a)
            scores[block] += _hinge_gaps(posterior, prior.attr_rows, assigned[block])
        start = stop

    if not np.isfinite(scores).all():
        bad = int(np.argmin(np.isfinite(scores)))
        raise ValueError(f"non-finite dissimilarity {scores[bad]} for assigned class {assigned[bad]}")
    scores[scores <= SCORE_FLOOR] = 0.0
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
    verdicts = np.where(has_context, np.where(weights > beta, KEEP, REMOVE), UNFILTERABLE)
    return DetectionResult(
        ids=list(queried_ids),
        assigned=np.asarray(assigned_labels, dtype=int),
        scores=scores,
        weights=weights,
        verdicts=verdicts.tolist(),
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
    removed = np.zeros(len(scores), dtype=bool)
    removed[np.lexsort((np.asarray(queried_ids), -scores))[:removal_count]] = True
    verdicts = np.where(removed, REMOVE, np.where(has_context, KEEP, UNFILTERABLE))
    return DetectionResult(
        ids=list(queried_ids),
        assigned=np.asarray(assigned_labels, dtype=int),
        scores=scores,
        weights=batch_weights(scores),
        verdicts=verdicts.tolist(),
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
