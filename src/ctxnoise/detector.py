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
from typing import Sequence

import numpy as np

from .classifiers import BLOCK_BYTES, MlrModel, predict_proba
from .dataset import Dataset, _read_only, _whole_numbers
from .inference import batch_posterior_rows, leaf_marginals, star_posterior_rows
from .metrics import first_k
from .relationship import Conditionals, RelationshipModel, prior_conditionals

DEFAULT_BETA = 0.85

# scores at or below this are indistinguishable from zero; snapping them keeps
# the batch-max normalization from amplifying KL rounding noise into removals
SCORE_FLOOR = 1e-12


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL(p[..., j, :] || q[j, :]) for every row j, with 0 * log 0 = 0: a
    saturated classifier gives posteriors with exact zeros.  A zero in q
    gives inf or NaN, without a warning; the callers raise on it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (p * np.log(np.where(p > 0, p / q, 1.0))).sum(axis=-1)


def _hinge(kls: np.ndarray, assigned, leaf_classes: int) -> np.ndarray:
    """The hinged KL gap of the assigned class, divided by the number of
    leaf classes, for every star of a (B, n) table of KL rows."""
    assigned_kl = kls[np.arange(len(kls)), assigned]
    with np.errstate(invalid="ignore"):
        return np.maximum(assigned_kl[:, None] - kls, 0.0).sum(axis=-1) / leaf_classes


def dissimilarity(prior: Conditionals, posterior, assigned_class: int) -> float:
    """Hinge-summed KL gap of the assigned class against every other class.

    Parts whose evidence is absent (no data edges / no attribute edges) are
    omitted.  Natural-log KL with 0 * log 0 = 0; the prior rows must be
    strictly positive.  A non-finite total raises ValueError.
    """
    n = prior.data_rows.shape[0]
    assigned = _whole_numbers([assigned_class], n)
    total = 0.0
    if posterior.data_rows is not None:
        if posterior.data_rows.shape != prior.data_rows.shape:
            raise ValueError("posterior and prior data conditionals have different shapes")
        total += float(_hinge(_kl_rows(posterior.data_rows, prior.data_rows)[None], assigned, n)[0])
    if posterior.attr_rows is not None:
        if prior.attr_rows is None or posterior.attr_rows.shape != prior.attr_rows.shape:
            raise ValueError("posterior and prior attribute conditionals have different shapes")
        m = prior.attr_rows.shape[1]
        total += float(_hinge(_kl_rows(posterior.attr_rows, prior.attr_rows)[None], assigned, m)[0])
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


@dataclass(frozen=True, eq=False)
class StarDivergences:
    """The label-free half of scoring a queried batch, row b for ``ids[b]``.

    ``data_kl[b, j]`` is KL(post_j || prior_j) of star b's data leaves with
    its center clamped to class j, and ``attr_kl`` the same for its
    attribute leaves; a star without leaves of a kind has a zero row, and a
    table is None when no star of the batch has leaves of its kind.  Only
    the hinge against the assigned class reads labels, so one table serves
    every label vector of the same stars and models.
    """

    ids: np.ndarray            # (B,)
    has_context: np.ndarray    # (B,) bool: the star has any leaf
    data_kl: np.ndarray | None  # (B, n)
    attr_kl: np.ndarray | None  # (B, n)
    n_classes: int
    m_attribute_classes: int


def star_divergences(
    queried_ids: Sequence[int],
    dataset: Dataset,
    classifier: MlrModel,
    relationship: RelationshipModel,
) -> StarDivergences:
    """KL rows of every queried star: row j is KL(post_j || prior_j), the
    term :func:`dissimilarity` hinges, of its posterior conditionals.

    A data leaf's clamped marginals depend only on its neighbour, so each
    distinct neighbour of the batch is predicted and normalized once, in
    blocks, into a table of one n x n block per neighbour.  Stars are then
    scored block by block over the dataset's CSR link and attribute indexes:
    :func:`star_posterior_rows` of a block's data leaves, gathered from the
    table, :func:`batch_posterior_rows` of its attribute leaves, and one
    expression for its KL rows.
    """
    if len(queried_ids) == 0:
        raise ValueError("empty query set")
    if classifier.n_features != dataset.n_features:
        raise ValueError("classifier feature dimension does not match the dataset")
    if classifier.n_classes != relationship.n_classes:
        raise ValueError("classifier and relationship class counts differ")
    ids = _whole_numbers(queried_ids, what="ids")
    rows = dataset.rows(ids)
    leaf_rows, link_ptr = dataset.links.gather(rows)
    observations, obs_ptr = dataset.attributes.gather(rows)
    if obs_ptr[-1] > 0:
        if relationship.attr_counts is None:
            raise ValueError("instance has attribute observations but the relationship model has none")
        if relationship.m_attribute_classes != dataset.m_attribute_classes:
            raise ValueError("relationship and dataset attribute class counts differ")
    n = relationship.n_classes

    prior = prior_conditionals(relationship)
    data_edge = relationship.data_counts + relationship.epsilon
    attr_edge = None if relationship.attr_counts is None else relationship.attr_counts + relationship.epsilon
    data_kl = np.zeros((len(rows), n)) if link_ptr[-1] > 0 else None
    attr_kl = np.zeros((len(rows), n)) if obs_ptr[-1] > 0 else None
    per_leaf = 8 * max(dataset.n_features, n * n, n * relationship.m_attribute_classes)
    leaves_per_block = max(1, BLOCK_BYTES // per_leaf)
    if data_kl is not None:
        # equal blocks, so that none holds one row where the batch has more:
        # numpy sends a one-row product to BLAS gemv, which rounds otherwise
        neighbours, occurrence = np.unique(leaf_rows, return_inverse=True)
        table, parts = np.empty((len(neighbours), n, n)), -(-len(neighbours) // leaves_per_block)
        bounds = [i * len(neighbours) // parts for i in range(parts + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            table[lo:hi] = leaf_marginals(data_edge, predict_proba(classifier, dataset.features[neighbours[lo:hi]]))
    leaves = link_ptr + obs_ptr  # leaves before each star
    start = 0
    while start < len(rows):
        stop = int(np.searchsorted(leaves, leaves[start] + leaves_per_block, side="right")) - 1
        stop = min(max(stop, start + 1), len(rows))
        a, b = link_ptr[start], link_ptr[stop]
        if b > a:
            posterior = star_posterior_rows(table[occurrence[a:b]], link_ptr[start : stop + 1] - a)
            data_kl[start:stop] = _kl_rows(posterior, prior.data_rows)
        a, b = obs_ptr[start], obs_ptr[stop]
        if b > a:
            posterior = batch_posterior_rows(attr_edge, observations[a:b], obs_ptr[start : stop + 1] - a)
            attr_kl[start:stop] = _kl_rows(posterior, prior.attr_rows)
        start = stop

    return StarDivergences(
        ids=_read_only(ids.copy()),
        has_context=_read_only((np.diff(link_ptr) > 0) | (np.diff(obs_ptr) > 0)),
        data_kl=None if data_kl is None else _read_only(data_kl),
        attr_kl=None if attr_kl is None else _read_only(attr_kl),
        n_classes=n,
        m_attribute_classes=relationship.m_attribute_classes,
    )


def _scores(
    queried_ids: Sequence[int], assigned_labels: Sequence[int], divergences: StarDivergences
) -> np.ndarray:
    """Dissimilarity of each queried star against its assigned label: the
    hinge over the table's KL rows, the data gap first, then the attribute
    gap.  A star without context scores 0 whatever its label."""
    if len(queried_ids) != len(assigned_labels):
        raise ValueError("queried ids and assigned labels must align")
    if not np.array_equal(np.asarray(queried_ids), divergences.ids):
        raise ValueError("queried ids differ from the ids the star divergences were computed for")
    has_context, n = divergences.has_context, divergences.n_classes
    assigned = np.array(assigned_labels)
    assigned[~has_context] = 0  # an unscored label is never checked
    assigned = _whole_numbers(assigned, n)

    scores = np.zeros(len(assigned))
    if divergences.data_kl is not None:
        scores += _hinge(divergences.data_kl, assigned, n)
    if divergences.attr_kl is not None:
        scores += _hinge(divergences.attr_kl, assigned, divergences.m_attribute_classes)
    if not np.isfinite(scores).all():
        bad = int(np.argmin(np.isfinite(scores)))
        raise ValueError(f"non-finite dissimilarity {scores[bad]} for assigned class {assigned[bad]}")
    scores[scores <= SCORE_FLOOR] = 0.0
    return scores


def cnld_detect(
    queried_ids: Sequence[int],
    assigned_labels: Sequence[int],
    divergences: StarDivergences,
    beta: float = DEFAULT_BETA,
) -> tuple[np.ndarray, np.ndarray]:
    """Score a queried batch and keep instances whose weight exceeds beta.

    ``divergences`` is :func:`star_divergences` of the same ids.  Returns
    the ``(B,)`` bool removed mask and the ``(B,)`` scores.  Instances
    without any context cannot be checked: they are kept.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    scores = _scores(queried_ids, assigned_labels, divergences)
    return divergences.has_context & ~(batch_weights(scores) > beta), scores


def detect_topk(
    queried_ids: Sequence[int],
    assigned_labels: Sequence[int],
    divergences: StarDivergences,
    removal_count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Remove exactly the ``removal_count`` highest-scoring instances.

    ``divergences`` is :func:`star_divergences` of the same ids.  Returns
    the ``(B,)`` bool removed mask and the ``(B,)`` scores.  Ties break
    toward the lower instance id, by :func:`metrics.first_k`.  Used when the
    evaluation protocol fixes the removal budget instead of thresholding on
    beta.
    """
    if removal_count < 0:
        raise ValueError("removal_count must be >= 0")
    if removal_count > len(queried_ids):
        raise ValueError("removal_count exceeds batch size")
    scores = _scores(queried_ids, assigned_labels, divergences)
    removed = np.zeros(len(scores), dtype=bool)
    removed[first_k(queried_ids, removal_count, -scores)] = True
    return removed, scores
