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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .classifiers import BLOCK_BYTES, MlrModel, predict_proba
from .dataset import Dataset, _read_only, _whole_numbers
from .inference import batch_posterior_rows, leaf_marginals, star_posterior_rows
from .metrics import _assigned_classes, remove_first
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


def _hinge_table(kls: np.ndarray, leaf_classes: int) -> np.ndarray:
    """Entry [b, k] is star b's hinged KL gap when labeled k, divided by the
    number of leaf classes, for a (B, n) table of KL rows.  Each entry sums
    its own contiguous row of n hinges over the last axis, as a sum of one
    label's hinges alone would, so it has that sum's bits."""
    with np.errstate(invalid="ignore"):  # inf - inf: NaN, raised when its label is assigned
        hinges = np.subtract(kls[:, :, None], kls[:, None, :])
        np.maximum(hinges, 0.0, out=hinges)
    return hinges.sum(axis=-1) / leaf_classes


def dissimilarity(prior: Conditionals, posterior, assigned_class: int) -> float:
    """Hinge-summed KL gap of the assigned class against every other class.

    Parts whose evidence is absent (no data edges / no attribute edges) are
    omitted.  Natural-log KL with 0 * log 0 = 0; the prior rows must be
    strictly positive.  A non-finite total raises ValueError.
    """
    n = prior.data_rows.shape[0]
    k = int(_whole_numbers([assigned_class], n)[0])
    total = 0.0
    if posterior.data_rows is not None:
        if posterior.data_rows.shape != prior.data_rows.shape:
            raise ValueError("posterior and prior data conditionals have different shapes")
        total += float(_hinge_table(_kl_rows(posterior.data_rows, prior.data_rows)[None], n)[0, k])
    if posterior.attr_rows is not None:
        if prior.attr_rows is None or posterior.attr_rows.shape != prior.attr_rows.shape:
            raise ValueError("posterior and prior attribute conditionals have different shapes")
        m = prior.attr_rows.shape[1]
        total += float(_hinge_table(_kl_rows(posterior.attr_rows, prior.attr_rows)[None], m)[0, k])
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
    table is None when no star of the batch has leaves of its kind.

    Construction hinges every row against every label at once:
    ``dissimilarities[b, k]`` is star b's score when labeled k, the data
    gap plus the attribute gap, snapped to 0 at or below ``SCORE_FLOOR``.
    Scoring a label vector then only gathers one entry per star, so one
    table serves every label vector of the same stars and models.  A
    non-finite entry is kept, and raises only when a star is labeled with it.
    Construction checks that ``ids`` is 1-D, ``has_context`` one bool per
    id and each KL table (B, n) or None, and copies them into read-only
    arrays, so the caller's arrays cannot leave ``dissimilarities`` stale.
    """

    ids: np.ndarray            # (B,)
    has_context: np.ndarray    # (B,) bool: the star has any leaf
    data_kl: np.ndarray | None  # (B, n)
    attr_kl: np.ndarray | None  # (B, n)
    n_classes: int
    m_attribute_classes: int
    dissimilarities: np.ndarray = field(init=False, repr=False)  # (B, n)

    def __post_init__(self) -> None:
        ids, has_context, n = np.array(self.ids), np.array(self.has_context), self.n_classes
        if ids.ndim != 1:
            raise ValueError(f"StarDivergences needs 1-D ids, got shape {ids.shape}")
        if has_context.dtype != bool or has_context.shape != ids.shape:
            raise ValueError(
                f"StarDivergences needs one bool has_context flag per id, got {has_context.dtype} {has_context.shape} for {len(ids)} ids"
            )
        object.__setattr__(self, "ids", _read_only(ids))
        object.__setattr__(self, "has_context", _read_only(has_context))
        for name in ("data_kl", "attr_kl"):
            if getattr(self, name) is not None:
                kl = np.array(getattr(self, name), dtype=float)
                if kl.shape != (len(ids), n):
                    raise ValueError(f"StarDivergences.{name} must be None or {(len(ids), n)}, got shape {kl.shape}")
                object.__setattr__(self, name, _read_only(kl))
        table = np.zeros((len(ids), n))
        step = max(1, BLOCK_BYTES // (8 * max(1, n * n)))  # rows per (rows, n, n) hinge block
        for lo in range(0, len(table), step):
            if self.data_kl is not None:
                table[lo : lo + step] += _hinge_table(self.data_kl[lo : lo + step], n)
            if self.attr_kl is not None:
                table[lo : lo + step] += _hinge_table(self.attr_kl[lo : lo + step], self.m_attribute_classes)
        table[table <= SCORE_FLOOR] = 0.0
        object.__setattr__(self, "dissimilarities", _read_only(table))


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
        ids=ids,
        has_context=(np.diff(link_ptr) > 0) | (np.diff(obs_ptr) > 0),
        data_kl=data_kl,
        attr_kl=attr_kl,
        n_classes=n,
        m_attribute_classes=relationship.m_attribute_classes,
    )


def _scores(
    queried_ids: Sequence[int], assigned_labels: Sequence[int], divergences: StarDivergences
) -> np.ndarray:
    """Dissimilarity of each queried star against its assigned label,
    gathered from the table's ``dissimilarities``.  A star without context
    scores 0 whatever its label."""
    if not np.array_equal(np.asarray(queried_ids), divergences.ids):
        raise ValueError("queried ids differ from the ids the star divergences were computed for")
    assigned = np.array(assigned_labels)
    if assigned.shape == divergences.has_context.shape:  # a misaligned vector is named below
        assigned[~divergences.has_context] = 0  # an unscored label is never checked
    assigned = _assigned_classes(queried_ids, assigned, divergences.n_classes)

    scores = divergences.dissimilarities[np.arange(len(assigned)), assigned]
    if not np.isfinite(scores).all():
        bad = int(np.argmin(np.isfinite(scores)))
        raise ValueError(f"non-finite dissimilarity {scores[bad]} for assigned class {assigned[bad]}")
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
    toward the lower instance id, by :func:`metrics.remove_first`.  Used
    when the evaluation protocol fixes the removal budget instead of
    thresholding on beta.
    """
    scores = _scores(queried_ids, assigned_labels, divergences)
    return remove_first(queried_ids, removal_count, -scores), scores
