"""Reference routes the tests check the package against.

* Brute-force oracles (``enumerate_joint``, ``brute_*``) enumerate joint
  state tables directly and share no code with any inference routine.
* The per-star route (``build_instance_graph``, ``clamped_leaf_marginals``,
  ``posterior_conditionals``) scores one instance at a time, and
  ``sum_product`` is a general two-pass message-passing engine over trees;
  the package's batch kernel is compared against them, and they against
  the brute-force oracles.
* ``mlr_loss``/``mlr_gradient`` are the logistic objective and its analytic
  gradient, and ``reference_train_mlr`` is the plain SGD loop that
  ``train_mlr`` must reproduce bit for bit; ``reference_train_svm`` is the
  plain one-vs-rest hinge loop that ``train_aux``'s SVM member must
  reproduce bit for bit.  ``trained_aux`` is the ensemble that the
  detection suite builds: the logistic member trained with ``MlrConfig``
  defaults, then ``train_aux``.
* ``reference_knn_predict`` is the kNN member's broadcast kernel, which
  forms every query's full ``(N, d)`` difference tensor; the package's
  prefiltered kernel must give the same votes on every input.
* ``reference_link_draws`` is the per-draw loop that defines the synthetic
  link stream, one ``random()``/``integers()`` call at a time; the
  package's bulk replay must give the same partners and leave the
  generator in the same state.
* ``reference_first_k`` is the ranking rule written with ``sorted``: NaN
  after every number, -0.0 equal to 0.0, then the lower id, then the
  earlier position.  The package's ``np.lexsort`` must give the same
  positions on every numpy the package admits.
* ``reference_probabilistic_detect`` and ``reference_voting_detect`` are
  the baselines as they ran before their label-free tables: every call
  takes the classifier outputs themselves, takes the argmax and entropy,
  or counts the member disagreements, of the assigned labels alone, and
  ranks by ``reference_first_k``.  The package's detectors take only the
  tables, and must remove the same instances from them.
* ``reference_hinge`` is the context score's hinge against one assigned
  label per star, a (B, n) sum; the package's per-label table must hold
  its bits in every column.
* ``per_occurrence_star_divergences`` is the star scoring kernel as it was
  before the per-neighbour table: every leaf occurrence is predicted and
  normalized again, with the stars of its block.  The package's table must
  give the same bits wherever a classifier row's bits do not depend on the
  rows that share its call.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from ctxnoise import (
    Dataset, MlrConfig, MlrModel, RelationshipModel, detector, predict_proba, prior_conditionals, train_aux, train_mlr
)
from ctxnoise.classifiers import BLOCK_BYTES, SVM_EPOCHS, SVM_L2, SVM_LEARNING_RATE, AuxEnsemble, _softmax, entropy
from ctxnoise.dataset import _read_only
from ctxnoise.inference import batch_posterior_rows


def enumerate_joint(node_potentials, edges):
    """Full joint table of a pairwise model by explicit enumeration."""
    cards = [len(p) for p in node_potentials]
    joint = np.zeros(cards)
    for states in product(*(range(c) for c in cards)):
        value = 1.0
        for i, p in enumerate(node_potentials):
            value *= p[states[i]]
        for u, v, psi in edges:
            value *= psi[states[u], states[v]]
        joint[states] = value
    return joint / joint.sum()


def brute_marginals(node_potentials, edges):
    joint = enumerate_joint(node_potentials, edges)
    out = []
    for i in range(len(node_potentials)):
        axes = tuple(a for a in range(len(node_potentials)) if a != i)
        out.append(joint.sum(axis=axes))
    return out


def brute_edge_beliefs(node_potentials, edges):
    joint = enumerate_joint(node_potentials, edges)
    out = []
    for u, v, _ in edges:
        axes = tuple(a for a in range(len(node_potentials)) if a not in (u, v))
        b = joint.sum(axis=axes)
        out.append(b if u < v else b.T)
    return out


def brute_clamped_leaf_marginal(center_pot, leaf_pot, edge_psi, center_class):
    """Leaf conditional given the center state, from the 2-node joint table."""
    joint = np.zeros((len(center_pot), len(leaf_pot)))
    for a in range(len(center_pot)):
        for b in range(len(leaf_pot)):
            joint[a, b] = center_pot[a] * leaf_pot[b] * edge_psi[a, b]
    row = joint[center_class]
    return row / row.sum()


def random_tree(rng, max_nodes=6, max_card=5):
    """Random tree with positive potentials: node i > 0 hangs off a random
    earlier node, so the edge set is acyclic and connected by construction."""
    n_nodes = int(rng.integers(1, max_nodes + 1))
    cards = [int(rng.integers(2, max_card + 1)) for _ in range(n_nodes)]
    pots = [rng.uniform(0.1, 1.0, size=c) for c in cards]
    edges = []
    for v in range(1, n_nodes):
        u = int(rng.integers(0, v))
        edges.append((u, v, rng.uniform(0.1, 1.0, size=(cards[u], cards[v]))))
    return pots, edges


def reference_train_mlr(weights, bias, features, labels, config):
    """The plain mini-batch SGD loop of ``train_mlr``: softmax, gradient and
    update written as one expression each, with fresh temporaries at every
    step.  ``weights`` and ``bias`` are the start point (zeros for a cold
    start) and are not modified."""
    X = np.asarray(features, dtype=float)
    W, b = weights.copy(), bias.copy()
    Y = np.zeros((X.shape[0], config.n_classes))
    Y[np.arange(X.shape[0]), labels] = 1.0
    rng = np.random.default_rng(config.seed)
    size = config.batch_size or X.shape[0]
    for epoch in range(1, config.epochs + 1):
        lr = config.learning_rate / math.sqrt(epoch)
        order = rng.permutation(X.shape[0]) if config.batch_size else np.arange(X.shape[0])
        for start in range(0, X.shape[0], size):
            idx = order[start : start + size]
            Z = X[idx] @ W.T + b
            E = np.exp(Z - Z.max(axis=-1, keepdims=True))
            P = E / E.sum(axis=-1, keepdims=True)
            G = (P - Y[idx]) / len(idx)
            W -= lr * (G.T @ X[idx] + config.l2 * W)
            b -= lr * G.sum(axis=0)
    return W, b


def reference_train_svm(features, labels, n_classes):
    """The plain full-batch hinge loop of ``train_aux``'s SVM member, each
    update written as one expression with fresh temporaries."""
    X = np.asarray(features, dtype=float)
    W = np.zeros((n_classes, X.shape[1]))
    b = np.zeros(n_classes)
    S = -np.ones((X.shape[0], n_classes))
    S[np.arange(X.shape[0]), labels] = 1.0
    for epoch in range(1, SVM_EPOCHS + 1):
        lr = SVM_LEARNING_RATE / math.sqrt(epoch)
        margins = S * (X @ W.T + b)
        active = (margins < 1.0) * S
        W -= lr * (-active.T @ X / X.shape[0] + SVM_L2 * W)
        b -= lr * (-active.sum(axis=0) / X.shape[0])
    return W, b


def trained_aux(features, labels, n_classes, knn_k=5, normalize=False, seed=0):
    """``train_aux`` on a logistic member trained on the same pool with
    ``MlrConfig(n_classes, seed=seed)``."""
    mlr = train_mlr(None, features, labels, MlrConfig(n_classes, seed=seed))
    return train_aux(features, labels, mlr, knn_k, normalize)


def reference_link_draws(rng, owners, per, links_per_instance, cdf):
    """``links_per_instance`` partners for each owner id, drawn one call at a
    time: a class bisected from ``rng.random()`` into the CDF row of the
    owner's class ``u // per``, then a position in that class's id range by
    ``rng.integers``, skipping the owner itself; -1 when there is none."""
    random, integers = rng.random, rng.integers
    link_cdf = np.asarray(cdf).tolist()
    tails: list[int] = []
    for u in np.asarray(owners).tolist():
        own = u // per
        row = link_cdf[own]
        for _ in range(links_per_instance):
            z = bisect_right(row, random())
            if z != own:
                tails.append(z * per + int(integers(per)))
            elif per > 1:
                v = z * per + int(integers(per - 1))
                tails.append(v + (v >= u))  # skip u's own position
            else:
                tails.append(-1)
    return np.array(tails, dtype=np.int64)


def reference_knn_predict(ensemble: AuxEnsemble, X: np.ndarray) -> np.ndarray:
    """Majority label of each query's k nearest stored points.

    The neighbours are the first k of a stable sort by distance: everything
    strictly closer than the k-th distance, then the points at exactly that
    distance in store order.  Vote ties fall to the smallest class index.
    """
    Q = ensemble._transform(X)
    if not np.isfinite(Q).all():
        raise ValueError("query features contain non-finite values")
    store, k = ensemble.knn_features, ensemble.knn_k
    one_hot = np.eye(ensemble.n_classes)[ensemble.knn_labels]
    step = max(1, BLOCK_BYTES // max(1, store.nbytes))  # queries per block
    out = np.empty(Q.shape[0], dtype=int)
    for start in range(0, Q.shape[0], step):
        # one expression, so that numpy squares the difference in place and
        # frees it before the next block's is made
        dists = ((store[None, :, :] - Q[start : start + step, None, :]) ** 2).sum(axis=2)
        kth = np.partition(dists, k - 1, axis=1)[:, k - 1 : k]
        closer = dists < kth
        ties = dists == kth
        ties &= np.cumsum(ties, axis=1) <= k - closer.sum(axis=1, keepdims=True)
        votes = (closer | ties) @ one_hot
        out[start : start + step] = votes.argmax(axis=1)
    return out


def reference_first_k(ids: Sequence[int], k: int, *keys: np.ndarray) -> np.ndarray:
    """Positions of the ``k`` entries that sort first by ``keys``, the first
    key most significant, NaN after every number and ties going to the lower
    id, then to the earlier position, in rank order."""
    ids = np.asarray(ids).tolist()
    columns = [np.asarray(key, dtype=float).tolist() for key in keys]
    if not 0 <= k <= len(ids) or any(len(column) != len(ids) for column in columns):
        raise ValueError("k or a key does not fit the ids")

    def rank(r):
        values = [column[r] for column in columns]
        return *((math.isnan(v), 0.0 if math.isnan(v) else v) for v in values), ids[r], r

    return np.array(sorted(range(len(ids)), key=rank)[:k], dtype=np.intp)


def reference_probabilistic_detect(proba, ids, assigned, removal_count) -> np.ndarray:
    """The (B,) removed mask of the probabilistic detector: mismatched
    labels first, by 1 - p(assigned), then matched ones by half their
    normalized entropy, the highest suspicion first."""
    P, a = np.asarray(proba), np.asarray(assigned)
    mismatch = P.argmax(axis=1) != a
    s = np.where(mismatch, 1.0 - P[np.arange(len(a)), a], 0.5 * (entropy(P) / np.log(P.shape[1])))
    removed = np.zeros(len(a), dtype=bool)
    removed[reference_first_k(ids, removal_count, ~mismatch, -s)] = True
    return removed


def reference_voting_detect(predictions, mlr_proba, ids, assigned, removal_count, min_disagreements) -> np.ndarray:
    """The (B,) removed mask of a voting detector: instances that at least
    ``min_disagreements`` members disagree with first, then ascending
    logistic confidence in the assigned label."""
    preds, proba, a = np.asarray(predictions), np.asarray(mlr_proba), np.asarray(assigned)
    flagged = (preds != a[:, None]).sum(axis=1) >= min_disagreements
    removed = np.zeros(len(a), dtype=bool)
    removed[reference_first_k(ids, removal_count, ~flagged, proba[np.arange(len(a)), a])] = True
    return removed


def reference_hinge(kls: np.ndarray, assigned, leaf_classes: int) -> np.ndarray:
    """Each star's hinged KL gap against its assigned label, divided by the
    number of leaf classes, for a (B, n) table of KL rows."""
    assigned_kl = kls[np.arange(len(kls)), assigned]
    with np.errstate(invalid="ignore"):
        return np.maximum(assigned_kl[:, None] - kls, 0.0).sum(axis=-1) / leaf_classes


def mlr_loss(weights: np.ndarray, bias: np.ndarray, features: np.ndarray, labels: np.ndarray, l2: float) -> float:
    """Mean cross-entropy plus (l2/2)·||W||²; the objective train_mlr descends."""
    P = _softmax(features @ weights.T + bias)
    nll = -np.log(P[np.arange(len(labels)), labels]).mean()
    return float(nll + 0.5 * l2 * (weights**2).sum())


def mlr_gradient(
    weights: np.ndarray, bias: np.ndarray, features: np.ndarray, labels: np.ndarray, l2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic full-batch gradient of :func:`mlr_loss` in (W, b)."""
    P = _softmax(features @ weights.T + bias)
    Y = np.zeros_like(P)
    Y[np.arange(len(labels)), labels] = 1.0
    G = (P - Y) / len(labels)
    return G.T @ features + l2 * weights, G.sum(axis=0)


# ---------------------------------------------------------------------------
# the per-star route


class NoContextError(Exception):
    """The instance has no links and no attributes, so context says nothing."""


@dataclass
class InstanceGraph:
    """Star of one center data node plus data/attribute leaves."""

    instance_id: int
    center_potential: np.ndarray      # (n,)
    data_potentials: np.ndarray       # (e1, n)
    attr_potentials: np.ndarray       # (e2, m)
    data_edge_potential: np.ndarray   # (n, n), smoothed counts
    attr_edge_potential: np.ndarray | None  # (n, m)

    @property
    def e1(self) -> int:
        return self.data_potentials.shape[0]

    @property
    def e2(self) -> int:
        return self.attr_potentials.shape[0]


@dataclass
class PosteriorConditionals:
    """Clamped-inference analogue of the prior conditionals.

    ``data_rows`` is None when the graph has no data edges, ``attr_rows``
    when it has no attribute edges; rows otherwise sum to one.
    """

    data_rows: np.ndarray | None      # (n, n)
    attr_rows: np.ndarray | None      # (n, m)


def build_instance_graph(
    instance_id: int,
    dataset: Dataset,
    classifier: MlrModel,
    relationship: RelationshipModel,
) -> InstanceGraph:
    """Assemble the star for one instance; raises NoContextError if isolated."""
    if classifier.n_features != dataset.n_features:
        raise ValueError("classifier feature dimension does not match the dataset")
    if classifier.n_classes != relationship.n_classes:
        raise ValueError("classifier and relationship class counts differ")
    row = dataset.rows([instance_id])
    neighbours, _ = dataset.links.gather(row)
    observations, _ = dataset.attributes.gather(row)
    if len(neighbours) == 0 and len(observations) == 0:
        raise NoContextError(f"instance {instance_id} has no links and no attributes")

    n = classifier.n_classes
    center = predict_proba(classifier, dataset.features[row[:1]])[0]
    data_pots = predict_proba(classifier, dataset.features[neighbours]) if len(neighbours) else np.empty((0, n))
    attr_pots = observations if len(observations) else np.empty((0, relationship.m_attribute_classes))

    attr_edge = None
    if relationship.attr_counts is not None:
        attr_edge = relationship.attr_counts + relationship.epsilon
    if attr_pots.shape[0] > 0 and attr_edge is None:
        raise ValueError("instance has attribute observations but the relationship model has none")

    return InstanceGraph(
        instance_id=instance_id,
        center_potential=center,
        data_potentials=data_pots,
        attr_potentials=attr_pots,
        data_edge_potential=relationship.data_counts + relationship.epsilon,
        attr_edge_potential=attr_edge,
    )


def clamped_leaf_marginals(graph: InstanceGraph, center_class: int) -> list[np.ndarray]:
    """Conditional marginal of every leaf given the center fixed to a class.

    Returns one distribution per leaf, data leaves first, then attribute
    leaves.  The center's own potential drops out under conditioning.
    """
    n = graph.center_potential.shape[0]
    if not 0 <= center_class < n:
        raise ValueError(f"class {center_class} out of range [0, {n})")
    out = []
    row = graph.data_edge_potential[center_class]
    for pot in graph.data_potentials:
        v = row * pot
        out.append(v / v.sum())
    if graph.e2 > 0:
        row_a = graph.attr_edge_potential[center_class]
        for pot in graph.attr_potentials:
            v = row_a * pot
            out.append(v / v.sum())
    return out


def sum_product(
    node_potentials: Sequence[np.ndarray],
    edges: Sequence[tuple[int, int, np.ndarray]],
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exact marginals and pairwise beliefs on a tree by two-pass message passing.

    ``edges`` are (u, v, psi) with psi of shape (card_u, card_v).  Node
    ordering inside each returned pairwise belief follows the edge as given.
    Raises ValueError on cycles or disconnected inputs.
    """
    V = len(node_potentials)
    if V == 0:
        raise ValueError("empty graph")
    pots = [np.asarray(p, dtype=float) for p in node_potentials]
    for i, (u, v, psi) in enumerate(edges):
        if psi.shape != (pots[u].shape[0], pots[v].shape[0]):
            raise ValueError(f"edge {i}: potential shape {psi.shape} does not match node cardinalities")

    adj: list[list[tuple[int, int]]] = [[] for _ in range(V)]  # (neighbour, edge index)
    for i, (u, v, _) in enumerate(edges):
        adj[u].append((v, i))
        adj[v].append((u, i))

    # BFS from node 0; a revisited non-parent neighbour means a cycle.
    parent = [-1] * V
    order: list[int] = []
    seen = [False] * V
    seen[0] = True
    queue = deque([0])
    while queue:
        u = queue.popleft()
        order.append(u)
        for v, _ in adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                queue.append(v)
            elif v != parent[u]:
                raise ValueError("graph contains a cycle; only trees are supported")
    if len(order) != V:
        raise ValueError("graph is disconnected")

    def edge_psi(frm: int, to: int, idx: int) -> np.ndarray:
        u, v, psi = edges[idx]
        return psi if (u, v) == (frm, to) else psi.T

    # messages[(u, v)] = normalized message from u to v
    messages: dict[tuple[int, int], np.ndarray] = {}
    for u in reversed(order):
        p = parent[u]
        if p < 0:
            continue
        belief = pots[u].copy()
        for w, _ in adj[u]:
            if w != p:
                belief = belief * messages[(w, u)]
        idx = next(i for w, i in adj[u] if w == p)
        msg = belief @ edge_psi(u, p, idx)
        messages[(u, p)] = msg / msg.sum()
    for u in order:
        for v, idx in adj[u]:
            if v == parent[u] or parent[v] != u:
                continue
            belief = pots[u].copy()
            for w, _ in adj[u]:
                if w != v:
                    belief = belief * messages[(w, u)]
            msg = belief @ edge_psi(u, v, idx)
            messages[(u, v)] = msg / msg.sum()

    marginals = []
    for u in range(V):
        b = pots[u].copy()
        for w, _ in adj[u]:
            b = b * messages[(w, u)]
        marginals.append(b / b.sum())

    beliefs = []
    for u, v, psi in edges:
        pre_u = pots[u].copy()
        for w, _ in adj[u]:
            if w != v:
                pre_u = pre_u * messages[(w, u)]
        pre_v = pots[v].copy()
        for w, _ in adj[v]:
            if w != u:
                pre_v = pre_v * messages[(w, v)]
        B = pre_u[:, None] * psi * pre_v[None, :]
        beliefs.append(B / B.sum())
    return marginals, beliefs


def star_as_tree(graph: InstanceGraph) -> tuple[list[np.ndarray], list[tuple[int, int, np.ndarray]]]:
    """Express an instance star in the generic (potentials, edges) form."""
    pots: list[np.ndarray] = [graph.center_potential]
    edges: list[tuple[int, int, np.ndarray]] = []
    for pot in graph.data_potentials:
        pots.append(pot)
        edges.append((0, len(pots) - 1, graph.data_edge_potential))
    for pot in graph.attr_potentials:
        pots.append(pot)
        edges.append((0, len(pots) - 1, graph.attr_edge_potential))
    return pots, edges


def posterior_conditionals(graph: InstanceGraph) -> PosteriorConditionals:
    """Average clamped leaf marginals per center class, one row per class.

    Row j of ``data_rows`` is the mean over data edges of the leaf marginal
    with the center clamped to class j, renormalized to sum exactly one; the
    attribute rows average the attribute edges the same way.
    """
    if graph.e1 == 0 and graph.e2 == 0:
        raise NoContextError(f"instance {graph.instance_id} graph has no leaves")
    data_rows = None
    attr_rows = None
    if graph.e1 > 0:
        prod = graph.data_edge_potential[:, None, :] * graph.data_potentials[None, :, :]
        prod /= prod.sum(axis=2, keepdims=True)
        data_rows = prod.mean(axis=1)
        data_rows /= data_rows.sum(axis=1, keepdims=True)
    if graph.e2 > 0:
        prod = graph.attr_edge_potential[:, None, :] * graph.attr_potentials[None, :, :]
        prod /= prod.sum(axis=2, keepdims=True)
        attr_rows = prod.mean(axis=1)
        attr_rows /= attr_rows.sum(axis=1, keepdims=True)
    return PosteriorConditionals(data_rows=data_rows, attr_rows=attr_rows)


def per_occurrence_star_divergences(
    queried_ids: Sequence[int], dataset: Dataset, classifier: MlrModel, relationship: RelationshipModel
) -> detector.StarDivergences:
    """``detector.star_divergences`` with every data leaf occurrence scored
    in its star's block: one classifier call for the block's leaves and
    :func:`batch_posterior_rows` for its rows.  The blocks hold the leaves
    of ``detector.BLOCK_BYTES``, read at call time, as the package's do."""
    rows = dataset.rows(queried_ids)
    leaf_rows, link_ptr = dataset.links.gather(rows)
    observations, obs_ptr = dataset.attributes.gather(rows)
    n = relationship.n_classes
    prior = prior_conditionals(relationship)
    data_edge = relationship.data_counts + relationship.epsilon
    attr_edge = None if relationship.attr_counts is None else relationship.attr_counts + relationship.epsilon
    data_kl = np.zeros((len(rows), n)) if link_ptr[-1] > 0 else None
    attr_kl = np.zeros((len(rows), n)) if obs_ptr[-1] > 0 else None
    per_leaf = 8 * max(dataset.n_features, n * n, n * relationship.m_attribute_classes)
    leaves_per_block = max(1, detector.BLOCK_BYTES // per_leaf)
    leaves = link_ptr + obs_ptr
    start = 0
    while start < len(rows):
        stop = int(np.searchsorted(leaves, leaves[start] + leaves_per_block, side="right")) - 1
        stop = min(max(stop, start + 1), len(rows))
        a, b = link_ptr[start], link_ptr[stop]
        if b > a:
            potentials = predict_proba(classifier, dataset.features[leaf_rows[a:b]])
            posterior = batch_posterior_rows(data_edge, potentials, link_ptr[start : stop + 1] - a)
            data_kl[start:stop] = detector._kl_rows(posterior, prior.data_rows)
        a, b = obs_ptr[start], obs_ptr[stop]
        if b > a:
            posterior = batch_posterior_rows(attr_edge, observations[a:b], obs_ptr[start : stop + 1] - a)
            attr_kl[start:stop] = detector._kl_rows(posterior, prior.attr_rows)
        start = stop
    return detector.StarDivergences(
        ids=_read_only(np.array(queried_ids, dtype=int)),
        has_context=_read_only((np.diff(link_ptr) > 0) | (np.diff(obs_ptr) > 0)),
        data_kl=None if data_kl is None else _read_only(data_kl),
        attr_kl=None if attr_kl is None else _read_only(attr_kl),
        n_classes=n,
        m_attribute_classes=relationship.m_attribute_classes,
    )
