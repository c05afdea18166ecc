"""Per-instance graphical representations and exact conditional inference.

Each queried instance becomes a star: the instance at the center, one leaf
per linked instance (potential = classifier prediction on the neighbour's
features) and one leaf per attribute observation (potential = the stored
distribution).  Edge potentials are the smoothed co-occurrence counts.

Clamping the center to a class j and reading off each leaf's conditional
marginal is closed-form on a star:

    marginal(leaf) ∝ edge_potential[j, :] * leaf_potential

and equals row j of that edge's pairwise belief, row-normalized.

:func:`batch_posterior_rows` computes the posterior rows of a whole block
of stars at once from stacked leaf potentials; it is what the detector
runs.  The per-star route (:func:`build_instance_graph`,
:func:`posterior_conditionals`) is kept as the reference the tests compare
it against, and a general two-pass sum-product engine over trees as the
independent route and for non-star trees.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .classifiers import MlrModel, predict_proba
from .dataset import Dataset, Instance
from .relationship import RelationshipModel


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
    instance: Instance,
    dataset: Dataset,
    classifier: MlrModel,
    relationship: RelationshipModel,
) -> InstanceGraph:
    """Assemble the star for one instance; raises NoContextError if isolated."""
    if classifier.n_features != dataset.n_features:
        raise ValueError("classifier feature dimension does not match the dataset")
    if classifier.n_classes != relationship.n_classes:
        raise ValueError("classifier and relationship class counts differ")
    if not instance.link_ids and not instance.attribute_obs:
        raise NoContextError(f"instance {instance.id} has no links and no attributes")

    n = classifier.n_classes
    center = predict_proba(classifier, instance.features)
    if instance.link_ids:
        neighbour_feats = dataset.feature_matrix(instance.link_ids)
        data_pots = predict_proba(classifier, neighbour_feats)
    else:
        data_pots = np.empty((0, n))
    if instance.attribute_obs:
        attr_pots = np.stack(instance.attribute_obs)
    else:
        attr_pots = np.empty((0, relationship.m_attribute_classes))

    attr_edge = None
    if relationship.attr_counts is not None:
        attr_edge = relationship.attr_counts + relationship.epsilon
    if attr_pots.shape[0] > 0 and attr_edge is None:
        raise ValueError("instance has attribute observations but the relationship model has none")

    return InstanceGraph(
        instance_id=instance.id,
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


def batch_posterior_rows(edge: np.ndarray, leaf_potentials: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Posterior rows of a block of stars for one kind of leaf, as
    :func:`posterior_conditionals` computes them for one star.

    ``edge`` is the (n, c) edge potential and ``leaf_potentials`` the (L, c)
    leaf potentials stacked star by star: star b owns rows
    ``indptr[b]:indptr[b + 1]``.  Row j of star b is the mean over its
    leaves v of ``edge[j] * pot[v] / (pot[v] · edge[j])``, renormalized to
    sum one.  Returns (B, n, c); a star without leaves gets all-zero rows.
    """
    degree = np.diff(indptr)
    out = np.zeros((len(degree), edge.shape[0], edge.shape[1]))
    filled = degree > 0
    if filled.any():
        prod = edge[None, :, :] * leaf_potentials[:, None, :]
        prod /= prod.sum(axis=2, keepdims=True)
        rows = np.add.reduceat(prod, indptr[:-1][filled], axis=0) / degree[filled, None, None]
        rows /= rows.sum(axis=2, keepdims=True)
        out[filled] = rows
    return out


def dump_graph(graph: InstanceGraph, path: str | Path) -> None:
    """Debug dump of one star: potentials and per-class clamped marginals."""
    n = graph.center_potential.shape[0]
    with Path(path).open("w") as fh:
        fh.write(f"graph {graph.instance_id} e1={graph.e1} e2={graph.e2}\n")
        fh.write("center " + " ".join(repr(float(v)) for v in graph.center_potential) + "\n")
        for k, pot in enumerate(graph.data_potentials):
            fh.write(f"data_leaf {k} " + " ".join(repr(float(v)) for v in pot) + "\n")
        for k, pot in enumerate(graph.attr_potentials):
            fh.write(f"attr_leaf {k} " + " ".join(repr(float(v)) for v in pot) + "\n")
        for j in range(n):
            for k, marg in enumerate(clamped_leaf_marginals(graph, j)):
                fh.write(f"clamped {j} leaf {k} " + " ".join(repr(float(v)) for v in marg) + "\n")
