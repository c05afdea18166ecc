"""Independent brute-force oracles used to cross-check the library.

Everything here enumerates joint state tables directly, with no shared code
paths with the package's message-passing or clamped-inference routines.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np


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
