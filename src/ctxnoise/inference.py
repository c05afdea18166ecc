"""Exact conditional inference on the stars of queried instances.

Each queried instance becomes a star: the instance at the center, one leaf
per linked instance (potential = classifier prediction on the neighbour's
features) and one leaf per attribute observation (potential = the stored
distribution).  Edge potentials are the smoothed co-occurrence counts.

Clamping the center to a class j and reading off each leaf's conditional
marginal is closed-form on a star:

    marginal(leaf) ∝ edge_potential[j, :] * leaf_potential

and equals row j of that edge's pairwise belief, row-normalized.  Averaged
over a star's leaves of one kind, these rows are the star's posterior
conditionals.
"""

from __future__ import annotations

import numpy as np


def leaf_marginals(edge: np.ndarray, leaf_potentials: np.ndarray) -> np.ndarray:
    """Clamped marginals of a stack of leaves of one kind.

    ``edge`` is the (n, c) edge potential and ``leaf_potentials`` the (L, c)
    leaf potentials.  Row j of leaf v is ``edge[j] * pot[v] / (pot[v] ·
    edge[j])``, its marginal with the center clamped to class j; it depends
    on the leaf alone, not on the star it hangs from.  Returns (L, n, c).
    """
    prod = edge[None, :, :] * leaf_potentials[:, None, :]
    prod /= prod.sum(axis=2, keepdims=True)
    return prod


def star_posterior_rows(marginals: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Posterior rows of a block of stars from their leaves' clamped marginals.

    ``marginals`` is (L, n, c), stacked star by star: star b owns rows
    ``indptr[b]:indptr[b + 1]``.  Row j of star b is the mean of its leaves'
    row j, renormalized to sum one.  Returns (B, n, c); a star without
    leaves gets all-zero rows.
    """
    degree = np.diff(indptr)
    out = np.zeros((len(degree),) + marginals.shape[1:])
    filled = degree > 0
    if filled.any():
        rows = np.add.reduceat(marginals, indptr[:-1][filled], axis=0) / degree[filled, None, None]
        rows /= rows.sum(axis=2, keepdims=True)
        out[filled] = rows
    return out


def batch_posterior_rows(edge: np.ndarray, leaf_potentials: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Posterior rows of a block of stars for one kind of leaf:
    :func:`star_posterior_rows` of the :func:`leaf_marginals` of the (L, c)
    leaf potentials, which are stacked star by star as ``indptr`` says.
    Returns (B, n, c); a star without leaves gets all-zero rows."""
    return star_posterior_rows(leaf_marginals(edge, leaf_potentials), indptr)
