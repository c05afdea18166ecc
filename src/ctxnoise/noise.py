"""Synthetic label noise: symmetric (NCAR) and class-conditional (NAR) models.

NCAR flips an exact per-class fraction of labels to uniformly chosen other
classes.  NAR redraws every label from the row of a transition matrix
indexed by the true class; the matrix can be estimated from features by
k-means clustering with class-mean initialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import _read_only, _whole_numbers


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic matrix of P(assigned = col | true = row); construction
    copies it into a read-only array."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.array(self.probs, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("transition matrix must be square")
        if (p < 0).any() or (p > 1).any():
            raise ValueError("transition probabilities must lie in [0, 1]")
        if not np.allclose(p.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("transition matrix rows must sum to 1")
        object.__setattr__(self, "probs", _read_only(p))

    @property
    def n_classes(self) -> int:
        return self.probs.shape[0]


@dataclass
class NoisePlan:
    """Assigned labels and flip mask for one injection.

    ``rate`` is the requested fraction for NCAR and the realized flipped
    fraction for NAR.
    """

    assigned: np.ndarray
    flipped: np.ndarray
    rate: float


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def inject_ncar(labels: np.ndarray, n_classes: int, omega: float, seed: int) -> NoisePlan:
    """Flip exactly round(omega * class size) labels per class, never to self."""
    if not n_classes >= 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes!r}")
    if not 0.0 <= omega <= 1.0:
        raise ValueError("omega must lie in [0, 1]")
    y = _whole_numbers(labels, n_classes)
    rng = np.random.default_rng(seed)
    assigned = y.copy()
    for c in range(n_classes):
        members = np.flatnonzero(y == c)
        count = _round_half_up(omega * len(members))
        if count == 0:
            continue
        chosen = rng.choice(members, size=count, replace=False)
        draws = rng.integers(0, n_classes - 1, size=count)
        assigned[chosen] = np.where(draws < c, draws, draws + 1)
    return NoisePlan(assigned=assigned, flipped=assigned != y, rate=omega)


def inject_nar(labels: np.ndarray, transition: TransitionMatrix | np.ndarray, seed: int) -> NoisePlan:
    """Redraw each label from the transition row of its true class."""
    if not isinstance(transition, TransitionMatrix):
        transition = TransitionMatrix(np.asarray(transition, dtype=float))
    n = transition.n_classes
    y = _whole_numbers(labels, n)
    rng = np.random.default_rng(seed)
    assigned = y.copy()
    for c in range(n):
        members = np.flatnonzero(y == c)
        if len(members) == 0:
            continue
        assigned[members] = rng.choice(n, size=len(members), p=transition.probs[c])
    flipped = assigned != y
    return NoisePlan(assigned=assigned, flipped=flipped, rate=float(flipped.mean()))


def estimate_transition(features: np.ndarray, labels: np.ndarray, n_classes: int) -> TransitionMatrix:
    """Estimate a transition matrix from feature-space class overlap.

    Runs Lloyd's iterations with one center per class, initialized at the
    per-class feature means.  Each converged cluster represents its majority
    class; collisions are resolved greedily by cluster size (larger cluster
    claims the class, the other takes its next-most-frequent unclaimed one).
    Row y of the result is the class composition of the cluster representing
    class y.  Fully deterministic.
    """
    X = np.asarray(features, dtype=float)
    y = _whole_numbers(labels, n_classes)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("features and labels must align")
    for c in range(n_classes):
        if not (y == c).any():
            raise ValueError(f"class {c} has no samples")

    centers = np.stack([X[y == c].mean(axis=0) for c in range(n_classes)])
    assign = np.zeros(len(y), dtype=int)
    for _ in range(300):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)  # ties fall to the lower center index
        new_centers = centers.copy()
        for k in range(n_classes):
            mask = assign == k
            if mask.any():
                new_centers[k] = X[mask].mean(axis=0)
            else:
                # reseed an empty cluster at the point farthest from all centers
                nearest = ((X[:, None, :] - new_centers[None, :, :]) ** 2).sum(axis=2).min(axis=1)
                new_centers[k] = X[int(nearest.argmax())]
        shift = float(np.abs(new_centers - centers).max())
        centers = new_centers
        if shift < 1e-8:
            break

    hist = np.zeros((n_classes, n_classes))
    for k in range(n_classes):
        hist[k] = np.bincount(y[assign == k], minlength=n_classes)

    sizes = hist.sum(axis=1)
    cluster_for_class: dict[int, int] = {}
    claimed: set[int] = set()
    for k in sorted(range(n_classes), key=lambda k: (-sizes[k], k)):
        for c in sorted(range(n_classes), key=lambda c: (-hist[k, c], c)):
            if c not in claimed:
                cluster_for_class[c] = k
                claimed.add(c)
                break

    probs = np.empty((n_classes, n_classes))
    for c in range(n_classes):
        row = hist[cluster_for_class[c]]
        total = row.sum()
        probs[c] = row / total if total > 0 else np.full(n_classes, 1.0 / n_classes)
    return TransitionMatrix(probs=probs)
