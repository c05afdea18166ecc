"""Co-occurrence statistics between data classes and toward attribute classes.

The relationship model accumulates two count matrices: class-to-class counts
over links whose endpoints both carry accepted labels, and class-to-attribute
mass summed over the attribute observations of labeled instances.  Rows of
the smoothed, normalized matrices are the prior conditional distributions the
detector compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .dataset import Dataset

DEFAULT_SMOOTHING = 1e-6


@dataclass
class RelationshipModel:
    """Immutable snapshot of co-occurrence counts.

    ``data_counts`` is symmetric: every undirected link contributes one count
    to (i, j) and one to (j, i), so row i is the neighbour-class histogram of
    class i (a same-class link adds 2 on the diagonal).  ``labels`` records
    the accepted labels counted so far; updates need it to count links that
    cross from newly accepted instances into previously accepted ones.
    """

    data_counts: np.ndarray          # (n, n)
    attr_counts: np.ndarray | None   # (n, m), None when m == 0
    epsilon: float = DEFAULT_SMOOTHING
    labels: dict[int, int] = field(default_factory=dict)
    hard_attributes: bool = False

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    @property
    def n_classes(self) -> int:
        return self.data_counts.shape[0]

    @property
    def m_attribute_classes(self) -> int:
        return 0 if self.attr_counts is None else self.attr_counts.shape[1]


@dataclass
class Conditionals:
    """Row-stochastic conditionals: row j is the distribution given class j."""

    data_rows: np.ndarray            # (n, n)
    attr_rows: np.ndarray | None     # (n, m)


def empty_relationship(
    n_classes: int,
    m_attribute_classes: int = 0,
    epsilon: float = DEFAULT_SMOOTHING,
    hard_attributes: bool = False,
) -> RelationshipModel:
    attr = np.zeros((n_classes, m_attribute_classes)) if m_attribute_classes > 0 else None
    return RelationshipModel(
        data_counts=np.zeros((n_classes, n_classes)),
        attr_counts=attr,
        epsilon=epsilon,
        labels={},
        hard_attributes=hard_attributes,
    )


def build_relationship(
    dataset: Dataset,
    label_source: Mapping[int, int],
    epsilon: float = DEFAULT_SMOOTHING,
    hard_attributes: bool = False,
) -> RelationshipModel:
    """Count co-occurrences over the labeled instances in ``label_source``.

    Only links with both endpoints labeled are counted; attribute mass is the
    sum of each labeled instance's attribute distributions (or their argmax
    one-hots when ``hard_attributes``).
    """
    model = empty_relationship(dataset.n_classes, dataset.m_attribute_classes, epsilon, hard_attributes)
    return update_relationship(model, dataset, label_source)


def update_relationship(
    model: RelationshipModel,
    dataset: Dataset,
    new_labels: Mapping[int, int],
) -> RelationshipModel:
    """Additively fold newly accepted labels into a fresh snapshot.

    Counts links between two new instances once, and links from a new
    instance to any previously counted one.  Not idempotent: resubmitting
    ids adds their counts again.
    """
    n = model.n_classes
    for i, c in new_labels.items():
        dataset.by_id(i)  # raises on unknown id
        if c is None:
            raise ValueError(f"instance {i} has no label")
        if not 0 <= c < n:
            raise ValueError(f"label {c} for instance {i} out of range")

    data = model.data_counts.copy()
    attr = None if model.attr_counts is None else model.attr_counts.copy()
    known = model.labels
    for u in sorted(new_labels):
        cu = new_labels[u]
        inst = dataset.by_id(u)
        for v in inst.link_ids:
            if v in new_labels:
                if v < u:
                    continue  # unordered pair, counted when u < v
                cv = new_labels[v]
            elif v in known:
                cv = known[v]
            else:
                continue  # opposite endpoint unlabeled: skipped, no imputation
            data[cu, cv] += 1.0
            data[cv, cu] += 1.0
        if attr is not None:
            for obs in inst.attribute_obs:
                if model.hard_attributes:
                    attr[cu, int(np.argmax(obs))] += 1.0
                else:
                    attr[cu] += obs

    merged = dict(known)
    merged.update(new_labels)
    return RelationshipModel(
        data_counts=data,
        attr_counts=attr,
        epsilon=model.epsilon,
        labels=merged,
        hard_attributes=model.hard_attributes,
    )


def prior_conditionals(model: RelationshipModel) -> Conditionals:
    """Normalize smoothed count rows into strictly positive distributions."""
    data = model.data_counts + model.epsilon
    data /= data.sum(axis=1, keepdims=True)
    attr = None
    if model.attr_counts is not None:
        attr = model.attr_counts + model.epsilon
        attr /= attr.sum(axis=1, keepdims=True)
    return Conditionals(data_rows=data, attr_rows=attr)


def save_relationship(model: RelationshipModel, path: str | Path) -> None:
    """Dense text dump: header, count matrices, then the accepted-label map."""
    with Path(path).open("w") as fh:
        fh.write(
            f"relationship {model.n_classes} {model.m_attribute_classes} "
            f"{repr(model.epsilon)} {int(model.hard_attributes)}\n"
        )
        for row in model.data_counts:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
        if model.attr_counts is not None:
            for row in model.attr_counts:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
        fh.write(" ".join(f"{i}:{c}" for i, c in sorted(model.labels.items())) + "\n")


def load_relationship(path: str | Path) -> RelationshipModel:
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().split()
        if len(header) != 5 or header[0] != "relationship":
            raise ValueError(f"{path}: not a relationship dump")
        n, m = int(header[1]), int(header[2])
        epsilon, hard = float(header[3]), bool(int(header[4]))
        data = np.array([[float(t) for t in fh.readline().split()] for _ in range(n)])
        attr = None
        if m > 0:
            attr = np.array([[float(t) for t in fh.readline().split()] for _ in range(n)])
        labels = {}
        for token in fh.readline().split():
            i, c = token.split(":")
            labels[int(i)] = int(c)
    if data.shape != (n, n):
        raise ValueError(f"{path}: data count block does not match header")
    return RelationshipModel(
        data_counts=data, attr_counts=attr, epsilon=epsilon, labels=labels, hard_attributes=hard
    )
