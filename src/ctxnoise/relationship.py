"""Co-occurrence statistics between data classes and toward attribute classes.

The relationship model accumulates two count matrices: class-to-class counts
over links whose endpoints both carry accepted labels, and class-to-attribute
mass summed over the attribute observations of labeled instances.  Rows of
the smoothed, normalized matrices are the prior conditional distributions the
detector compares against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .dataset import Dataset, _read_only, _whole_numbers

DEFAULT_SMOOTHING = 1e-6


@dataclass(frozen=True, eq=False)
class RelationshipModel:
    """Immutable snapshot of co-occurrence counts.

    ``data_counts`` is symmetric: every undirected link contributes one count
    to (i, j) and one to (j, i), so row i is the neighbour-class histogram of
    class i (a same-class link adds 2 on the diagonal).  ``labels`` records
    the accepted labels counted so far; updates need it to count links that
    cross from newly accepted instances into previously accepted ones.
    Construction copies the counts into read-only arrays and the labels
    into a read-only mapping, and raises ValueError unless ``data_counts``
    is square, ``attr_counts`` has one row per class, every count is
    finite and non-negative, and ``labels`` maps whole-number ids to
    classes in [0, n).
    """

    data_counts: np.ndarray          # (n, n)
    attr_counts: np.ndarray | None   # (n, m), None when m == 0
    epsilon: float = DEFAULT_SMOOTHING
    labels: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < math.inf:  # written so that NaN fails it
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        data = np.array(self.data_counts, dtype=float)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValueError(f"data_counts must be a square matrix, got shape {data.shape}")
        tables = {"data_counts": data}
        if self.attr_counts is not None:
            tables["attr_counts"] = attr = np.array(self.attr_counts, dtype=float)
            if attr.ndim != 2 or attr.shape[0] != data.shape[0]:
                raise ValueError(f"attr_counts must have one row per class ({data.shape[0]}), got shape {attr.shape}")
        for name, counts in tables.items():
            if not ((counts >= 0) & (counts < math.inf)).all():  # written so that NaN fails it
                raise ValueError(f"{name} hold a negative or non-finite count")
            object.__setattr__(self, name, _read_only(counts))
        ids = _whole_numbers(list(self.labels), what="ids")
        classes = _whole_numbers(list(self.labels.values()), data.shape[0])
        # stored as Python ints, in the order given
        object.__setattr__(self, "labels", MappingProxyType(dict(zip(ids.tolist(), classes.tolist()))))

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


def build_relationship(
    dataset: Dataset,
    label_source: Mapping[int, int],
    epsilon: float = DEFAULT_SMOOTHING,
) -> RelationshipModel:
    """Count co-occurrences over the labeled instances in ``label_source``.

    Only links with both endpoints labeled are counted; attribute mass is the
    sum of each labeled instance's attribute distributions.  An empty
    ``label_source`` gives the all-zero model.
    """
    n, m = dataset.n_classes, dataset.m_attribute_classes
    empty = RelationshipModel(np.zeros((n, n)), np.zeros((n, m)) if m > 0 else None, epsilon)
    return update_relationship(empty, dataset, label_source)


def update_relationship(
    model: RelationshipModel,
    dataset: Dataset,
    new_labels: Mapping[int, int],
) -> RelationshipModel:
    """Additively fold newly accepted labels into a fresh snapshot.

    Counts links between two new instances once, and links from a new
    instance to any previously counted one.  Not idempotent: resubmitting
    ids adds their counts again.  Soft attribute mass is summed instance by
    instance in ascending id order.
    """
    n = model.n_classes
    ids = _whole_numbers(list(new_labels), what="ids")
    rows = dataset.rows(ids)  # raises on unknown id
    classes = _whole_numbers(list(new_labels.values()), n)
    accepted = dict(zip(ids.tolist(), classes.tolist()))

    # the class of every labeled row, -1 where unlabeled; new labels win.
    # The model checked its labels when it was built; their ids are mapped
    # to rows here, which raises on one that the dataset lacks.
    known = model.labels
    row_class = np.full(len(dataset), -1, dtype=np.int64)
    row_class[dataset.rows(list(known))] = list(known.values())
    row_class[rows] = classes
    is_new = np.zeros(len(dataset), dtype=bool)
    is_new[rows] = True

    ascending = np.argsort(ids)
    rows, classes = rows[ascending], classes[ascending]
    neighbours, link_ptr = dataset.links.gather(rows)
    owners = np.repeat(rows, np.diff(link_ptr))
    # a link between two new instances is counted from its lower id only;
    # one to an unlabeled instance is skipped, with no imputation
    counted = (row_class[neighbours] >= 0) & ~(is_new[neighbours] & (dataset.ids[neighbours] < dataset.ids[owners]))
    pairs = np.bincount(
        row_class[owners[counted]] * n + row_class[neighbours[counted]], minlength=n * n
    ).reshape(n, n)
    data = model.data_counts + (pairs + pairs.T)

    attr = None
    if model.attr_counts is not None:
        attr = model.attr_counts.copy()
        observations, obs_ptr = dataset.attributes.gather(rows)
        obs_class = np.repeat(classes, np.diff(obs_ptr))
        np.add.at(attr, obs_class, observations)

    return RelationshipModel(
        data_counts=data,
        attr_counts=attr,
        epsilon=model.epsilon,
        labels={**known, **accepted},
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
