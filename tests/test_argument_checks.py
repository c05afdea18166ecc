"""Argument checks that no other test reaches: each raises ValueError with
its own message."""

import dataclasses

import numpy as np
import pytest

from ctxnoise import (
    AuxEnsemble,
    MlrConfig,
    MlrModel,
    RelationshipModel,
    StarDivergences,
    TransitionMatrix,
    build_relationship,
    detect_topk,
    estimate_transition,
    inject_nar,
    inject_ncar,
    probabilistic_detect,
    select_informative,
    split_batches,
    star_divergences,
    suspicion_table,
    train_aux,
)

from test_relationship import linked_dataset

DATASET = linked_dataset(labels=(0, 1, 2), links=((0, 1), (1, 2)))  # ids 0, 1, 2; one feature
WITH_ATTRIBUTES = linked_dataset(labels=(0, 1, 2), m=2, attr_obs={0: [[0.5, 0.5]]})
MODEL = MlrModel(np.zeros((3, 1)), np.zeros(3), MlrConfig(3))
MODEL_2 = MlrModel(np.zeros((2, 1)), np.zeros(2), MlrConfig(2))
EMPTY = build_relationship(DATASET, {})
# star 1's KL row is infinite in the class it is labeled with
INFINITE_KL = StarDivergences(
    ids=np.array([1, 2]),
    has_context=np.array([True, True]),
    data_kl=np.array([[0.0, np.inf], [0.0, 0.0]]),
    attr_kl=None,
    n_classes=2,
    m_attribute_classes=0,
)
(ENSEMBLE,) = train_aux([(DATASET.features, DATASET.labels, MODEL)], 1, False)

CASES = {
    "star features": (
        lambda: star_divergences([0], DATASET, MlrModel(np.zeros((3, 2)), np.zeros(3), MlrConfig(3)), EMPTY),
        "classifier feature dimension does not match the dataset",
    ),
    "star classes": (
        lambda: star_divergences([0], DATASET, MlrModel(np.zeros((2, 1)), np.zeros(2), MlrConfig(2)), EMPTY),
        "classifier and relationship class counts differ",
    ),
    "star attributes": (
        lambda: star_divergences([0], WITH_ATTRIBUTES, MODEL, RelationshipModel(np.zeros((3, 3)), None)),
        "instance has attribute observations but the relationship model has none",
    ),
    "non-finite score": (
        lambda: detect_topk([1, 2], [1, 0], INFINITE_KL, 1),
        "non-finite dissimilarity nan for assigned class 1",
    ),
    # every detector's budget is checked once, by metrics.remove_first
    "budget below 0": (
        lambda: detect_topk([1, 2], [0, 0], INFINITE_KL, -1),
        r"removal_count -1 out of range \[0, 2\]",
    ),
    "budget above the batch": (
        lambda: probabilistic_detect(suspicion_table(np.full((2, 2), 0.5)), [1, 2], [0, 0], 3),
        r"removal_count 3 out of range \[0, 2\]",
    ),
    # a fraction used to fail inside a slice, and True to remove one instance
    "budget a fraction": (
        lambda: probabilistic_detect(suspicion_table(np.full((2, 2), 0.5)), [1, 2], [0, 0], 1.5),
        "removal_count must be an integer, got 1.5",
    ),
    "budget a bool": (
        lambda: detect_topk([1, 2], [0, 0], INFINITE_KL, True),
        "removal_count must be an integer, got True",
    ),
    "select too many": (
        lambda: select_informative(MODEL, DATASET, [0, 1], 3, "entropy", 0),
        "k exceeds the batch size",
    ),
    "select strategy": (
        lambda: select_informative(MODEL, DATASET, [0, 1], 1, "bogus", 0),
        "unknown selection strategy 'bogus'",
    ),
    "knn store": (
        # an ensemble checks its k when it is built, and so when it is replaced
        lambda: dataclasses.replace(ENSEMBLE, knn_k=5),
        "knn_k must be a positive odd number at most the pool size 3, got 5",
    ),
    # an ensemble checks its kNN labels when it is built: a label past its
    # classes, or a missing one, used to raise IndexError at its first vote
    "knn label": (
        lambda: AuxEnsemble(MODEL_2, np.zeros((2, 1)), np.zeros(2), np.arange(5.0)[:, None], [0, 1, 9], 1, None, None),
        r"knn_labels must lie in \[0, 2\), got 9",
    ),
    "knn label count": (
        lambda: AuxEnsemble(MODEL_2, np.zeros((2, 1)), np.zeros(2), np.arange(5.0)[:, None], [0, 1, 1], 1, None, None),
        r"knn_labels need one label per stored row, got shape \(3,\) for 5 rows",
    ),
    "one batch": (lambda: split_batches(DATASET, 1, 0), "n_batches must be >= 2"),
    "batches past instances": (lambda: split_batches(DATASET, 4, 0), "more batches than instances"),
    "absent class": (lambda: split_batches(DATASET, 2, 0, ids=[0, 1]), r"classes absent from dataset: \[2\]"),
    # each of these used to be reached only by a test that takes any
    # ValueError, which numpy raises later on its own
    "ncar omega": (lambda: inject_ncar([0, 1], 2, 1.5, 0), r"omega must lie in \[0, 1\]"),
    "transition shape": (lambda: TransitionMatrix(np.full((2, 3), 1 / 3)), "transition matrix must be square"),
    "transition range": (
        lambda: TransitionMatrix([[1.2, -0.2], [0.0, 1.0]]), r"transition probabilities must lie in \[0, 1\]"
    ),
    "transition rows": (lambda: inject_nar([0], [[0.5, 0.2], [0.1, 0.9]], 0), "transition matrix rows must sum to 1"),
    "transition pool": (lambda: estimate_transition(np.zeros((3, 1)), [0, 1], 2), "features and labels must align"),
    "transition class": (lambda: estimate_transition(np.zeros((4, 1)), [0, 0, 0, 0], 2), "class 1 has no samples"),
}


@pytest.mark.parametrize("case", CASES)
def test_bad_argument_named(case):
    call, message = CASES[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
