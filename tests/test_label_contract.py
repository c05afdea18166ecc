"""One contract for class labels and instance ids, at every entry point that
takes them: a label vector holds whole numbers in [0, n), an id vector
whole numbers.  Anything else raises ValueError naming the first bad entry;
it used to be truncated (0.7 read as class 0) at most of these entry points.
Ints, bools and whole floats give identical outputs."""

import math
import re
from collections.abc import Mapping

import numpy as np
import pytest

from ctxnoise import (
    Conditionals,
    Dataset,
    Instance,
    MlrConfig,
    RelationshipModel,
    accuracy,
    build_relationship,
    cnld_detect,
    consensus_detect,
    detect_topk,
    dissimilarity,
    estimate_transition,
    inject_nar,
    inject_ncar,
    majority_detect,
    predict_proba,
    probabilistic_detect,
    select_informative,
    split_batches,
    star_divergences,
    suspicion_table,
    train_aux,
    train_mlr,
    train_mlr_lockstep,
    update_relationship,
    voting_table,
)

N_CLASSES = 2
IDS = [10, 11, 12, 13, 14, 15]
LABELS = [0, 1, 0, 1, 1, 0]
X = np.array([[0.0, 0.0], [4.0, 0.5], [0.5, 0.2], [3.5, 0.0], [4.2, 1.0], [0.3, 0.8]])


def ring(ids, labels):
    """Six instances linked in a ring, so that every star has context."""
    instances = [
        Instance(id=i, features=X[r], true_label=c, link_ids=[IDS[r - 1], IDS[(r + 1) % len(IDS)]])
        for r, (i, c) in enumerate(zip(ids, labels))
    ]
    return Dataset(instances=instances, n_classes=N_CLASSES, m_attribute_classes=0, class_names=["a", "b"])


DATASET = ring(IDS, LABELS)
MODEL = train_mlr(None, X, LABELS, MlrConfig(N_CLASSES, epochs=5))
RELATIONSHIP = build_relationship(DATASET, dict(zip(IDS, LABELS)))
DIVERGENCES = star_divergences(IDS, DATASET, MODEL, RELATIONSHIP)
PROBA = predict_proba(MODEL, X)
SUSPICION = suspicion_table(PROBA)
VOTES = voting_table(np.array([[0, 0, 1], [1, 1, 1], [1, 0, 0], [0, 0, 0], [1, 1, 0], [0, 1, 0]]), PROBA)
PRIOR = Conditionals(np.array([[0.7, 0.3], [0.4, 0.6]]), None)
POSTERIOR = Conditionals(np.array([[0.2, 0.8], [0.5, 0.5]]), None)

# each entry point as a function of one label vector, returning its outputs
LABEL_ENTRY_POINTS = {
    "train_mlr": lambda y: vars(train_mlr(None, X, y, MlrConfig(N_CLASSES, epochs=5))),
    "train_mlr_lockstep": lambda y: [vars(m) for m in train_mlr_lockstep([(None, X, y, MlrConfig(N_CLASSES, epochs=5))])],
    "train_aux": lambda y: vars(train_aux(X, y, MODEL, 1, False)),
    "probabilistic_detect": lambda y: probabilistic_detect(SUSPICION, IDS, y, 2),
    "consensus_detect": lambda y: consensus_detect(VOTES, IDS, y, 2),
    "majority_detect": lambda y: majority_detect(VOTES, IDS, y, 2),
    # member predictions are class labels: here all three members predict y
    "voting_table": lambda y: vars(voting_table([[c] * 3 for c in y], PROBA)),
    "cnld_detect": lambda y: cnld_detect(IDS, y, DIVERGENCES),
    "detect_topk": lambda y: detect_topk(IDS, y, DIVERGENCES, 2),
    "dissimilarity": lambda y: [dissimilarity(PRIOR, POSTERIOR, c) for c in y],
    "inject_ncar": lambda y: vars(inject_ncar(y, N_CLASSES, 0.5, 0)),
    "inject_nar": lambda y: vars(inject_nar(y, np.array([[0.6, 0.4], [0.3, 0.7]]), 0)),
    "estimate_transition": lambda y: estimate_transition(X, y, N_CLASSES).probs,
    "update_relationship": lambda y: vars(update_relationship(RELATIONSHIP, DATASET, dict(zip(IDS, y)))),
    "RelationshipModel": lambda y: vars(RelationshipModel(np.zeros((N_CLASSES, N_CLASSES)), None, labels=dict(zip(IDS, y)))),
    "accuracy": lambda y: accuracy(MODEL, X, y),
    "Dataset": lambda y: ring(IDS, y).labels,
}

ID_ENTRY_POINTS = {
    "Dataset arrays": lambda ids: vars(
        Dataset(ids=ids, labels=LABELS, features=X, n_classes=N_CLASSES, m_attribute_classes=0, class_names="ab")
    ),
    "Dataset records": lambda ids: ring(ids, LABELS).ids,
    "split_batches": lambda ids: split_batches(DATASET, 2, 0, ids=ids),
    "select_informative": lambda ids: select_informative(MODEL, DATASET, ids, 3, "entropy", 0),
    "star_divergences": lambda ids: vars(star_divergences(ids, DATASET, MODEL, RELATIONSHIP)),
    "update_relationship": lambda ids: vars(update_relationship(RELATIONSHIP, DATASET, dict(zip(ids, LABELS)))),
    "RelationshipModel": lambda ids: vars(
        RelationshipModel(np.zeros((N_CLASSES, N_CLASSES)), None, labels=dict(zip(ids, LABELS)))
    ),
    "rows": DATASET.rows,
    "feature_matrix": DATASET.feature_matrix,
    "true_labels": DATASET.true_labels,
}

# Each bad vector starts with the entry that must be named.  The first four
# are the cases train_mlr, train_mlr_lockstep and train_aux were first
# checked on; a string among numbers makes numpy read every entry as a
# string, and "0" is then the first entry that is not a number.
NOT_WHOLE = [
    ([0.7, 1.2], "0.7"),
    ([1.0, math.nan], "nan"),
    ([math.inf, 0.0], "inf"),
    (["0", "1"], "0"),
    ([None, 1], "None"),
    (["a", 1], "a"),
    ([1e300, 0], "1e+300"),  # used to wrap to -2**63
]
OUT_OF_RANGE = [-1, N_CLASSES]


def assert_identical(a, b):
    """Equal values of equal types, down through objects, dicts, lists and arrays."""
    if hasattr(a, "__dataclass_fields__"):
        assert type(a) is type(b)
        assert_identical(vars(a), vars(b))
    elif isinstance(a, Mapping):
        assert type(a) is type(b) and list(a) == list(b)
        for key in a:
            assert_identical(key, next(k for k in b if k == key))
            assert_identical(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_identical(x, y)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    else:
        assert a == b and type(a) is type(b)


@pytest.mark.parametrize("entry", LABEL_ENTRY_POINTS)
@pytest.mark.parametrize("head, shown", NOT_WHOLE, ids=[shown for _, shown in NOT_WHOLE])
def test_labels_that_are_not_whole_numbers_rejected(entry, head, shown):
    labels = head + LABELS[len(head) :]
    with pytest.raises(ValueError, match=rf"^labels must be integer-valued, got {re.escape(shown)}$"):
        LABEL_ENTRY_POINTS[entry](labels)


@pytest.mark.parametrize("entry", LABEL_ENTRY_POINTS)
@pytest.mark.parametrize("bad", OUT_OF_RANGE)
def test_labels_outside_the_classes_rejected(entry, bad):
    # a Dataset names the instance, as its other per-instance checks do
    message = rf"^instance 10: true_label {bad} out of range$" if entry == "Dataset" else (
        rf"^labels must lie in \[0, {N_CLASSES}\), got {bad}$"
    )
    with pytest.raises(ValueError, match=message):
        LABEL_ENTRY_POINTS[entry]([bad] + LABELS[1:])


@pytest.mark.parametrize("entry", ID_ENTRY_POINTS)
@pytest.mark.parametrize("head, shown", NOT_WHOLE, ids=[shown for _, shown in NOT_WHOLE])
def test_ids_that_are_not_whole_numbers_rejected(entry, head, shown):
    ids = head + IDS[len(head) :]
    with pytest.raises(ValueError, match=rf"^ids must be integer-valued, got {re.escape(shown)}$"):
        ID_ENTRY_POINTS[entry](ids)


LABEL_FORMS = {
    "int array": np.array(LABELS),
    "int32 array": np.array(LABELS, dtype=np.int32),
    "whole floats": [float(c) for c in LABELS],
    "float array": np.array(LABELS, dtype=float),
    "bools": [bool(c) for c in LABELS],
    "bool array": np.array(LABELS, dtype=bool),
}


@pytest.mark.parametrize("entry", LABEL_ENTRY_POINTS)
@pytest.mark.parametrize("form", LABEL_FORMS)
def test_label_forms_give_identical_outputs(entry, form):
    run = LABEL_ENTRY_POINTS[entry]
    assert_identical(run(LABEL_FORMS[form]), run(LABELS))


ID_FORMS = {
    "int array": np.array(IDS),
    "whole floats": [float(i) for i in IDS],
    "float array": np.array(IDS, dtype=float),
}


@pytest.mark.parametrize("entry", ID_ENTRY_POINTS)
@pytest.mark.parametrize("form", ID_FORMS)
def test_id_forms_give_identical_outputs(entry, form):
    run = ID_ENTRY_POINTS[entry]
    assert_identical(run(ID_FORMS[form]), run(IDS))


NOT_SEQUENCES = {
    "list_iterator": lambda values: iter(values),
    "generator": lambda values: (v for v in values),
    "set": set,
    "dict_keys": lambda values: dict.fromkeys(values).keys(),
    "dict_values": lambda values: dict(enumerate(values)).values(),
}


# the entry points that hand the vector to the check as they receive it
STRAIGHT_IDS = ["Dataset arrays", "split_batches", "rows", "feature_matrix", "true_labels"]
STRAIGHT_LABELS = [
    "train_mlr", "train_mlr_lockstep", "train_aux", "probabilistic_detect", "consensus_detect",
    "majority_detect", "inject_ncar", "inject_nar", "estimate_transition", "accuracy",
]


@pytest.mark.parametrize("entry", STRAIGHT_IDS)
@pytest.mark.parametrize("form", NOT_SEQUENCES)
def test_ids_that_are_not_a_sequence_named(entry, form):
    # numpy reads an iterator, a set or a dict view as one object
    with pytest.raises(TypeError, match=rf"^ids must be a sequence or an array, got {form}$"):
        ID_ENTRY_POINTS[entry](NOT_SEQUENCES[form](IDS))


@pytest.mark.parametrize("entry", STRAIGHT_LABELS)
@pytest.mark.parametrize("form", NOT_SEQUENCES)
def test_labels_that_are_not_a_sequence_named(entry, form):
    with pytest.raises(TypeError, match=rf"^labels must be a sequence or an array, got {form}$"):
        LABEL_ENTRY_POINTS[entry](NOT_SEQUENCES[form](LABELS))


@pytest.mark.parametrize("entry", ["rows", "feature_matrix", "true_labels"])
def test_a_range_of_ids_is_a_sequence(entry):
    run = ID_ENTRY_POINTS[entry]
    assert_identical(run(range(10, 16)), run(IDS))


@pytest.mark.parametrize(
    "build",
    [suspicion_table, lambda proba: voting_table(np.zeros((len(proba), 3), dtype=int), proba)],
    ids=["suspicion_table", "voting_table"],
)
def test_table_builders_need_two_classes(build):
    # a single column used to divide 0 by 0 in the suspicion table's entropy
    with pytest.raises(ValueError, match=r"^class distributions need at least 2 classes, got 1$"):
        build(np.ones((len(IDS), 1)))
