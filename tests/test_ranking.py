"""Tie order of every ranking: the detectors' removal budgets, the verdict
masks, entropy selection and the AUC.

Inputs lie on a small integer grid, so that ties are common.  Each ranking
must match a reference written here with ``sorted`` over the documented key,
ties going to the lower id, or, for the AUC, with explicit pair counts.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxnoise import (
    Dataset,
    Instance,
    MlrConfig,
    MlrModel,
    cnld_detect,
    consensus_detect,
    detect_topk,
    majority_detect,
    probabilistic_detect,
    ranking_auc,
    select_informative,
)
from ctxnoise import detector
from ctxnoise.classifiers import entropy, predict_proba
from ctxnoise.detector import KEEP, REMOVE, UNFILTERABLE


@st.composite
def batches(draw):
    """Distinct ids in random order, and a removal budget."""
    ids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=12, unique=True))
    return ids, draw(st.integers(0, len(ids)))


def grid(data, shape, low=0, high=3) -> np.ndarray:
    size = int(np.prod(shape))
    return np.array(data.draw(st.lists(st.integers(low, high), min_size=size, max_size=size))).reshape(shape)


def first(ids, count, key):
    """The ``count`` ids that ``sorted`` puts first by ``key(row)``, then id."""
    order = sorted(range(len(ids)), key=lambda r: (*key(r), ids[r]))
    return {ids[r] for r in order[:count]}


@given(batches(), st.data())
@settings(max_examples=200, deadline=None)
def test_detect_topk_and_verdicts(batch, data):
    ids, count = batch
    scores = grid(data, len(ids)) / 2.0
    has_context = grid(data, len(ids), high=1).astype(bool)
    with mock.patch.object(detector, "_score_batch", return_value=(scores, has_context)):
        result = detect_topk(ids, [0] * len(ids), None, None, None, count)
    removed = first(ids, count, lambda r: (-scores[r],))
    assert result.removed_ids() == removed
    assert result.verdicts == [
        REMOVE if i in removed else KEEP if has_context[r] else UNFILTERABLE for r, i in enumerate(ids)
    ]


@given(batches(), st.data(), st.sampled_from([0.0, 0.5, 0.85]))
@settings(max_examples=100, deadline=None)
def test_cnld_verdicts(batch, data, beta):
    ids, _ = batch
    scores = grid(data, len(ids)) / 2.0
    has_context = grid(data, len(ids), high=1).astype(bool)
    with mock.patch.object(detector, "_score_batch", return_value=(scores, has_context)):
        result = cnld_detect(ids, [0] * len(ids), None, None, None, beta)
    assert result.verdicts == [
        UNFILTERABLE if not has_context[r] else KEEP if result.weights[r] > beta else REMOVE
        for r in range(len(ids))
    ]


@given(batches(), st.data())
@settings(max_examples=200, deadline=None)
def test_voting_detectors(batch, data):
    ids, count = batch
    preds = grid(data, (len(ids), 3), high=2)
    proba = grid(data, (len(ids), 3)) / 4.0
    assigned = grid(data, len(ids), high=2)
    for detect, needed in ((majority_detect, 2), (consensus_detect, 3)):
        flagged = (preds != assigned[:, None]).sum(axis=1) >= needed
        removed = first(ids, count, lambda r: (not flagged[r], proba[r, assigned[r]]))
        assert detect(preds, proba, ids, assigned, count) == removed


@given(batches(), st.data())
@settings(max_examples=200, deadline=None)
def test_probabilistic_detector(batch, data):
    ids, count = batch
    counts = grid(data, (len(ids), 3), low=1)
    proba = counts / counts.sum(axis=1, keepdims=True)
    assigned = grid(data, len(ids), high=2)
    mismatch = proba.argmax(axis=1) != assigned
    norm_entropy = entropy(proba) / np.log(3)

    def key(r):
        s = 1.0 - proba[r, assigned[r]] if mismatch[r] else 0.5 * norm_entropy[r]
        return (not mismatch[r], -s)

    assert probabilistic_detect(proba, ids, assigned, count) == first(ids, count, key)


@given(batches(), st.data())
@settings(max_examples=100, deadline=None)
def test_entropy_selection(batch, data):
    ids, _ = batch
    k = data.draw(st.integers(1, len(ids)))
    table = grid(data, (len(ids), 3), low=1)
    # instance ids[r] is the one-hot e_r, for which the model predicts table row r
    instances = [Instance(id=i, features=np.eye(len(ids))[r], true_label=0) for r, i in enumerate(ids)]
    dataset = Dataset(instances, n_classes=3, m_attribute_classes=0, class_names=["a", "b", "c"])
    model = MlrModel(np.log(table).T, np.zeros(3), MlrConfig(n_classes=3))
    H = entropy(predict_proba(model, np.eye(len(ids))))
    expected = sorted(ids, key=lambda i: (-H[ids.index(i)], i))[:k]
    assert select_informative(model, dataset, ids, k, "entropy", seed=0) == expected


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_ranking_auc_counts_ties_half(data):
    n = data.draw(st.integers(2, 15))
    scores = grid(data, n) / 2.0
    positive = grid(data, n, high=1).astype(bool)
    positive[:2] = True, False  # both classes present
    pos, neg = scores[positive], scores[~positive]
    pairs = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
    assert ranking_auc(scores, positive) == pairs / (len(pos) * len(neg))
