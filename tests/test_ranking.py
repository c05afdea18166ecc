"""Tie order of every ranking: ``first_k`` itself, the detectors' removal
budgets, the removed masks, entropy selection and the AUC.

Inputs lie on a small integer grid, so that ties are common.  Each ranking
must match a reference written here with ``sorted`` over the documented key,
ties going to the lower id, or, for the AUC, with explicit pair counts.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxnoise import (
    Dataset,
    Instance,
    MlrConfig,
    MlrModel,
    StarDivergences,
    batch_weights,
    cnld_detect,
    consensus_detect,
    detect_topk,
    first_k,
    majority_detect,
    probabilistic_detect,
    ranking_auc,
    select_informative,
)
from ctxnoise.classifiers import entropy, predict_proba


@st.composite
def batches(draw):
    """Distinct ids in random order, and a removal budget."""
    ids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=12, unique=True))
    return ids, draw(st.integers(0, len(ids)))


def grid(data, shape, low=0, high=3) -> np.ndarray:
    size = int(np.prod(shape))
    return np.array(data.draw(st.lists(st.integers(low, high), min_size=size, max_size=size))).reshape(shape)


def scored(ids, scores, has_context) -> StarDivergences:
    """A two-class table whose stars score ``scores`` against class 0: the
    KL row (2s, 0) hinges to (2s - 0) / 2 = s, exactly for s on the grid."""
    kls = np.stack([2.0 * scores, np.zeros(len(ids))], axis=1)
    return StarDivergences(np.array(ids), has_context, kls, None, n_classes=2, m_attribute_classes=0)


def first(ids, count, key):
    """The (B,) bool mask of the ``count`` ids that ``sorted`` puts first by
    ``key(row)``, then id."""
    order = sorted(range(len(ids)), key=lambda r: (*key(r), ids[r]))
    return np.isin(np.arange(len(ids)), order[:count])


@given(batches(), st.data())
@settings(max_examples=200, deadline=None)
def test_first_k_rank_order(batch, data):
    ids, count = batch
    major, minor = grid(data, len(ids), high=1), grid(data, len(ids))
    expected = sorted(range(len(ids)), key=lambda r: (major[r], minor[r], ids[r]))[:count]
    assert first_k(ids, count, major, minor).tolist() == expected


@given(batches(), st.data())
@settings(max_examples=200, deadline=None)
def test_detect_topk_and_verdicts(batch, data):
    ids, count = batch
    scores = grid(data, len(ids)) / 2.0
    has_context = grid(data, len(ids), high=1).astype(bool)
    removed, got_scores = detect_topk(ids, [0] * len(ids), scored(ids, scores, has_context), count)
    assert np.array_equal(got_scores, scores)
    # the budget reaches stars without context too: only the scores rank
    assert np.array_equal(removed, first(ids, count, lambda r: (-scores[r],)))


@given(batches(), st.data(), st.sampled_from([0.0, 0.5, 0.85]))
@settings(max_examples=100, deadline=None)
def test_cnld_verdicts(batch, data, beta):
    ids, _ = batch
    scores = grid(data, len(ids)) / 2.0
    has_context = grid(data, len(ids), high=1).astype(bool)
    table = scored(ids, scores, has_context)
    removed, got_scores = cnld_detect(ids, [0] * len(ids), table, beta)
    assert np.array_equal(got_scores, scores)
    # a star without context is always kept; one with context is removed
    # exactly when its weight is at most beta
    assert np.array_equal(removed, table.has_context & (batch_weights(scores) <= beta))


@given(batches(), st.data(), st.sampled_from([0.0, 0.5, 0.85]))
@settings(max_examples=100, deadline=None)
def test_both_detectors_score_alike(batch, data, beta):
    # any finite nonnegative KL rows, two and three classes, labels of either
    ids, count = batch
    n = data.draw(st.integers(2, 3))
    kl = st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False)
    kls = np.array(data.draw(st.lists(kl, min_size=len(ids) * n, max_size=len(ids) * n))).reshape(len(ids), n)
    has_context = grid(data, len(ids), high=1).astype(bool)
    labels = grid(data, len(ids), high=n - 1)
    table = StarDivergences(np.array(ids), has_context, kls, None, n_classes=n, m_attribute_classes=0)
    _, cnld_scores = cnld_detect(ids, labels, table, beta)
    _, topk_scores = detect_topk(ids, labels, table, count)
    assert cnld_scores.tobytes() == topk_scores.tobytes()


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
        assert np.array_equal(detect(preds, proba, ids, assigned, count), removed)


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

    assert np.array_equal(probabilistic_detect(proba, ids, assigned, count), first(ids, count, key))


@given(batches(), st.data())
@settings(max_examples=100, deadline=None)
def test_entropy_selection(batch, data):
    ids, _ = batch
    k = data.draw(st.integers(1, len(ids)))
    table = grid(data, (len(ids), 3), low=1)
    # instance ids[r] is the one-hot e_r, for which the model predicts table row r
    instances = [Instance(id=i, features=np.eye(len(ids))[r], true_label=0) for r, i in enumerate(ids)]
    dataset = Dataset(instances=instances, n_classes=3, m_attribute_classes=0, class_names=["a", "b", "c"])
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


def pair_count_auc(scores, positive) -> float:
    """Share of (positive, negative) pairs the positive wins, ties half."""
    pos = [s for s, p in zip(scores, positive) if p]
    neg = [s for s, p in zip(scores, positive) if not p]
    return sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg) / (len(pos) * len(neg))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_ranking_auc_is_the_pair_count_on_any_finite_scores(data):
    # signed zeros tie with each other; wide floats and repeats make runs
    n = data.draw(st.integers(2, 20))
    value = st.sampled_from([-0.0, 0.0, 0.5, -1.5, 5e-324]) | st.floats(-1e300, 1e300)
    scores = data.draw(st.lists(value, min_size=n, max_size=n))
    positive = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    first, second = data.draw(st.permutations(range(n)))[:2]
    positive[first], positive[second] = True, False  # both classes present
    assert ranking_auc(scores, positive) == pair_count_auc(scores, positive)


def test_ranking_auc_edge_cases():
    assert ranking_auc([-0.0, 0.0], [True, False]) == 0.5
    assert ranking_auc([0.0, -0.0, 1.0], [True, False, False]) == 0.25
    assert ranking_auc([2.0] * 7, [True, False, True, False, False, True, False]) == 0.5
    single = [0.1, 0.3, 0.2, 0.3, -0.0]
    assert ranking_auc(single, [False, True, False, False, False]) == pair_count_auc(single, [0, 1, 0, 0, 0]) == 3.5 / 4
    assert ranking_auc(single, [True, True, True, True, False]) == 1.0
