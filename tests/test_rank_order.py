"""Rank order independent of the order a batch arrives in.

``first_k`` must give the positions of ``reference_first_k``, the ranking
rule written with ``sorted``, on duplicate ids, bool keys and float keys
with signed zeros, NaN and heavy ties: ``np.lexsort``'s float order is
pinned on every numpy the package admits.  Every detector must be
order-equivariant: permuting the ids, the labels and the label-free rows
together permutes the removed mask the same way and leaves the AUC of the
scores unchanged.  The detection suite rests on both, since it ranks the
evaluation split in ascending id order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxnoise import (
    StarDivergences,
    consensus_detect,
    detect_topk,
    first_k,
    majority_detect,
    probabilistic_detect,
    ranking_auc,
)

from oracles import reference_first_k

# few distinct values, so that ties are heavy; -0.0 ties 0.0 and NaN sorts last
FLOATS = np.array([-0.0, 0.0, np.nan, 1.0, -1.0, 0.5, np.inf, -np.inf])


@st.composite
def rankings(draw):
    """Ids, duplicated often or rarely, given as a list or an array, and up
    to three keys of mixed kinds, from a seeded generator."""
    size = draw(st.one_of(st.integers(0, 12), st.integers(13, 1000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = rng.integers(0, draw(st.sampled_from([size // 2 + 1, 4 * size + 1])), size)
    if draw(st.booleans()):
        ids = ids.tolist()
    keys = []
    for kind in draw(st.lists(st.sampled_from(["bool", "int", "float"]), max_size=3)):
        if kind == "bool":
            keys.append(rng.integers(0, 2, size).astype(bool))
        elif kind == "int":
            keys.append(rng.integers(-2, 3, size))
        else:
            keys.append(FLOATS[rng.integers(0, len(FLOATS), size)])
    return ids, keys


@given(rankings(), st.data())
@settings(max_examples=300, deadline=None)
def test_first_k_matches_the_sorted_rule(ranking, data):
    ids, keys = ranking
    for k in {0, data.draw(st.integers(0, len(ids))), len(ids)}:
        got = first_k(ids, k, *keys)
        assert got.tolist() == reference_first_k(ids, k, *keys).tolist()
        assert got.dtype == np.intp


def test_first_k_every_budget():
    rng = np.random.default_rng(5)
    ids = rng.integers(0, 20, 40)
    keys = rng.integers(0, 2, 40).astype(bool), FLOATS[rng.integers(0, len(FLOATS), 40)]
    for k in range(len(ids) + 1):
        assert first_k(ids, k, *keys).tolist() == reference_first_k(ids, k, *keys).tolist()


@pytest.mark.parametrize("delta", [-1, 1])
def test_key_of_wrong_length_rejected(delta):
    ids = [3, 1, 2]
    key = np.zeros(len(ids) + delta)
    with pytest.raises(ValueError):
        reference_first_k(ids, 1, key)
    with pytest.raises(ValueError):
        first_k(ids, 1, key)
    with pytest.raises(ValueError):
        first_k(ids, 1, np.zeros(len(ids)), key)


@st.composite
def permuted_batches(draw):
    """Distinct ids, a removal budget, labels, label-free rows and a
    permutation of the batch, all from a seeded generator on small grids."""
    size = draw(st.integers(1, 200))
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = {
        "ids": rng.choice(4 * size, size, replace=False),
        "assigned": rng.integers(0, n, size),
        "kls": rng.integers(0, 4, (size, n)) / 2.0,
        "has_context": rng.integers(0, 2, size).astype(bool),
        "preds": rng.integers(0, n, (size, 3)),
        "proba": rng.integers(1, 4, (size, n)) / 4.0,
        "flipped": rng.integers(0, 2, size).astype(bool),
    }
    return batch, draw(st.integers(0, size)), rng.permutation(size)


def _detect_all(b, count):
    """Each detector's removed mask on batch ``b``, and the cnld scores."""
    n = b["kls"].shape[1]
    table = StarDivergences(b["ids"], b["has_context"], b["kls"], None, n_classes=n, m_attribute_classes=0)
    removed, scores = detect_topk(b["ids"], b["assigned"], table, count)
    proba = b["proba"] / b["proba"].sum(axis=1, keepdims=True)
    masks = {
        "cnld": removed,
        "probabilistic": probabilistic_detect(proba, b["ids"], b["assigned"], count),
        "consensus": consensus_detect(b["preds"], proba, b["ids"], b["assigned"], count),
        "majority": majority_detect(b["preds"], proba, b["ids"], b["assigned"], count),
    }
    return masks, scores


@given(permuted_batches())
@settings(max_examples=200, deadline=None)
def test_detectors_are_order_equivariant(drawn):
    batch, count, p = drawn
    permuted = {key: rows[p] for key, rows in batch.items()}
    masks, scores = _detect_all(batch, count)
    permuted_masks, permuted_scores = _detect_all(permuted, count)
    for name, mask in masks.items():
        assert np.array_equal(permuted_masks[name], mask[p]), name
    assert permuted_scores.tobytes() == scores[p].tobytes()
    if 0 < batch["flipped"].sum() < len(p):
        assert ranking_auc(permuted_scores, permuted["flipped"]) == ranking_auc(scores, batch["flipped"])
