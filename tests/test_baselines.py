import numpy as np
import pytest

from ctxnoise import (
    aux_predictions,
    consensus_detect,
    majority_detect,
    probabilistic_detect,
)
from ctxnoise.classifiers import MlrConfig, MlrModel, predict_proba

from oracles import trained_aux


def blob_ensemble(seed=0):
    """Blob data, labels and the voting inputs (member predictions, logistic
    probabilities) of an ensemble trained on it."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    X = np.concatenate([c + 0.3 * rng.normal(size=(25, 2)) for c in centers])
    y = np.repeat(np.arange(3), 25)
    ensemble = trained_aux(X, y, 3, seed=seed)
    return X, y, (aux_predictions(ensemble, X), predict_proba(ensemble.mlr, X))


def removed_ids(mask, ids):
    """The ids that a detector's (B,) bool mask, aligned with ``ids``, removes."""
    assert mask.dtype == bool and mask.shape == (len(ids),)
    return {i for i, removed in zip(ids, mask) if removed}


def least_confident(proba, assigned, ids, count):
    """The ``count`` ids with the lowest p(assigned), ties to the lower id."""
    p = proba[np.arange(len(ids)), assigned]
    return set(sorted(ids, key=lambda i: (p[ids.index(i)], i))[:count])


class TestVotingDetectors:
    def test_agreement_means_not_flagged(self):
        X, y, ensemble = blob_ensemble()
        preds, proba = ensemble
        ids = list(range(len(y)))
        assert (preds == y[:, None]).all()
        assert removed_ids(majority_detect(*ensemble, ids, y, 0), ids) == set()
        # nothing is flagged, so the budget goes to the least confident
        for detect in (majority_detect, consensus_detect):
            assert removed_ids(detect(*ensemble, ids, y, 5), ids) == least_confident(proba, y, ids, 5)

    def test_two_of_three_flags_majority_only(self):
        X, y, ensemble = blob_ensemble()
        preds, _ = ensemble
        ids = list(range(len(y)))
        assert (preds == y[:, None]).all()
        wrong = (y + 1) % 3  # all three members disagree with these labels
        assert np.array_equal(consensus_detect(*ensemble, ids, wrong, 10), majority_detect(*ensemble, ids, wrong, 10))

        # two members disagree with instance 1, all three with instance 2;
        # instance 0, which they all agree with, is the least confident
        preds = np.array([[0, 0, 0], [1, 1, 0], [1, 1, 1]])
        proba = np.array([[0.4, 0.6], [0.9, 0.1], [0.8, 0.2]])
        assert majority_detect(preds, proba, [0, 1, 2], [0, 0, 0], 2).tolist() == [False, True, True]
        assert consensus_detect(preds, proba, [0, 1, 2], [0, 0, 0], 2).tolist() == [True, False, True]

    def test_flagged_ranked_by_assigned_confidence(self):
        X, y, ensemble = blob_ensemble()
        _, proba = ensemble
        ids = list(range(len(y)))
        assigned = y.copy()
        assigned[:5] = (y[:5] + 1) % 3  # five flagged instances
        removed = removed_ids(majority_detect(*ensemble, ids, assigned, 3), ids)
        assert len(removed) == 3
        # they are the three flagged instances with the lowest p(assigned)
        assert removed == least_confident(proba[:5], assigned[:5], ids[:5], 3)

    def test_consensus_flags_subset_of_majority_flags(self):
        # the blob ensemble's members always agree, so draw members that do not
        rng = np.random.default_rng(5)
        preds = rng.integers(0, 3, size=(75, 3))
        ensemble = (preds, rng.dirichlet(np.ones(3), size=75))
        ids = list(range(75))
        assigned = rng.integers(0, 3, size=75)
        disagreements = (preds != assigned[:, None]).sum(axis=1)
        n_maj, n_con = int((disagreements >= 2).sum()), int((disagreements >= 3).sum())
        assert 0 < n_con < n_maj
        # a budget of exactly the flagged count removes the flagged instances
        maj_flagged = removed_ids(majority_detect(*ensemble, ids, assigned, n_maj), ids)
        con_flagged = removed_ids(consensus_detect(*ensemble, ids, assigned, n_con), ids)
        assert maj_flagged == {i for i in ids if disagreements[i] >= 2}
        assert con_flagged <= maj_flagged

    def test_exact_removal_count_and_determinism(self):
        rng = np.random.default_rng(1)
        X, y, ensemble = blob_ensemble()
        ids = list(range(len(y)))
        assigned = rng.integers(0, 3, size=len(y))
        for count in (0, 5, 20, len(ids)):
            a = consensus_detect(*ensemble, ids, assigned, count)
            b = consensus_detect(*ensemble, ids, assigned, count)
            assert len(removed_ids(a, ids)) == count
            assert np.array_equal(a, b)
        for count in (-1, len(ids) + 1):
            with pytest.raises(ValueError, match="removal_count"):
                consensus_detect(*ensemble, ids, assigned, count)

    def test_untrained_ensemble_rejected(self):
        with pytest.raises(ValueError):
            aux_predictions(None, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            majority_detect(None, None, [0, 1], [0, 0], 1)


class TestProbabilisticDetector:
    def rows(self, rows):
        """Class distributions as a classifier with these rows predicts
        them for one-hot inputs."""
        rows = np.asarray(rows, dtype=float)
        n = rows.shape[1]
        model = MlrModel(np.log(rows).T, np.zeros(n), MlrConfig(n_classes=n))  # e_i selects log row i
        return predict_proba(model, np.eye(len(rows)))

    def test_confident_match_scores_zero_and_outranked(self):
        # matched with near-zero entropy (id 0), mismatched with
        # 1 - p(assigned) = 0.9 (id 2), matched with high entropy (id 1)
        proba = self.rows([[0.98, 0.01, 0.01], [0.1, 0.8, 0.1], [0.4, 0.3, 0.3]])
        ids = [0, 2, 1]
        assert removed_ids(probabilistic_detect(proba, ids, [0, 2, 0], 1), ids) == {2}
        assert removed_ids(probabilistic_detect(proba, ids, [0, 2, 0], 2), ids) == {2, 1}

    def test_mismatch_always_outranks_match(self):
        # id 1: mismatched with p(assigned)=0.3 -> s=0.7
        # id 0: matched at maximum entropy -> s=0.5
        proba = self.rows([[0.5, 0.3, 0.2], [1 / 3, 1 / 3, 1 / 3]])
        assert removed_ids(probabilistic_detect(proba, [1, 0], [1, 0], 1), [1, 0]) == {1}
        # equal scores of 0.5: the mismatched label still goes first
        proba = self.rows([[0.5, 0.5], [0.5, 0.5]])
        assert removed_ids(probabilistic_detect(proba, [0, 1], [0, 1], 1), [0, 1]) == {1}

    def test_lower_assigned_probability_removed_first(self):
        proba = self.rows([[0.6, 0.1, 0.3], [0.5, 0.3, 0.2]])
        assigned = [1, 1]  # mismatched with p = 0.1 and 0.3
        assert removed_ids(probabilistic_detect(proba, [1, 0], assigned, 1), [1, 0]) == {1}

    def test_tie_breaks_toward_lower_id(self):
        proba = self.rows([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        removed = removed_ids(probabilistic_detect(proba, [2, 0, 1], [1, 1, 1], 2), [2, 0, 1])
        assert removed == {0, 1}


NAN_ROW_FIRST = np.array([[np.nan] * 3, [0.2, 0.5, 0.3], [0.1, 0.1, 0.8]])
SURE_MEMBERS = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2]])


@pytest.mark.parametrize(
    "detect",
    [
        # used to remove id 3, the NaN score of id 1 sorting after every number
        lambda: probabilistic_detect(NAN_ROW_FIRST, [1, 2, 3], [0, 1, 0], 1),
        # used to remove id 1 on its NaN confidence in the assigned class
        lambda: majority_detect(SURE_MEMBERS, NAN_ROW_FIRST, [1, 2, 3], [1, 1, 2], 1),
        lambda: consensus_detect(SURE_MEMBERS, NAN_ROW_FIRST, [1, 2, 3], [1, 1, 2], 1),
    ],
    ids=["probabilistic", "majority", "consensus"],
)
def test_non_finite_ranking_key_named(detect):
    with pytest.raises(ValueError, match=r"^non-finite ranking key nan for instance 1$"):
        detect()
