import numpy as np
import pytest

from ctxnoise import (
    AuxConfig,
    aux_predictions,
    consensus_detect,
    majority_detect,
    probabilistic_detect,
    probabilistic_scores,
    train_aux,
    voting_scores,
)
from ctxnoise.classifiers import MlrConfig, MlrModel, predict_proba
from ctxnoise.dataset import Instance


def instances_from(X):
    return [Instance(id=i, features=np.asarray(x, dtype=float), true_label=0) for i, x in enumerate(X)]


def blob_ensemble(seed=0):
    """Blob data, labels and the voting inputs (member predictions, logistic
    probabilities) of an ensemble trained on it."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    X = np.concatenate([c + 0.3 * rng.normal(size=(25, 2)) for c in centers])
    y = np.repeat(np.arange(3), 25)
    ensemble = train_aux(X, y, AuxConfig(n_classes=3, seed=seed))
    return X, y, (aux_predictions(ensemble, X), predict_proba(ensemble.mlr, X))


class TestVotingDetectors:
    def test_agreement_means_not_flagged(self):
        X, y, ensemble = blob_ensemble()
        insts = instances_from(X)
        scores = voting_scores(*ensemble, insts, y, min_disagreements=2)
        assert all(not any(s.disagreements) for s in scores)
        assert majority_detect(*ensemble, insts, y, 0) == set()

    def test_two_of_three_flags_majority_only(self):
        X, y, ensemble = blob_ensemble()
        insts = instances_from(X)
        preds, _ = ensemble
        assert (preds == y[:, None]).all()
        wrong = (y + 1) % 3  # all three members disagree with these labels
        maj = voting_scores(*ensemble, insts, wrong, min_disagreements=2)
        con = voting_scores(*ensemble, insts, wrong, min_disagreements=3)
        assert all(sum(s.disagreements) == 3 for s in maj)
        assert {s.instance_id for s in con if s.rank < 10} <= {
            s.instance_id for s in maj if s.rank < 10
        }

    def test_flagged_ranked_by_assigned_confidence(self):
        X, y, ensemble = blob_ensemble()
        insts = instances_from(X)
        assigned = y.copy()
        assigned[:5] = (y[:5] + 1) % 3  # five flagged instances
        removed = majority_detect(*ensemble, insts, assigned, 3)
        assert len(removed) == 3
        assert removed <= {0, 1, 2, 3, 4}
        # they are the three flagged instances with the lowest p(assigned)
        scores = voting_scores(*ensemble, insts, assigned, 2)
        flagged = sorted((s for s in scores if s.instance_id < 5), key=lambda s: s.rank)
        assert {s.instance_id for s in flagged[:3]} == removed

    def test_consensus_flags_subset_of_majority_flags(self):
        rng = np.random.default_rng(5)
        X, y, ensemble = blob_ensemble()
        insts = instances_from(X)
        assigned = rng.integers(0, 3, size=len(y))
        maj = voting_scores(*ensemble, insts, assigned, 2)
        con = voting_scores(*ensemble, insts, assigned, 3)
        maj_flagged = {s.instance_id for s in maj if sum(s.disagreements) >= 2}
        con_flagged = {s.instance_id for s in con if sum(s.disagreements) >= 3}
        assert con_flagged <= maj_flagged

    def test_exact_removal_count_and_determinism(self):
        rng = np.random.default_rng(1)
        X, y, ensemble = blob_ensemble()
        insts = instances_from(X)
        assigned = rng.integers(0, 3, size=len(y))
        for count in (0, 5, 20, len(insts)):
            a = consensus_detect(*ensemble, insts, assigned, count)
            b = consensus_detect(*ensemble, insts, assigned, count)
            assert len(a) == count
            assert a == b

    def test_untrained_ensemble_rejected(self):
        insts = instances_from(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            aux_predictions(None, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            majority_detect(None, None, insts, [0, 0], 1)


class TestProbabilisticDetector:
    def model_with_rows(self, rows):
        """Classifier whose predictions on one-hot inputs are fixed rows."""
        rows = np.asarray(rows, dtype=float)
        weights = np.log(rows).T  # input e_i selects column i = log row i
        n = rows.shape[1]
        return MlrModel(weights, np.zeros(n), MlrConfig(n_classes=n))

    def test_confident_match_scores_zero_and_outranked(self):
        rows = [[0.98, 0.01, 0.01], [0.1, 0.8, 0.1]]
        model = self.model_with_rows(rows)
        insts = instances_from(np.eye(2))
        scores = probabilistic_scores(model, insts, [0, 2])
        assert scores[0].score < 0.1  # near-zero entropy, matched
        assert scores[1].score == pytest.approx(0.9)  # mismatched, 1 - p(assigned)
        assert scores[1].rank < scores[0].rank

    def test_mismatch_always_outranks_match(self):
        rows = [[0.5, 0.3, 0.2], [1 / 3, 1 / 3, 1 / 3]]
        model = self.model_with_rows(rows)
        insts = instances_from(np.eye(2))
        # instance 0 mismatched with p(assigned)=0.3 -> s=0.7
        # instance 1 matched at maximum entropy -> s=0.5
        scores = probabilistic_scores(model, insts, [1, 0])
        assert scores[0].rank == 0
        assert probabilistic_detect(model, insts, [1, 0], 1) == {0}

    def test_lower_assigned_probability_removed_first(self):
        rows = [[0.6, 0.1, 0.3], [0.5, 0.3, 0.2]]
        model = self.model_with_rows(rows)
        insts = instances_from(np.eye(2))
        assigned = [1, 1]  # mismatched with p = 0.1 and 0.3
        assert probabilistic_detect(model, insts, assigned, 1) == {0}

    def test_tie_breaks_toward_lower_id(self):
        rows = [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]]
        model = self.model_with_rows(rows)
        insts = instances_from(np.eye(3)[[0, 0, 0]])
        removed = probabilistic_detect(model, insts, [1, 1, 1], 2)
        assert removed == {0, 1}
