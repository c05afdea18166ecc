import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxnoise import (
    aux_predictions,
    consensus_detect,
    majority_detect,
    probabilistic_detect,
    suspicion_table,
    voting_table,
)
from ctxnoise.classifiers import MlrConfig, MlrModel, entropy, predict_proba

from oracles import reference_probabilistic_detect, reference_voting_detect, trained_aux


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
        votes = voting_table(preds, proba)
        assert removed_ids(majority_detect(votes, ids, y, 0), ids) == set()
        # nothing is flagged, so the budget goes to the least confident
        for detect in (majority_detect, consensus_detect):
            assert removed_ids(detect(votes, ids, y, 5), ids) == least_confident(proba, y, ids, 5)

    def test_two_of_three_flags_majority_only(self):
        X, y, ensemble = blob_ensemble()
        preds, _ = ensemble
        ids = list(range(len(y)))
        assert (preds == y[:, None]).all()
        wrong = (y + 1) % 3  # all three members disagree with these labels
        votes = voting_table(*ensemble)
        assert np.array_equal(consensus_detect(votes, ids, wrong, 10), majority_detect(votes, ids, wrong, 10))

        # two members disagree with instance 1, all three with instance 2;
        # instance 0, which they all agree with, is the least confident
        preds = np.array([[0, 0, 0], [1, 1, 0], [1, 1, 1]])
        proba = np.array([[0.4, 0.6], [0.9, 0.1], [0.8, 0.2]])
        votes = voting_table(preds, proba)
        assert majority_detect(votes, [0, 1, 2], [0, 0, 0], 2).tolist() == [False, True, True]
        assert consensus_detect(votes, [0, 1, 2], [0, 0, 0], 2).tolist() == [True, False, True]

    def test_flagged_ranked_by_assigned_confidence(self):
        X, y, ensemble = blob_ensemble()
        _, proba = ensemble
        ids = list(range(len(y)))
        assigned = y.copy()
        assigned[:5] = (y[:5] + 1) % 3  # five flagged instances
        removed = removed_ids(majority_detect(voting_table(*ensemble), ids, assigned, 3), ids)
        assert len(removed) == 3
        # they are the three flagged instances with the lowest p(assigned)
        assert removed == least_confident(proba[:5], assigned[:5], ids[:5], 3)

    def test_consensus_flags_subset_of_majority_flags(self):
        # the blob ensemble's members always agree, so draw members that do not
        rng = np.random.default_rng(5)
        preds = rng.integers(0, 3, size=(75, 3))
        votes = voting_table(preds, rng.dirichlet(np.ones(3), size=75))
        ids = list(range(75))
        assigned = rng.integers(0, 3, size=75)
        disagreements = (preds != assigned[:, None]).sum(axis=1)
        n_maj, n_con = int((disagreements >= 2).sum()), int((disagreements >= 3).sum())
        assert 0 < n_con < n_maj
        # a budget of exactly the flagged count removes the flagged instances
        maj_flagged = removed_ids(majority_detect(votes, ids, assigned, n_maj), ids)
        con_flagged = removed_ids(consensus_detect(votes, ids, assigned, n_con), ids)
        assert maj_flagged == {i for i in ids if disagreements[i] >= 2}
        assert con_flagged <= maj_flagged

    def test_exact_removal_count_and_determinism(self):
        rng = np.random.default_rng(1)
        X, y, ensemble = blob_ensemble()
        votes = voting_table(*ensemble)
        ids = list(range(len(y)))
        assigned = rng.integers(0, 3, size=len(y))
        for count in (0, 5, 20, len(ids)):
            a = consensus_detect(votes, ids, assigned, count)
            b = consensus_detect(votes, ids, assigned, count)
            assert len(removed_ids(a, ids)) == count
            assert np.array_equal(a, b)
        for count in (-1, len(ids) + 1):
            with pytest.raises(ValueError, match="removal_count"):
                consensus_detect(votes, ids, assigned, count)

    def test_untrained_ensemble_rejected(self):
        # no ensemble, or the raw outputs in a table's place, fail at once
        # on the first field they lack
        _, y, (preds, proba) = blob_ensemble()
        with pytest.raises(AttributeError, match="'mlr'"):
            aux_predictions(None, np.zeros((2, 2)))
        for table in (None, preds):
            with pytest.raises(AttributeError, match="'confidence'"):
                majority_detect(table, range(len(y)), y, 1)
        with pytest.raises(AttributeError, match="'suspicion'"):
            probabilistic_detect(proba, range(len(y)), y, 1)


class TestProbabilisticDetector:
    def rows(self, rows):
        """The suspicion table of the class distributions that a classifier
        with these rows predicts for one-hot inputs."""
        rows = np.asarray(rows, dtype=float)
        n = rows.shape[1]
        model = MlrModel(np.log(rows).T, np.zeros(n), MlrConfig(n_classes=n))  # e_i selects log row i
        return suspicion_table(predict_proba(model, np.eye(len(rows))))

    def test_confident_match_scores_zero_and_outranked(self):
        # matched with near-zero entropy (id 0), mismatched with
        # 1 - p(assigned) = 0.9 (id 2), matched with high entropy (id 1)
        table = self.rows([[0.98, 0.01, 0.01], [0.1, 0.8, 0.1], [0.4, 0.3, 0.3]])
        ids = [0, 2, 1]
        assert removed_ids(probabilistic_detect(table, ids, [0, 2, 0], 1), ids) == {2}
        assert removed_ids(probabilistic_detect(table, ids, [0, 2, 0], 2), ids) == {2, 1}

    def test_mismatch_always_outranks_match(self):
        # id 1: mismatched with p(assigned)=0.3 -> s=0.7
        # id 0: matched at maximum entropy -> s=0.5
        table = self.rows([[0.5, 0.3, 0.2], [1 / 3, 1 / 3, 1 / 3]])
        assert removed_ids(probabilistic_detect(table, [1, 0], [1, 0], 1), [1, 0]) == {1}
        # equal scores of 0.5: the mismatched label still goes first
        table = self.rows([[0.5, 0.5], [0.5, 0.5]])
        assert removed_ids(probabilistic_detect(table, [0, 1], [0, 1], 1), [0, 1]) == {1}

    def test_lower_assigned_probability_removed_first(self):
        table = self.rows([[0.6, 0.1, 0.3], [0.5, 0.3, 0.2]])
        assigned = [1, 1]  # mismatched with p = 0.1 and 0.3
        assert removed_ids(probabilistic_detect(table, [1, 0], assigned, 1), [1, 0]) == {1}

    def test_tie_breaks_toward_lower_id(self):
        table = self.rows([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        removed = removed_ids(probabilistic_detect(table, [2, 0, 1], [1, 1, 1], 2), [2, 0, 1])
        assert removed == {0, 1}


NAN_ROW_FIRST = np.array([[np.nan] * 3, [0.2, 0.5, 0.3], [0.1, 0.1, 0.8]])
SURE_MEMBERS = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2]])


@pytest.mark.parametrize(
    "detect",
    [
        # used to remove id 3, the NaN score of id 1 sorting after every number
        lambda: probabilistic_detect(suspicion_table(NAN_ROW_FIRST), [1, 2, 3], [0, 1, 0], 1),
        # used to remove id 1 on its NaN confidence in the assigned class
        lambda: majority_detect(voting_table(SURE_MEMBERS, NAN_ROW_FIRST), [1, 2, 3], [1, 1, 2], 1),
        lambda: consensus_detect(voting_table(SURE_MEMBERS, NAN_ROW_FIRST), [1, 2, 3], [1, 1, 2], 1),
    ],
    ids=["probabilistic", "majority", "consensus"],
)
def test_non_finite_ranking_key_named(detect):
    with pytest.raises(ValueError, match=r"^non-finite ranking key nan for instance 1$"):
        detect()


@st.composite
def baseline_cells(draw):
    """Ids, class distributions, member predictions, a few label vectors and
    a budget from 0 to B.  Distributions come from a coarse grid and some
    copy row 0, so that instances tie on every key."""
    size = draw(st.integers(1, 12))
    n = draw(st.integers(2, 4))
    ids = draw(st.lists(st.integers(0, 40), min_size=size, max_size=size, unique=True))
    counts = np.array(draw(st.lists(st.integers(1, 3), min_size=size * n, max_size=size * n)), dtype=float)
    counts = counts.reshape(size, n)
    counts[np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))] = counts[0]
    label = st.integers(0, n - 1)
    preds = np.array(draw(st.lists(label, min_size=3 * size, max_size=3 * size))).reshape(size, 3)
    labelings = draw(st.lists(st.lists(label, min_size=size, max_size=size), min_size=1, max_size=3))
    return ids, counts / counts.sum(axis=1, keepdims=True), preds, labelings, draw(st.integers(0, size))


@given(baseline_cells())
@settings(max_examples=300, deadline=None)
def test_tables_remove_what_the_per_cell_detectors_removed(cell):
    # one table serves every label vector, as one seed's does every noise level
    ids, proba, preds, labelings, count = cell
    suspicion, votes = suspicion_table(proba), voting_table(preds, proba)
    rows = np.arange(len(ids))
    for assigned in map(np.array, labelings):
        mismatch = proba.argmax(axis=1) != assigned
        s = np.where(mismatch, 1.0 - proba[rows, assigned], 0.5 * (entropy(proba) / np.log(proba.shape[1])))
        assert suspicion.suspicion[rows, assigned].tobytes() == s.tobytes()
        assert np.array_equal(suspicion.mismatch[rows, assigned], mismatch)
        want = reference_probabilistic_detect(proba, ids, assigned, count)
        assert np.array_equal(probabilistic_detect(suspicion, ids, assigned, count), want)
        for detect, needed in ((majority_detect, 2), (consensus_detect, 3)):
            want = reference_voting_detect(preds, proba, ids, assigned, count, needed)
            assert np.array_equal(detect(votes, ids, assigned, count), want)


def test_tables_need_one_row_per_instance():
    proba, preds = np.full((3, 2), 0.5), np.zeros((3, 3), dtype=int)
    message = "^member predictions and probabilities need one row per instance$"
    with pytest.raises(ValueError, match=message):
        voting_table(preds[:2], proba)
    with pytest.raises(ValueError, match=message):
        suspicion_table(proba[0])
    with pytest.raises(ValueError, match=message):
        majority_detect(voting_table(preds, proba), [0, 1], [0, 0], 1)
    with pytest.raises(ValueError, match=message):
        probabilistic_detect(suspicion_table(proba), [0, 1, 2, 3], [0, 0, 0, 0], 1)


def test_tables_are_read_only_snapshots():
    proba, preds = np.full((3, 2), 0.5), np.zeros((3, 3), dtype=int)
    suspicion, votes = suspicion_table(proba), voting_table(preds, proba)
    proba[0], preds[0] = [0.9, 0.1], 1
    assert votes.confidence[0].tolist() == [0.5, 0.5] and votes.disagreements[0].tolist() == [0, 3]
    assert suspicion.suspicion[0].tolist() == [0.5, 0.5]
    for table in (suspicion.mismatch, suspicion.suspicion, votes.disagreements, votes.confidence):
        assert not table.flags.writeable
