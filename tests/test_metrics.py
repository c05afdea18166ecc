import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxnoise import MlrConfig, MlrModel, accuracy, detection_metrics, ranking_auc


class TestDetectionMetrics:
    def test_worked_example(self):
        # 10 instances, 4 mislabeled; remove 4 of which 3 are mislabeled
        flipped = np.arange(10) < 4
        removed = np.isin(np.arange(10), [0, 1, 2, 5])
        m = detection_metrics(removed, flipped)
        assert m.er1 == pytest.approx(1 / 6)
        assert m.er2 == pytest.approx(1 / 4)
        assert m.nep == pytest.approx(3 / 4)

    def test_perfect_detector(self):
        flipped = np.arange(10) < 4
        m = detection_metrics(flipped.copy(), flipped)
        assert m.er1 == 0.0
        assert m.er2 == 0.0
        assert m.nep == 1.0

    def test_remove_nothing(self):
        m = detection_metrics(np.zeros(10, dtype=bool), np.arange(10) < 4)
        assert m.er1 == 0.0
        assert m.er2 == 1.0
        assert m.nep is None

    def test_degenerate_denominators_reported_absent(self):
        all_clean = np.zeros(5, dtype=bool)
        m = detection_metrics(np.arange(5) == 0, all_clean)
        assert m.er2 is None
        all_noisy = np.ones(5, dtype=bool)
        m = detection_metrics(np.zeros(5, dtype=bool), all_noisy)
        assert m.er1 is None
        assert m.nep is None

    def test_unknown_removed_id_rejected(self):
        # a mask longer than the flip mask removes an instance it does not cover
        with pytest.raises(ValueError, match="aligned"):
            detection_metrics(np.array([False, True]), np.array([True]))
        # ids in place of a mask are rejected, not read as truth values
        with pytest.raises(ValueError, match="bool"):
            detection_metrics(np.array([0]), np.array([True]))

    @given(
        st.lists(st.booleans(), min_size=1, max_size=40),
        st.sets(st.integers(0, 39)),
    )
    @settings(max_examples=200, deadline=None)
    def test_integer_identities(self, flips, removed_raw):
        flipped = np.array(flips)
        removed = np.isin(np.arange(len(flips)), sorted(removed_raw))
        m = detection_metrics(removed, flipped)
        counts = (m.correct_removed, m.mislabeled_kept, m.mislabeled_removed, m.removed, m.correct_total,
                  m.mislabeled_total)
        # numpy scalars would print as np.int64(...) and np.float64(...) in the result files
        assert all(type(c) is int for c in counts)
        assert all(type(v) is float for v in (m.er1, m.er2, m.nep) if v is not None)
        assert m.mislabeled_removed + m.mislabeled_kept == m.mislabeled_total
        assert m.correct_removed + m.mislabeled_removed == m.removed
        assert m.correct_total + m.mislabeled_total == len(flips)
        for value in (m.er1, m.er2, m.nep):
            if value is not None:
                assert 0.0 <= value <= 1.0
        if m.removed == m.mislabeled_total and m.er2 is not None and m.nep is not None:
            assert m.er2 * m.mislabeled_total == pytest.approx(m.mislabeled_kept)
            assert m.nep * m.removed == pytest.approx(m.mislabeled_removed)


class TestAccuracy:
    def test_constant_predictor_on_balanced_set(self):
        model = MlrModel(np.zeros((4, 2)), np.array([5.0, 0.0, 0.0, 0.0]), MlrConfig(n_classes=4))
        X = np.random.default_rng(0).normal(size=(40, 2))
        assert accuracy(model, X, np.tile(np.arange(4), 10)) == 0.25

    def test_perfect_memorizer(self):
        X = np.eye(3)
        model = MlrModel(np.eye(3) * 10, np.zeros(3), MlrConfig(n_classes=3))
        assert accuracy(model, X, [0, 1, 2]) == 1.0

    def test_uniform_predictor_near_chance(self):
        rng = np.random.default_rng(1)
        # zero weights -> uniform probabilities -> argmax always class 0
        model = MlrModel(rng.normal(size=(4, 6)), rng.normal(size=4), MlrConfig(n_classes=4))
        X, y = rng.normal(size=(10_000, 6)), rng.integers(0, 4, size=10_000)
        # random labels, unrelated features: accuracy is binomial around 0.25
        assert abs(accuracy(model, X, y) - 0.25) < 0.02

    def test_empty_test_set_rejected(self):
        model = MlrModel(np.zeros((2, 2)), np.zeros(2), MlrConfig(n_classes=2))
        with pytest.raises(ValueError):
            accuracy(model, np.empty((0, 2)), [])

    def test_misaligned_labels_rejected(self):
        model = MlrModel(np.zeros((2, 2)), np.zeros(2), MlrConfig(n_classes=2))
        with pytest.raises(ValueError, match="align"):
            accuracy(model, np.zeros((3, 2)), [0, 1])


class TestRankingAuc:
    def test_perfect_ranking(self):
        assert ranking_auc([0.9, 0.8, 0.2, 0.1], [True, True, False, False]) == 1.0

    def test_inverted_ranking(self):
        assert ranking_auc([0.1, 0.2, 0.8], [True, False, False]) == 0.0

    def test_ties_count_half(self):
        assert ranking_auc([0.5, 0.5], [True, False]) == 0.5

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(size=5000)
        positive = rng.uniform(size=5000) < 0.3
        assert abs(ranking_auc(scores, positive) - 0.5) < 0.03

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            ranking_auc([0.1, 0.2], [True, True])

    @pytest.mark.parametrize("flags, dtype", [([0.5, 0.0], "float64"), ([1, 0], "int64")])
    def test_flags_that_are_not_bool_rejected(self, flags, dtype):
        # a flag of 0.5 used to be read as a positive, giving 0.0 here
        with pytest.raises(ValueError, match=rf"^positive flags must be bool, got dtype {dtype}$"):
            ranking_auc([0.1, 0.9], flags)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_scores_rejected(self, bad):
        # NaN scores used to give 0.5 here without a word
        with pytest.raises(ValueError, match="finite"):
            ranking_auc([bad, 0.1, bad, 0.3], [True, False, False, True])
