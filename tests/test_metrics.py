import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxnoise import MlrConfig, MlrModel, accuracy, detection_metrics, ranking_auc


class TestDetectionMetrics:
    def test_worked_example(self):
        # 10 instances, 4 mislabeled; remove 4 of which 3 are mislabeled
        mask = {i: i < 4 for i in range(10)}
        removed = {0, 1, 2, 5}
        m = detection_metrics(removed, mask)
        assert m.er1 == pytest.approx(1 / 6)
        assert m.er2 == pytest.approx(1 / 4)
        assert m.nep == pytest.approx(3 / 4)

    def test_perfect_detector(self):
        mask = {i: i < 4 for i in range(10)}
        m = detection_metrics({0, 1, 2, 3}, mask)
        assert m.er1 == 0.0
        assert m.er2 == 0.0
        assert m.nep == 1.0

    def test_remove_nothing(self):
        mask = {i: i < 4 for i in range(10)}
        m = detection_metrics(set(), mask)
        assert m.er1 == 0.0
        assert m.er2 == 1.0
        assert m.nep is None

    def test_degenerate_denominators_reported_absent(self):
        all_clean = {i: False for i in range(5)}
        m = detection_metrics({0}, all_clean)
        assert m.er2 is None
        all_noisy = {i: True for i in range(5)}
        m = detection_metrics(set(), all_noisy)
        assert m.er1 is None
        assert m.nep is None

    def test_unknown_removed_id_rejected(self):
        with pytest.raises(ValueError):
            detection_metrics({99}, {0: True})

    @given(
        st.lists(st.booleans(), min_size=1, max_size=40),
        st.sets(st.integers(0, 39)),
    )
    @settings(max_examples=200, deadline=None)
    def test_integer_identities(self, flips, removed_raw):
        mask = {i: f for i, f in enumerate(flips)}
        removed = {i for i in removed_raw if i in mask}
        m = detection_metrics(removed, mask)
        assert m.mislabeled_removed + m.mislabeled_kept == m.mislabeled_total
        assert m.correct_removed + m.mislabeled_removed == m.removed
        assert m.correct_total + m.mislabeled_total == len(mask)
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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_scores_rejected(self, bad):
        # NaN scores used to give 0.5 here without a word
        with pytest.raises(ValueError, match="finite"):
            ranking_auc([bad, 0.1, bad, 0.3], [True, False, False, True])
