import dataclasses

import numpy as np
import pytest

from ctxnoise import (
    TransitionMatrix,
    estimate_transition,
    inject_nar,
    inject_ncar,
)


class TestInjectNcar:
    def test_zero_rate_changes_nothing(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        plan = inject_ncar(y, 3, 0.0, seed=0)
        assert np.array_equal(plan.assigned, y)
        assert not plan.flipped.any()

    def test_exact_per_class_counts_and_no_identity_flips(self):
        y = np.repeat(np.arange(4), 10)
        plan = inject_ncar(y, 4, 0.5, seed=3)
        for c in range(4):
            members = y == c
            assert plan.flipped[members].sum() == 5
        assert (plan.assigned[plan.flipped] != y[plan.flipped]).all()

    def test_rounding_of_fractional_counts(self):
        y = np.repeat(np.arange(2), 7)  # 0.3 * 7 = 2.1 -> 2 flips per class
        plan = inject_ncar(y, 2, 0.3, seed=0)
        assert plan.flipped[y == 0].sum() == 2
        assert plan.flipped[y == 1].sum() == 2

    def test_wrong_classes_drawn_uniformly(self):
        # all labels flipped; each source class spreads over the other two
        y = np.repeat(np.arange(3), 3000)
        plan = inject_ncar(y, 3, 1.0, seed=7)
        for c in range(3):
            targets = plan.assigned[y == c]
            others = [z for z in range(3) if z != c]
            counts = np.array([(targets == z).sum() for z in others])
            expected = len(targets) / 2.0
            chi2 = float(((counts - expected) ** 2 / expected).sum())
            assert chi2 < 6.635  # df=1 critical value at alpha=0.01

    def test_deterministic_per_seed(self):
        y = np.repeat(np.arange(3), 20)
        a = inject_ncar(y, 3, 0.4, seed=5)
        b = inject_ncar(y, 3, 0.4, seed=5)
        c = inject_ncar(y, 3, 0.4, seed=6)
        assert np.array_equal(a.assigned, b.assigned)
        assert not np.array_equal(a.assigned, c.assigned)

    def test_rate_out_of_range(self):
        with pytest.raises(ValueError):
            inject_ncar(np.array([0, 1]), 2, 1.5, seed=0)

    @pytest.mark.parametrize("n_classes", [1, 0])
    def test_fewer_than_two_classes_named(self, n_classes):
        # one class has no other to flip to; it used to fail inside numpy
        with pytest.raises(ValueError, match=rf"^n_classes must be >= 2, got {n_classes}$"):
            inject_ncar(np.zeros(4, dtype=int), n_classes, 0.5, 0)

    def test_labels_out_of_range_rejected(self):
        # at omega = 1 every label would flip; one outside [0, n) used to be
        # left as it was and reported clean
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            inject_ncar(np.array([0, 0, 1, 1, 5, -1]), 3, 1.0, 0)
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            inject_ncar(np.array([3]), 3, 0.0, 0)
        assert inject_ncar(np.array([], dtype=int), 3, 1.0, 0).assigned.size == 0


class TestInjectNar:
    def test_identity_matrix_flips_nothing(self):
        y = np.repeat(np.arange(3), 50)
        plan = inject_nar(y, np.eye(3), seed=0)
        assert not plan.flipped.any()

    def test_one_hot_row_flips_whole_class(self):
        probs = np.array([[0.0, 1.0], [0.0, 1.0]])
        y = np.array([0, 0, 0, 1, 1])
        plan = inject_nar(y, probs, seed=0)
        assert (plan.assigned == 1).all()
        assert np.array_equal(plan.flipped, y == 0)

    def test_flip_rates_converge(self):
        probs = np.array([[0.7, 0.3], [0.2, 0.8]])
        y = np.repeat(np.arange(2), 10_000)
        plan = inject_nar(y, probs, seed=11)
        rate0 = plan.flipped[y == 0].mean()
        rate1 = plan.flipped[y == 1].mean()
        assert abs(rate0 - 0.3) < 0.02
        assert abs(rate1 - 0.2) < 0.02

    def test_empirical_transition_matrix_converges(self):
        probs = np.array([[0.6, 0.3, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]])
        y = np.repeat(np.arange(3), 10_000)
        plan = inject_nar(y, probs, seed=2)
        emp = np.zeros((3, 3))
        for c in range(3):
            emp[c] = np.bincount(plan.assigned[y == c], minlength=3) / 10_000
        assert np.abs(emp - probs).max() < 0.02

    def test_non_stochastic_matrix_rejected(self):
        with pytest.raises(ValueError):
            inject_nar(np.array([0]), np.array([[0.5, 0.2], [0.1, 0.9]]), seed=0)
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[1.2, -0.2], [0.0, 1.0]]))

    def test_transition_matrix_is_read_only(self):
        # its rows used to be checked at construction only, then stay
        # writable, though one matrix serves every NAR run of a start
        given = np.array([[0.75, 0.25], [0.25, 0.75]])
        t = TransitionMatrix(given)
        given[0, 0] = 5.0
        assert t.probs[0, 0] == 0.75
        with pytest.raises(ValueError, match="read-only"):
            t.probs[0, 0] = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.probs = np.eye(2)
        assert np.array_equal(t.probs, [[0.75, 0.25], [0.25, 0.75]])


class TestEstimateTransition:
    def test_separated_classes_give_identity(self):
        rng = np.random.default_rng(0)
        X = np.concatenate([rng.normal(0, 0.1, size=(50, 2)), rng.normal(10, 0.1, size=(50, 2))])
        y = np.repeat(np.arange(2), 50)
        trans = estimate_transition(X, y, 2)
        assert np.allclose(trans.probs, np.eye(2))

    def test_hand_run_lloyd_example(self):
        X = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0], [1.0], [0.0]])
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        trans = estimate_transition(X, y, 2)
        assert np.array_equal(trans.probs, np.array([[0.75, 0.25], [0.25, 0.75]]))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(90, 3))
        y = rng.integers(0, 3, size=90)
        for c in range(3):
            y[c] = c  # guarantee every class is populated
        trans = estimate_transition(X, y, 3)
        assert np.allclose(trans.probs.sum(axis=1), 1.0, atol=1e-9)

    def test_collision_resolved_by_cluster_size(self):
        # both clusters are majority class 0; the larger one claims it and the
        # smaller takes its next-most-frequent unclaimed class (1)
        X = np.array([[0.0], [0.0], [0.01], [0.02], [10.0], [10.0], [10.01]])
        y = np.array([0, 0, 0, 1, 0, 0, 1])
        trans = estimate_transition(X, y, 2)
        assert np.allclose(trans.probs[0], [3 / 4, 1 / 4])
        assert np.allclose(trans.probs[1], [2 / 3, 1 / 3])

    def test_empty_cluster_reseeded_at_the_farthest_point(self):
        # both classes have mean 1, so every point ties to center 0 and
        # cluster 1 is reseeded at the first farthest point, x = 0; then
        # cluster 0 = {2, 1, 1} (classes 0, 1, 1) and cluster 1 = {0}
        # (class 0).  Without the reseed both rows would be uniform.
        X = np.array([[0.0], [2.0], [1.0], [1.0]])
        trans = estimate_transition(X, np.array([0, 0, 1, 1]), 2)
        assert np.array_equal(trans.probs, [[1.0, 0.0], [1 / 3, 2 / 3]])

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError):
            estimate_transition(np.zeros((4, 1)), np.zeros(4, dtype=int), 2)

