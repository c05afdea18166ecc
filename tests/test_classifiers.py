import math
from unittest import mock

import numpy as np
import pytest

from ctxnoise import (
    AuxConfig,
    MlrConfig,
    MlrModel,
    SyntheticConfig,
    aux_predictions,
    generate_synthetic,
    load_mlr,
    predict_proba,
    save_mlr,
    train_aux,
    train_mlr,
)
from ctxnoise import classifiers
from ctxnoise.classifiers import mlr_gradient, mlr_loss


def separable_1d():
    # class 0 strictly below -1, class 1 strictly above +1: a threshold at 0
    # separates them, so a linear model can reach training accuracy 1.
    x0 = np.linspace(-3.0, -1.0, 10)
    x1 = np.linspace(1.0, 3.0, 10)
    X = np.concatenate([x0, x1])[:, None]
    y = np.array([0] * 10 + [1] * 10)
    return X, y


class TestTrainMlr:
    def test_separable_reaches_full_training_accuracy(self):
        X, y = separable_1d()
        model = train_mlr(None, X, y, MlrConfig(n_classes=2, seed=0))
        assert (predict_proba(model, X).argmax(axis=1) == y).all()

    def test_zero_epochs_is_identity(self):
        X, y = separable_1d()
        base = train_mlr(None, X, y, MlrConfig(n_classes=2, epochs=5, seed=0))
        again = train_mlr(base, X, y, MlrConfig(n_classes=2, epochs=0, seed=1))
        assert np.array_equal(base.weights, again.weights)
        assert np.array_equal(base.bias, again.bias)

    def test_determinism(self):
        X, y = separable_1d()
        a = train_mlr(None, X, y, MlrConfig(n_classes=2, seed=3))
        b = train_mlr(None, X, y, MlrConfig(n_classes=2, seed=3))
        assert np.array_equal(a.weights, b.weights)

    def test_input_validation(self):
        X, y = separable_1d()
        with pytest.raises(ValueError):
            train_mlr(None, X[:0], y[:0], MlrConfig(n_classes=2))
        with pytest.raises(ValueError):
            train_mlr(None, X * np.nan, y, MlrConfig(n_classes=2))
        with pytest.raises(ValueError):
            train_mlr(None, X, y + 5, MlrConfig(n_classes=2))

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, size=8)
        W = rng.normal(size=(3, 4)) * 0.5
        b = rng.normal(size=3) * 0.5
        l2 = 1e-3
        dW, db = mlr_gradient(W, b, X, y, l2)

        h = 1e-5
        num_W = np.zeros_like(W)
        for i in range(W.shape[0]):
            for j in range(W.shape[1]):
                up, down = W.copy(), W.copy()
                up[i, j] += h
                down[i, j] -= h
                num_W[i, j] = (mlr_loss(up, b, X, y, l2) - mlr_loss(down, b, X, y, l2)) / (2 * h)
        num_b = np.zeros_like(b)
        for i in range(b.shape[0]):
            up, down = b.copy(), b.copy()
            up[i] += h
            down[i] -= h
            num_b[i] = (mlr_loss(W, up, X, y, l2) - mlr_loss(W, down, X, y, l2)) / (2 * h)

        assert np.abs(dW - num_W).max() < 1e-6
        assert np.abs(db - num_b).max() < 1e-6

    def test_full_batch_loss_nonincreasing_at_small_lr(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 5)) + rng.integers(0, 3, size=(60, 1))
        y = rng.integers(0, 3, size=60)
        cfg = MlrConfig(n_classes=3, learning_rate=1e-3, epochs=1, batch_size=None, seed=0)
        model = train_mlr(None, X, y, cfg)
        losses = [mlr_loss(model.weights, model.bias, X, y, cfg.l2)]
        for _ in range(30):
            model = train_mlr(model, X, y, cfg)
            losses.append(mlr_loss(model.weights, model.bias, X, y, cfg.l2))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_warm_start_on_union_not_worse_than_cold_on_new(self):
        worse = 0
        for seed in range(5):
            config = SyntheticConfig(
                n_classes=3, n_features=6, instances_per_class=150, separation=2.5, seed=seed
            )
            dataset, _ = generate_synthetic(config)
            rng = np.random.default_rng(seed)
            perm = rng.permutation(dataset.ids())
            old, new, test = perm[:100], perm[100:200], perm[200:]
            cfg = MlrConfig(n_classes=3, seed=seed)
            warm = train_mlr(None, dataset.feature_matrix(old), dataset.true_labels(old), cfg)
            warm = train_mlr(
                warm,
                dataset.feature_matrix(np.concatenate([old, new])),
                dataset.true_labels(np.concatenate([old, new])),
                cfg,
            )
            cold = train_mlr(None, dataset.feature_matrix(new), dataset.true_labels(new), cfg)
            Xt, yt = dataset.feature_matrix(test), dataset.true_labels(test)
            acc_warm = (predict_proba(warm, Xt).argmax(axis=1) == yt).mean()
            acc_cold = (predict_proba(cold, Xt).argmax(axis=1) == yt).mean()
            if acc_warm < acc_cold - 0.02:
                worse += 1
        assert worse == 0


class TestPredictProba:
    def test_zero_model_is_uniform(self):
        model = MlrModel(np.zeros((4, 3)), np.zeros(4), MlrConfig(n_classes=4))
        p = predict_proba(model, np.ones(3))
        assert np.allclose(p, 0.25)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        model = MlrModel(rng.normal(size=(3, 5)), rng.normal(size=3), MlrConfig(n_classes=3))
        shifted = MlrModel(model.weights.copy(), model.bias + 11.5, model.config)
        X = rng.normal(size=(10, 5))
        assert np.allclose(predict_proba(model, X), predict_proba(shifted, X), atol=1e-12)

    def test_two_class_logit_gap(self):
        # logit gap of 2 gives sigmoid(2) on the favoured class
        model = MlrModel(np.zeros((2, 1)), np.array([2.0, 0.0]), MlrConfig(n_classes=2))
        p = predict_proba(model, np.zeros(1))
        sigma = 1.0 / (1.0 + math.exp(-2.0))
        assert abs(p[0] - sigma) < 1e-9
        assert abs(p[0] - 0.8808) < 1e-4
        assert abs(p[1] - 0.1192) < 1e-4

    def test_sums_to_one_and_positive(self):
        rng = np.random.default_rng(5)
        model = MlrModel(rng.normal(size=(6, 4)) * 10, rng.normal(size=6), MlrConfig(n_classes=6))
        P = predict_proba(model, rng.normal(size=(30, 4)) * 5)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-9)
        assert (P > 0).all()

    def test_length_mismatch(self):
        model = MlrModel(np.zeros((2, 3)), np.zeros(2), MlrConfig(n_classes=2))
        with pytest.raises(ValueError):
            predict_proba(model, np.zeros(4))


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        X, y = separable_1d()
        model = train_mlr(None, X, y, MlrConfig(n_classes=2, seed=9, batch_size=None))
        path = tmp_path / "model.txt"
        save_mlr(model, path)
        loaded = load_mlr(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.bias, model.bias)
        assert loaded.config == model.config


class TestAuxEnsemble:
    def make_blobs(self, seed=0):
        rng = np.random.default_rng(seed)
        centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
        X = np.concatenate([c + 0.3 * rng.normal(size=(20, 2)) for c in centers])
        y = np.repeat(np.arange(3), 20)
        return X, y

    def test_members_agree_on_separable_training_data(self):
        X, y = self.make_blobs()
        ensemble = train_aux(X, y, AuxConfig(n_classes=3, seed=0))
        preds = aux_predictions(ensemble, X)
        assert (preds == y[:, None]).all()

    def test_knn_k1_returns_stored_label(self):
        X, y = self.make_blobs()
        ensemble = train_aux(X, y, AuxConfig(n_classes=3, knn_k=1, seed=0))
        preds = aux_predictions(ensemble, X[7])
        assert preds[2] == y[7]

    def test_knn_tie_breaks_to_smaller_class(self):
        # query equidistant from one class-2 point and one class-1 point
        X = np.array([[-1.0], [1.0], [5.0]])
        y = np.array([2, 1, 0])
        ensemble = train_aux(X, y, AuxConfig(n_classes=3, knn_k=3, seed=0))
        # votes: one each for classes 0, 1, 2 -> smallest class index wins
        assert aux_predictions(ensemble, np.array([0.0]))[2] == 0

    def test_k_larger_than_store_rejected(self):
        X, y = self.make_blobs()
        with pytest.raises(ValueError):
            train_aux(X[:3], y[:3], AuxConfig(n_classes=3, knn_k=5))

    def test_even_k_rejected(self):
        X, y = self.make_blobs()
        with pytest.raises(ValueError):
            train_aux(X, y, AuxConfig(n_classes=3, knn_k=4))

    def test_normalization_flag(self):
        X, y = self.make_blobs()
        scaled = X.copy()
        scaled[:, 1] *= 100.0
        ensemble = train_aux(scaled, y, AuxConfig(n_classes=3, normalize=True, seed=0))
        assert ensemble.feature_mean is not None
        preds = aux_predictions(ensemble, scaled)
        assert (preds[:, 2] == y).all()


def knn_reference(store, labels, k, n_classes, queries):
    """Per-query stable argsort: the k nearest, ties by lower store index."""
    out = []
    for q in queries:
        dists = ((store - q) ** 2).sum(axis=1)
        nearest = np.argsort(dists, kind="stable")[:k]
        out.append(int(np.bincount(labels[nearest], minlength=n_classes).argmax()))
    return np.array(out)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [1, 3, 5, 9])
@pytest.mark.parametrize("block_bytes", [1, classifiers.BLOCK_BYTES])
def test_knn_matches_stable_sort_under_distance_ties(seed, k, block_bytes):
    # integer grid points repeat, so many stored points tie at the k-th distance
    rng = np.random.default_rng(seed)
    store = rng.integers(0, 3, size=(40, 2)).astype(float)
    labels = rng.integers(0, 4, size=40)
    labels[:4] = np.arange(4)
    queries = np.array([[x, y] for x in np.arange(-1.0, 3.5, 0.5) for y in np.arange(-1.0, 3.5, 0.5)])
    ensemble = train_aux(store, labels, AuxConfig(n_classes=4, knn_k=k, seed=0, svm_epochs=1))
    with mock.patch.object(classifiers, "BLOCK_BYTES", block_bytes):
        got = aux_predictions(ensemble, queries)[:, 2]
    assert np.array_equal(got, knn_reference(store, labels, k, 4, queries))
    # the ties really straddle the k-th place for some queries
    dists = ((store[None] - queries[:, None]) ** 2).sum(axis=2)
    kth = np.sort(dists, axis=1)[:, k - 1 : k]
    assert ((dists < kth).sum(axis=1) + (dists == kth).sum(axis=1) > k).any()


def test_knn_rejects_non_finite_queries():
    X = np.array([[0.0], [1.0], [2.0]])
    ensemble = train_aux(X, np.array([0, 1, 1]), AuxConfig(n_classes=2, knn_k=1, seed=0))
    with pytest.raises(ValueError, match="non-finite"):
        aux_predictions(ensemble, np.array([[np.nan]]))
