import math
import re
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxnoise import (
    AuxEnsemble,
    MlrConfig,
    MlrModel,
    SyntheticConfig,
    aux_predictions,
    generate_synthetic,
    predict_proba,
    train_aux,
    train_mlr,
    train_mlr_lockstep,
)
from ctxnoise import classifiers, harness, run_detection_suite

from oracles import (
    mlr_gradient, mlr_loss, reference_knn_predict, reference_train_mlr, reference_train_svm, trained_aux
)
from test_harness import small_config


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
            perm = rng.permutation(dataset.ids.tolist())
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


@given(
    N=st.integers(1, 100),
    d=st.integers(1, 20),
    # from 8 classes on, the kernel's class-major row sum takes numpy's
    # pairwise order in place of a plain outer-axis reduce
    n=st.one_of(st.integers(2, 5), st.sampled_from([8, 9, 16])),
    batch_size=st.sampled_from([None, 1, 7, 32]),
    warm=st.booleans(),
    l2=st.sampled_from([0.0, 1e-4]),
    fortran=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_train_mlr_is_bit_identical_to_the_plain_loop(N, d, n, batch_size, warm, l2, fortran, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, d)) * rng.choice([0.1, 1.0, 10.0])
    if fortran:  # a column-major input, as a transposed feature store would be
        X = np.asfortranarray(X)
    y = rng.integers(0, n, N)
    config = MlrConfig(n_classes=n, learning_rate=0.5, l2=l2, epochs=3, batch_size=batch_size, seed=seed)
    W0 = rng.standard_normal((n, d)) if warm else np.zeros((n, d))
    b0 = rng.standard_normal(n) if warm else np.zeros(n)
    model = train_mlr(MlrModel(W0.copy(), b0.copy(), config) if warm else None, X, y, config)
    W, b = reference_train_mlr(W0, b0, X, y, config)
    assert np.array_equal(model.weights, W)
    assert np.array_equal(model.bias, b)


@given(
    R=st.integers(1, 6),
    N=st.integers(1, 60),
    d=st.integers(1, 12),
    n=st.one_of(st.integers(2, 5), st.sampled_from([8, 9, 16])),
    batch_size=st.sampled_from([None, 1, 7, 32]),
    epochs=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_lockstep_members_are_bit_identical_to_the_plain_loop(R, N, d, n, batch_size, epochs, seed):
    # each member has its own data, seed, rates and start point; only the
    # step shape is shared
    rng = np.random.default_rng(seed)
    members, starts = [], []
    for _ in range(R):
        X = rng.standard_normal((N, d)) * rng.choice([0.1, 1.0, 10.0])
        y = rng.integers(0, n, N)
        config = MlrConfig(
            n_classes=n,
            learning_rate=float(rng.choice([0.05, 0.1, 0.5])),
            l2=float(rng.choice([0.0, 1e-4, 1e-2])),
            epochs=epochs,
            batch_size=batch_size,
            seed=int(rng.integers(0, 2**32)),
        )
        warm = rng.random() < 0.5
        W0 = rng.standard_normal((n, d)) if warm else np.zeros((n, d))
        b0 = rng.standard_normal(n) if warm else np.zeros(n)
        members.append((MlrModel(W0.copy(), b0.copy(), config) if warm else None, X, y, config))
        starts.append((W0, b0))
    models = train_mlr_lockstep(members)
    assert len(models) == R
    for model, (_, X, y, config), (W0, b0) in zip(models, members, starts):
        W, b = reference_train_mlr(W0, b0, X, y, config)
        assert np.array_equal(model.weights, W)
        assert np.array_equal(model.bias, b)
        assert model.config is config


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("N, batch_size", [(33, 32), (8, 7), (22, 7), (1, 7)])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("R", [2, 5])
def test_lockstep_one_row_tail_steps_and_two_classes(R, n, N, batch_size, seed):
    # the last step of each epoch holds one row (33 = 32 + 1, 8 = 7 + 1,
    # 22 = 3 * 7 + 1, and a one-row pool), so the class-major row max
    # reduces a strided (R, n, 1) slice of its buffer, here also at n = 2
    test_lockstep_members_are_bit_identical_to_the_plain_loop.hypothesis.inner_test(
        R=R, N=N, d=3, n=n, batch_size=batch_size, epochs=3, seed=seed
    )


@pytest.mark.parametrize("N, n, batch_size", [(2, 4, 7), (33, 3, 32), (20, 9, None)])
def test_one_feature_members_train_one_per_stacked_loop(N, n, batch_size):
    # at d = 1, G^T X_b is a matrix-vector product, which rounds otherwise
    # on interleaved slices (found at R = 2, N = 2, n = 4, batch 7), so each
    # one-feature member trains in its own loop, with the plain loop's bits
    rng = np.random.default_rng(N)
    members = [
        (None, rng.standard_normal((N, 1)), rng.integers(0, n, N), MlrConfig(n, epochs=3, batch_size=batch_size, seed=r))
        for r in range(3)
    ]
    with mock.patch.object(classifiers, "_train_stacked", wraps=classifiers._train_stacked) as spy:
        models = train_mlr_lockstep(members)
    assert [len(call.args[0]) for call in spy.call_args_list] == [1, 1, 1]
    for model, (_, X, y, config) in zip(models, members):
        W, b = reference_train_mlr(np.zeros((n, 1)), np.zeros(n), X, y, config)
        assert np.array_equal(model.weights, W)
        assert np.array_equal(model.bias, b)


@pytest.mark.parametrize("epochs, seed", [(2, 0), (3, 1)])
def test_lockstep_is_bit_identical_at_the_detect_shape(epochs, seed):
    # the detection suite's lock-step call on the synthetic detect configs:
    # every seed's main model and aux logistic member, 10 members of 441
    # rows, d = 16, n = 7, steps of 32 rows and a 25-row tail
    test_lockstep_members_are_bit_identical_to_the_plain_loop.hypothesis.inner_test(
        R=10, N=441, d=16, n=7, batch_size=32, epochs=epochs, seed=seed
    )


@pytest.mark.parametrize("block_bytes", [1, classifiers.BLOCK_BYTES, 1 << 30], ids=["1B", "default", "1GiB"])
def test_lockstep_is_bit_identical_at_any_epoch_block(block_bytes):
    # one epoch per block, as many as the default budget holds, and every
    # epoch in one block
    with mock.patch.object(classifiers, "BLOCK_BYTES", block_bytes):
        test_lockstep_members_are_bit_identical_to_the_plain_loop()


@pytest.mark.parametrize("epochs_per_block", [1, 2, 3, 7, 8])
@pytest.mark.parametrize("R", [1, 3])
def test_last_epoch_block_may_be_short(epochs_per_block, R):
    # 7 epochs in blocks of 2 or 3 leave a short last block
    N, d, n, epochs = 23, 4, 3, 7
    rng = np.random.default_rng(epochs_per_block)
    members = [
        (None, rng.standard_normal((N, d)), rng.integers(0, n, N), MlrConfig(n, epochs=epochs, batch_size=5, seed=r))
        for r in range(R)
    ]
    with mock.patch.object(classifiers, "BLOCK_BYTES", epochs_per_block * 8 * R * N * (d + n)):
        models = train_mlr_lockstep(members)
    for model, (_, X, y, config) in zip(models, members):
        W, b = reference_train_mlr(np.zeros((n, d)), np.zeros(n), X, y, config)
        assert np.array_equal(model.weights, W)
        assert np.array_equal(model.bias, b)


def test_permuted_block_draws_the_sequential_permutations():
    # train_mlr_lockstep draws a block of epochs' orders with one permuted
    # call over broadcast ranks; that these are the orders, and the final
    # generator state, of one permutation call per epoch is how numpy
    # behaves, not a promise it makes, so it is pinned here
    for seed in range(3):
        for N in (*range(1, 70), 127, 128, 441, 487):
            for E in (1, 2, 5):
                sequential, blocked = np.random.default_rng(seed), np.random.default_rng(seed)
                expected = np.stack([sequential.permutation(N) for _ in range(E)])
                out = np.empty((E, N), dtype=np.intp)
                got = blocked.permuted(np.broadcast_to(np.arange(N), (E, N)), axis=1, out=out)
                assert got is out
                assert np.array_equal(got, expected)
                assert blocked.bit_generator.state == sequential.bit_generator.state


def test_stacked_numpy_calls_match_their_2d_slices():
    # The lock-step kernel holds its members interleaved: rows as
    # (k, R, d) and (k, R, n), class-major scores as (n, R, k).  It relies
    # on numpy doing per member slice of these buffers what it does for the
    # plain loop's contiguous 2-D arrays: the stacked products W X^T (into
    # the class-major buffer, which must also give the bits of the plain
    # (X W^T)^T) and G^T X, whose per-member slices have leading dimensions
    # R n, R d and R k; the class max and sum over the outer axis of the
    # (n, R k) view, or from 8 classes on the sum over the rows of a
    # contiguous transposed copy; and the bias gradient's reduce over rows.
    # This is how numpy and its BLAS behave, not a promise they make, so it
    # is pinned here, also at CORA's d = 1433 and for one-row steps.  At
    # d = 1, G^T X is a matrix-vector product that rounds otherwise on the
    # strided slices, so there the kernel trains one member at a time.
    rng = np.random.default_rng(7)
    for trial in range(240):
        R, k, d, n, extra = (int(v) for v in rng.integers([2, 1, 2, 2, 0], [8, 40, 40, 10, 3]))
        if trial % 20 == 0:
            d = 1433
        if trial % 10 == 3:
            k = 1
        # like the kernel's step views: the leading rows of taller buffers
        X = rng.standard_normal((k + extra, R, d))[:k]
        P = (rng.standard_normal((k + extra, R, n)) * 10.0 ** rng.integers(-3, 4, (k + extra, R, n)))[:k]
        W = rng.standard_normal((R, n, d))
        X_m, G_m = X.swapaxes(0, 1), P.swapaxes(0, 1)  # member-major views
        Pc = np.empty((n, R, k))
        np.matmul(W, X_m.swapaxes(-1, -2), Pc.swapaxes(0, 1))
        grad_W = np.empty((R, n, d))
        np.matmul(G_m.swapaxes(-1, -2), X_m, grad_W)
        scores = Pc.reshape(n, R * k)
        row_max, row_sum = np.empty((1, R * k)), np.empty((1, R * k))
        np.maximum.reduce(scores, -2, None, row_max, True)
        if n < 8:
            np.add.reduce(scores, -2, None, row_sum, True)
        else:
            np.add.reduce(np.ascontiguousarray(scores.T), -1, None, row_sum.T, True)
        grad_b = np.empty((1, R, n))
        np.add.reduce(P, 0, None, grad_b, True)
        for r in range(R):
            Xr, Gr = np.ascontiguousarray(X[:, r]), np.ascontiguousarray(P[:, r])  # as X[idx] and G are
            plain_scores = Xr @ W[r].T
            assert np.array_equal(Pc[:, r], plain_scores.T)
            assert np.array_equal(grad_W[r], Gr.T @ Xr)
            assert np.array_equal(row_max.reshape(R, k)[r], plain_scores.max(axis=1))
            assert np.array_equal(row_sum.reshape(R, k)[r], plain_scores.sum(axis=1))
            assert np.array_equal(grad_b[0, r], Gr.sum(axis=0))


def test_permuted_draws_into_an_interleaved_index_column():
    # each lock-step member draws its block of orders, offset by its rows'
    # place in the stacked matrix, into its column of one (E, N, R) index;
    # that a strided out gets the orders and the generator state of one
    # permutation call per epoch is pinned here, as for a contiguous out
    for seed in range(3):
        for N in (1, 2, 7, 33, 441):
            for E, R in ((1, 2), (3, 10), (7, 3)):
                sequential = [np.random.default_rng([seed, r]) for r in range(R)]
                blocked = [np.random.default_rng([seed, r]) for r in range(R)]
                index = np.empty((E, N, R), dtype=np.intp)
                for r, rng in enumerate(blocked):
                    ranks = np.broadcast_to(np.arange(r * N, (r + 1) * N), (E, N))
                    rng.permuted(ranks, axis=1, out=index[..., r])
                for r in range(R):
                    expected = np.stack([sequential[r].permutation(N) for _ in range(E)])
                    assert np.array_equal(index[..., r] - r * N, expected)
                    assert blocked[r].bit_generator.state == sequential[r].bit_generator.state


@pytest.mark.parametrize("d", [2, 6, 12, 16])
def test_predict_proba_rows_do_not_depend_on_their_call(d):
    # star_divergences predicts each distinct neighbour once, with other
    # neighbours, where the per-occurrence route predicted every leaf with
    # the leaves of its star block.  The two agree bit for bit because a row
    # of predict_proba does not depend on the rows that share its call, in
    # calls of two rows or more at the synthetic configs' feature counts.
    # This is how numpy's matmul and its BLAS behave, not a promise they
    # make: a one-row call goes through gemv, which rounds otherwise (so the
    # table never makes one where the batch has more neighbours), and at
    # CORA's d = 1433 some rows differ in the last bit with their call.
    rng = np.random.default_rng(d)
    X = rng.standard_normal((300, d)) * rng.choice([0.1, 1.0, 10.0], (300, 1))
    model = MlrModel(rng.standard_normal((7, d)), rng.standard_normal(7), MlrConfig(n_classes=7))
    full = predict_proba(model, X)
    for _ in range(60):
        rows = rng.choice(300, size=int(rng.integers(2, 301)), replace=bool(rng.random() < 0.5))
        assert np.array_equal(predict_proba(model, X[rows]).view(np.int64), full[rows].view(np.int64))


@st.composite
def score_rows(draw):
    """A stack of score rows: plain, with tied maxima, with +0.0 and -0.0
    side by side (as the max or not), or of magnitude about 1e300."""
    kind = draw(st.sampled_from(["normal", "ties", "signed zeros", "huge"]))
    lead, rows, n = draw(st.sampled_from([(), (3,)])), draw(st.integers(1, 500)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = lead + (rows, n)
    if kind == "normal":
        return rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 50.0])
    if kind == "ties":
        return rng.integers(-2, 3, shape).astype(float)
    if kind == "signed zeros":
        return rng.choice([0.0, -0.0, -1.5, float(rng.choice([-0.5, 0.5]))], shape)
    return rng.uniform(-1.0, 1.0, shape) * 1e300


def plain_softmax(Z):
    e = np.exp(Z - Z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@given(score_rows())
@settings(max_examples=300, deadline=None)
def test_softmax_row_max_gives_the_plain_bits(scores):
    # _softmax takes its row max over a class-major copy; a max is exact in
    # any order, and a zero max of either sign leaves exp(s - max) unchanged
    assert np.array_equal(classifiers._softmax(scores).view(np.int64), plain_softmax(scores).view(np.int64))
    # predict_proba is that softmax of X W^T + b, for a model of 2 classes or more
    if scores.ndim == 2 and scores.shape[1] >= 2:
        X, n = scores, scores.shape[1]
        model = MlrModel(np.eye(n)[::-1], np.linspace(-1.0, 1.0, n), MlrConfig(n_classes=n))
        plain = plain_softmax(X @ model.weights.T + model.bias)
        assert np.array_equal(predict_proba(model, X).view(np.int64), plain.view(np.int64))


@pytest.mark.parametrize("mlr_epochs, members_per_call, calls", [(200, 3, [3, 1]), (80, 1, [1, 1, 1, 1])])
def test_lockstep_chunks_stay_under_lockstep_bytes(mlr_epochs, members_per_call, calls):
    # the detection suite trains every seed's main model and aux logistic
    # member in one call, in one step shape or, at mlr_epochs = 80, two;
    # past LOCKSTEP_BYTES of gathered rows a shape trains in chunks, and the
    # suite's rows are those of plain per-member training
    config = small_config(omegas=[0.2], seeds=[0, 1], mlr_epochs=mlr_epochs)
    # N x d floats of a pool: batch 0 of the 168 training ids; the
    # half-pool margin below absorbs how the batch size rounds
    pool_bytes = 8 * config.synthetic.n_features * round(168 / 5)
    with (
        mock.patch.object(classifiers, "LOCKSTEP_BYTES", members_per_call * pool_bytes + pool_bytes // 2),
        mock.patch.object(classifiers, "_train_stacked", wraps=classifiers._train_stacked) as spy,
    ):
        rows = run_detection_suite(config)
    assert [len(call.args[0]) for call in spy.call_args_list] == calls
    with mock.patch.object(harness, "train_mlr_lockstep", lambda members: [train_mlr(*m) for m in members]):
        assert run_detection_suite(config) == rows


class TestLockstepChecks:
    def members(self, R=2, **config):
        # two features, since one-feature members train one at a time
        X, y = separable_1d()
        X = np.hstack([X, -X])
        return [(None, X, y, MlrConfig(n_classes=2, seed=r, **config)) for r in range(R)]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epochs", -3),  # used to return a zero model
            ("learning_rate", math.nan),  # used to return NaN weights
            ("learning_rate", 0.0),
            ("learning_rate", math.inf),
            ("batch_size", 0),  # used to mean full batch
            ("l2", -1.0),  # used to train
            ("l2", math.nan),
        ],
    )
    def test_bad_config_rejected(self, field, value):
        # the trainers used to check each member's config; a bad config now
        # cannot be built, by hand or by replace, so none reaches them
        message = rf"^MlrConfig\.{field} .*, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            MlrConfig(n_classes=2, **{field: value})
        config = MlrConfig(n_classes=2)
        with pytest.raises(ValueError, match=message):
            replace(config, **{field: value})
        with pytest.raises(FrozenInstanceError):
            setattr(config, field, value)

    @pytest.mark.parametrize(
        "config, field, value",
        [
            (MlrConfig, "n_classes", 1),  # used to train a one-class model
            (MlrConfig, "n_classes", 0),
            (MlrConfig, "seed", -1),  # used to fail inside numpy, naming no field
        ],
    )
    def test_class_count_and_seed_checked_at_construction(self, config, field, value):
        message = rf"^{config.__name__}\.{field} must be >= [02], got {value}$"
        with pytest.raises(ValueError, match=message):
            config(**{"n_classes": 2, field: value})
        with pytest.raises(ValueError, match=message):
            replace(config(n_classes=2), **{field: value})

    @pytest.mark.parametrize(
        "labels, shown",
        [([0.7, 1.2], "0.7"), ([1.0, np.nan], "nan"), ([np.inf, 0.0], "inf"), (["0", "1"], "0")],
    )
    def test_labels_that_are_not_whole_numbers_rejected(self, labels, shown):
        # labels of 0.7 and 1.2 used to be truncated to 0 and 1 and trained on
        message = rf"^labels must be integer-valued, got {shown}$"
        X = np.ones((2, 2))
        with pytest.raises(ValueError, match=message):
            train_mlr(None, X, np.array(labels), MlrConfig(3))
        with pytest.raises(ValueError, match=message):
            train_mlr_lockstep([(None, X, np.array([0, 1]), MlrConfig(3)), (None, X, np.array(labels), MlrConfig(3))])
        with pytest.raises(ValueError, match=message):
            train_aux(X, np.array(labels), MlrModel(np.zeros((3, 2)), np.zeros(3), MlrConfig(3)), 1, False)

    def test_whole_float_and_bool_labels_train_as_integers(self):
        X, y = separable_1d()
        config = MlrConfig(n_classes=2, epochs=5, seed=1)
        plain = train_mlr(None, X, y, config)
        for labels in (y.astype(float), y.astype(bool), y.tolist()):
            model = train_mlr(None, X, labels, config)
            assert np.array_equal(model.weights, plain.weights) and np.array_equal(model.bias, plain.bias)
        aux = train_aux(X, y.astype(float), plain, 1, False)
        assert aux.knn_labels.dtype == int and np.array_equal(aux.knn_labels, y)

    def test_featureless_pool_trains_the_bias(self):
        # an N x 0 pool used to divide by zero when the lock-step chunks were sized
        X, y = np.zeros((4, 0)), np.array([0, 1, 1, 1])
        config = MlrConfig(n_classes=2, epochs=5, batch_size=3, seed=0)
        model = train_mlr(None, X, y, config)
        W, b = reference_train_mlr(np.zeros((2, 0)), np.zeros(2), X, y, config)
        assert model.weights.shape == W.shape == (2, 0)
        assert np.array_equal(model.bias, b)
        assert model.bias[1] > model.bias[0]

    def test_zero_epochs_and_full_batch_accepted(self):
        X, y = separable_1d()
        model = train_mlr(None, X, y, MlrConfig(n_classes=2, epochs=0, batch_size=None))
        assert not model.weights.any()

    @pytest.mark.parametrize(
        "field, damage",
        [
            ("N", lambda X, y, cfg: (X[:-1], y[:-1], cfg)),
            ("d", lambda X, y, cfg: (np.hstack([X, X]), y, cfg)),
            ("n_classes", lambda X, y, cfg: (X, y, MlrConfig(n_classes=3, seed=cfg.seed))),
            ("epochs", lambda X, y, cfg: (X, y, MlrConfig(n_classes=2, epochs=7, seed=cfg.seed))),
            ("batch_size", lambda X, y, cfg: (X, y, MlrConfig(n_classes=2, batch_size=None, seed=cfg.seed))),
        ],
    )
    def test_members_must_share_the_step_shape(self, field, damage):
        # a member whose step shape differs in one field is no longer
        # rejected: it leaves the stacked loop of the others for its own,
        # and every stacked loop holds members of one shape only
        members = self.members(R=3)
        model, X, y, cfg = members[2]
        members[2] = (model, *damage(X, y, cfg))
        with mock.patch.object(classifiers, "_train_stacked", wraps=classifiers._train_stacked) as spy:
            models = train_mlr_lockstep(members)
        assert sorted(len(call.args[0]) for call in spy.call_args_list) == [1, 2]
        for call in spy.call_args_list:
            shapes = {(X.shape, cfg.n_classes, cfg.epochs, cfg.batch_size) for _, X, _, cfg in call.args[0]}
            assert len(shapes) == 1
        for model, member in zip(models, members):
            alone = train_mlr(*member)
            assert np.array_equal(model.weights, alone.weights)
            assert np.array_equal(model.bias, alone.bias)

    def test_members_of_every_step_shape_train_in_one_call(self):
        # members that differ in N, d, n_classes, epochs or batch_size used
        # to be rejected; each now trains in the stacked loop of its own
        # shape, and the models come back in member order
        X1, y = separable_1d()
        X = np.hstack([X1, -X1])  # two features, so that members of one shape stack
        base = MlrConfig(n_classes=2, epochs=20, seed=0)
        members = [
            (None, X, y, base),
            (None, X[:-1], y[:-1], replace(base, seed=1)),  # N
            (None, X1, y, replace(base, seed=2)),  # d
            (None, X, y, replace(base, n_classes=3, seed=3)),  # n_classes
            (None, X, y, replace(base, epochs=7, seed=4)),  # epochs
            (None, X, y, replace(base, batch_size=None, seed=5)),  # batch_size
            (None, X, y, replace(base, learning_rate=0.3, seed=6)),  # the first member's shape
        ]
        with mock.patch.object(classifiers, "_train_stacked", wraps=classifiers._train_stacked) as spy:
            models = train_mlr_lockstep(members)
        assert sorted(len(call.args[0]) for call in spy.call_args_list) == [1, 1, 1, 1, 1, 2]
        assert all(model.config is cfg for model, (*_, cfg) in zip(models, members))
        for model, member in zip(models, members):
            alone = train_mlr(*member)
            assert np.array_equal(model.weights, alone.weights)
            assert np.array_equal(model.bias, alone.bias)

    def test_every_member_is_checked_before_any_trains(self):
        X, y = separable_1d()
        bad = np.hstack([X, X])
        bad[0, 0] = np.nan
        members = self.members() + [(None, bad, y, MlrConfig(n_classes=2))]
        with mock.patch.object(classifiers, "_train_stacked") as spy:
            with pytest.raises(ValueError, match="^features contain non-finite values$"):
                train_mlr_lockstep(members)
        assert not spy.called

    def test_diverging_member_named(self):
        # a rate this large used to train to NaN weights behind numpy
        # RuntimeWarnings, which the tests turn into errors; now the first
        # member that diverged is named, with its rate, and nothing warns
        X, y = separable_1d()
        members = [
            (None, X, y, MlrConfig(n_classes=2, epochs=20)),
            (None, X, y, MlrConfig(n_classes=2, learning_rate=1e30, epochs=20)),
            (None, X, y, MlrConfig(n_classes=2, learning_rate=1e31, epochs=20)),
        ]
        with pytest.raises(classifiers.TrainingDiverged, match=r"^member 1 trained to non-finite weights, bias or class scores at learning_rate 1e\+30$") as caught:
            train_mlr_lockstep(members)
        assert (caught.value.member, caught.value.learning_rate) == (1, 1e30)
        with pytest.raises(ValueError, match=r"^member 0 trained to non-finite weights, bias or class scores at learning_rate 1e\+31$"):
            train_mlr(*members[2])
        assert np.isfinite(train_mlr(*members[0]).weights).all()

    def test_finite_weights_whose_scores_overflow_are_named(self):
        # weights near 1e308 are finite, but their class scores on the
        # member's own rows overflow; they used to pass, and the model's
        # first prediction warned and gave NaN probabilities
        X, y = separable_1d()
        config = MlrConfig(n_classes=2, learning_rate=0.5, epochs=0)
        huge = MlrModel(np.array([[1e308], [-1e308]]), np.zeros(2), config)
        with pytest.raises(classifiers.TrainingDiverged, match=r"^member 0 .* at learning_rate 0\.5$"):
            train_mlr(huge, X, y, config)
        assert np.isfinite(train_mlr(MlrModel(np.array([[1e300], [-1e300]]), np.zeros(2), config), X, y, config).weights).all()

    def test_no_members_rejected(self):
        with pytest.raises(ValueError):
            train_mlr_lockstep([])

    def test_member_without_config_named(self):
        # a warm start used to fall back on the model's own config, and so
        # replay its permutation seed
        members = self.members(R=3)
        model = train_mlr(*members[0])
        members[2] = (model, *members[2][1:3], None)
        with pytest.raises(ValueError, match=r"^member 2 needs an MlrConfig, got None$"):
            train_mlr_lockstep(members)
        with pytest.raises(ValueError, match=r"^member 0 needs an MlrConfig, got None$"):
            train_mlr(model, *members[1][1:3], None)


class TestPredictProba:
    def test_zero_model_is_uniform(self):
        model = MlrModel(np.zeros((4, 3)), np.zeros(4), MlrConfig(n_classes=4))
        p = predict_proba(model, np.ones((1, 3)))
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
        p = predict_proba(model, np.zeros((1, 1)))[0]
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

    @pytest.mark.parametrize("shape", [(3,), (), (1, 1, 3), (1, 4)])
    def test_anything_but_an_n_by_d_matrix_rejected(self, shape):
        # a 1-D vector of length d used to be scored as one row
        model = MlrModel(np.zeros((2, 3)), np.zeros(2), MlrConfig(n_classes=2))
        with pytest.raises(ValueError, match=rf"^expected an \(N, 3\) feature matrix, got shape {re.escape(str(shape))}$"):
            predict_proba(model, np.zeros(shape))


class TestImmutability:
    def test_in_place_writes_raise(self):
        X, y = separable_1d()
        model = train_mlr(None, X, y, MlrConfig(n_classes=2, seed=0, epochs=2))
        with pytest.raises(ValueError, match="read-only"):
            model.weights[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            model.bias += 1.0
        with pytest.raises(FrozenInstanceError):
            model.weights = np.zeros((2, 1))

    def test_construction_copies_and_warm_start_leaves_the_model(self):
        W, b = np.ones((2, 1)), np.zeros(2)
        model = MlrModel(W, b, MlrConfig(n_classes=2, epochs=2))
        W[0, 0] = 5.0
        assert model.weights[0, 0] == 1.0
        X, y = separable_1d()
        train_mlr(model, X, y, model.config)
        assert np.array_equal(model.weights, np.ones((2, 1)))

    @pytest.mark.parametrize(
        "weights, bias",
        [
            (np.zeros((3, 2)), np.zeros(1)),  # used to build and predict 3-column rows
            (np.zeros(2), np.zeros(2)),  # used to build, then fail with IndexError
            (np.zeros((2, 2)), np.zeros((2, 1))),
        ],
    )
    def test_shapes_checked_at_construction(self, weights, bias):
        message = r"^MlrModel needs \(n, d\) weights and \(n,\) bias for n = 2 classes, got "
        with pytest.raises(ValueError, match=message):
            MlrModel(weights, bias, MlrConfig(2))


class TestAuxEnsemble:
    def make_blobs(self, seed=0):
        rng = np.random.default_rng(seed)
        centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
        X = np.concatenate([c + 0.3 * rng.normal(size=(20, 2)) for c in centers])
        y = np.repeat(np.arange(3), 20)
        return X, y

    def test_members_agree_on_separable_training_data(self):
        X, y = self.make_blobs()
        ensemble = trained_aux(X, y, 3)
        preds = aux_predictions(ensemble, X)
        assert (preds == y[:, None]).all()

    def test_knn_k1_returns_stored_label(self):
        X, y = self.make_blobs()
        ensemble = trained_aux(X, y, 3, knn_k=1)
        preds = aux_predictions(ensemble, X[7:8])
        assert preds[0, 2] == y[7]

    def test_knn_tie_breaks_to_smaller_class(self):
        # query equidistant from one class-2 point and one class-1 point
        X = np.array([[-1.0], [1.0], [5.0]])
        y = np.array([2, 1, 0])
        ensemble = trained_aux(X, y, 3, knn_k=3)
        # votes: one each for classes 0, 1, 2 -> smallest class index wins
        assert aux_predictions(ensemble, np.array([[0.0]]))[0, 2] == 0

    def test_k_larger_than_store_rejected(self):
        X, y = self.make_blobs()
        mlr = MlrModel(np.zeros((3, 2)), np.zeros(3), MlrConfig(3))
        with pytest.raises(ValueError, match=r"^knn_k must be a positive odd number at most the pool size 3, got 5$"):
            train_aux(X[:3], y[:3], mlr, 5, False)

    def test_even_k_rejected(self):
        X, y = self.make_blobs()
        mlr = MlrModel(np.zeros((3, 2)), np.zeros(3), MlrConfig(3))
        with pytest.raises(ValueError, match=r"^knn_k must be .*, got 4$"):
            train_aux(X, y, mlr, 4, False)

    def test_pretrained_logistic_member_is_used(self):
        # the ensemble takes its classes and its logistic votes from mlr
        X, y = self.make_blobs()
        mlr = train_mlr(None, X, y, MlrConfig(n_classes=4, seed=4))
        ensemble = train_aux(X, y, mlr, 5, False)
        assert ensemble.mlr is mlr and ensemble.n_classes == 4
        assert np.array_equal(aux_predictions(ensemble, X)[:, 0], predict_proba(mlr, X).argmax(axis=1))
        with pytest.raises(ValueError, match=r"^logistic member expects d=2, got 1$"):
            train_aux(X[:, :1], y, mlr, 5, False)

    @pytest.mark.parametrize("N, d, n, fortran", [(1, 1, 2, False), (30, 4, 3, True), (441, 16, 7, False), (57, 12, 5, True)])
    def test_svm_member_is_bit_identical_to_the_plain_loop(self, N, d, n, fortran):
        # at the SVM_* settings, the hinge loop's weights are the plain
        # expressions' bit for bit
        rng = np.random.default_rng(N)
        X = rng.standard_normal((N, d)) * rng.choice([0.1, 1.0, 10.0])
        if fortran:
            X = np.asfortranarray(X)
        y = rng.integers(0, n, N)
        ensemble = train_aux(X, y, MlrModel(np.zeros((n, d)), np.zeros(n), MlrConfig(n)), 1, False)
        W, b = reference_train_svm(X, y, n)
        assert np.array_equal(ensemble.svm_weights, W)
        assert np.array_equal(ensemble.svm_bias, b)

    def test_normalization_flag(self):
        X, y = self.make_blobs()
        scaled = X.copy()
        scaled[:, 1] *= 100.0
        ensemble = trained_aux(scaled, y, 3, normalize=True)
        assert ensemble.feature_mean is not None
        preds = aux_predictions(ensemble, scaled)
        assert (preds[:, 2] == y).all()

    def test_a_feature_vector_rejected(self):
        # one 1-D vector used to be scored as a row, and its votes returned 1-D
        X, y = self.make_blobs()
        with pytest.raises(ValueError, match=r"^expected an \(N, 2\) feature matrix, got shape \(2,\)$"):
            aux_predictions(trained_aux(X, y, 3), X[7])

    def test_immutable_and_independent_of_its_inputs(self):
        # writes to the store or a new even k used to change the votes silently
        X, y = self.make_blobs()
        queries = X.copy()
        normalized = trained_aux(queries, y, 3, normalize=True)
        plain = trained_aux(X, y, 3)
        votes = aux_predictions(plain, queries)
        X[:], y[:] = 0.0, 1  # the plain ensemble's pool, which its kNN store used to alias
        assert np.array_equal(aux_predictions(plain, queries), votes)
        for e in (normalized, plain):
            for name in ("svm_weights", "svm_bias", "knn_features", "knn_labels"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(e, name)[:] = 1
        for name in ("feature_mean", "feature_std"):
            assert not getattr(normalized, name).flags.writeable
        with pytest.raises(FrozenInstanceError):
            plain.knn_k = 3
        with pytest.raises(ValueError, match=r"^knn_k must be a positive odd number at most the pool size 60, got 4$"):
            replace(plain, knn_k=4)


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
    ensemble = untrained_aux(store, labels, 4, k)
    with mock.patch.object(classifiers, "BLOCK_BYTES", block_bytes):
        got = aux_predictions(ensemble, queries)[:, 2]
    assert np.array_equal(got, knn_reference(store, labels, k, 4, queries))
    # the ties really straddle the k-th place for some queries
    dists = ((store[None] - queries[:, None]) ** 2).sum(axis=2)
    kth = np.sort(dists, axis=1)[:, k - 1 : k]
    assert ((dists < kth).sum(axis=1) + (dists == kth).sum(axis=1) > k).any()


def untrained_aux(store, labels, n_classes, k, normalize=False):
    """An ensemble whose logistic and SVM members are zero, so that only
    its kNN store is set, z-scored as ``train_aux`` z-scores it, whatever
    the scale of the features."""
    mean = std = None
    if normalize:
        mean, std = store.mean(axis=0), store.std(axis=0)
        std = np.where(std > 0, std, 1.0)
        store = (store - mean) / std
    zeros = np.zeros((n_classes, store.shape[1]))
    mlr = MlrModel(zeros, np.zeros(n_classes), MlrConfig(n_classes))
    return AuxEnsemble(mlr, zeros, np.zeros(n_classes), store, labels, k, mean, std)


@st.composite
def knn_cases(draw):
    kind = draw(st.sampled_from(["real", "integer", "offset", "huge", "tiny"]))
    # numpy sums a row of more than 128 in pairwise halves, and of 8 or more in 8 lanes
    N, d, M = draw(st.integers(1, 30)), draw(st.integers(0, 12) | st.integers(120, 300)), draw(st.integers(1, 12))
    k = 2 * draw(st.integers(0, (N - 1) // 2)) + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "integer":  # grid points repeat, so distances tie
        store, queries = rng.integers(0, 3, (N, d)).astype(float), rng.integers(-2, 7, (M, d)) / 2
    elif kind == "huge":  # every |s|^2 overflows
        store, queries = (1e160 * rng.uniform(1, 2, (n, d)) * rng.choice([-1.0, 1.0], (n, d)) for n in (N, M))
    else:  # "offset" cancels the matmul form badly; "tiny" squares underflow
        scale, offset = {"real": (1.0, 0.0), "offset": (1.0, 1e8), "tiny": (1e-160, 0.0)}[kind]
        store, queries = (offset + scale * rng.normal(size=(n, d)) for n in (N, M))
    # stored points as queries: distance 0 and exact ties between copies
    queries = np.concatenate([queries, store[rng.integers(0, N, 3)]])
    n_classes = draw(st.integers(2, 4))
    labels = rng.integers(0, n_classes, N)
    return kind, store, labels, n_classes, k, draw(st.booleans()), queries


@given(knn_cases(), st.sampled_from([1, classifiers.BLOCK_BYTES]))
@settings(max_examples=300, deadline=None)
def test_knn_prefilter_gives_the_broadcast_votes(case, block_bytes):
    kind, store, labels, n_classes, k, normalize, queries = case
    with np.errstate(over="ignore"):  # "huge" overflows on both sides
        ensemble = untrained_aux(store, labels, n_classes, k, normalize)
        if kind == "huge" and not normalize and store.size:  # the prefilter overflows
            assert np.isinf(np.einsum("ij,ij->i", ensemble.knn_features, ensemble.knn_features)).all()
        with mock.patch.object(classifiers, "BLOCK_BYTES", block_bytes):
            got = aux_predictions(ensemble, queries)[:, 2]
        assert np.array_equal(got, reference_knn_predict(ensemble, queries))


def test_knn_memory_stays_within_blocks():
    # 18 of 1433 binary words per row, as in CORA: most pairs share no word
    # and so lie at the same distance, 36, and the stored points that tie at
    # the k-th distance, all of which get re-scored, are many
    rng = np.random.default_rng(0)
    store, queries = (np.zeros((n, 1433)) for n in (300, 200))
    for rows in (store, queries):
        rows[np.arange(len(rows))[:, None], rng.random((len(rows), 1433)).argsort(axis=1)[:, :18]] = 1.0
    ensemble = untrained_aux(store, rng.integers(0, 7, 300), 7, 5)
    dists = queries.sum(axis=1)[:, None] + store.sum(axis=1) - 2 * queries @ store.T  # exact for 0/1 words
    at_or_inside_kth = (dists <= np.sort(dists, axis=1)[:, 4:5]).sum()
    assert at_or_inside_kth > 2 * 5 * len(queries)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = classifiers._knn_predict(ensemble, queries)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # an unchunked gather of the candidates' rows peaks at over 200 blocks here
    assert peak < 8 * classifiers.BLOCK_BYTES
    assert np.array_equal(got, reference_knn_predict(ensemble, queries))


def test_knn_rejects_non_finite_queries():
    X = np.array([[0.0], [1.0], [2.0]])
    ensemble = trained_aux(X, np.array([0, 1, 1]), 2, knn_k=1)
    with pytest.raises(ValueError, match="non-finite"):
        aux_predictions(ensemble, np.array([[np.nan]]))


class TestAuxChecks:
    def test_even_k_named(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
        mlr = MlrModel(np.zeros((2, 1)), np.zeros(2), MlrConfig(2))
        with pytest.raises(ValueError, match=r"^knn_k must be a positive odd number at most the pool size 5, got 4$"):
            train_aux(X, [0, 1, 0, 1, 0], mlr, 4, False)

    @pytest.mark.parametrize("k", [0, -1])
    def test_non_positive_k_named(self, k):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
        mlr = MlrModel(np.zeros((2, 1)), np.zeros(2), MlrConfig(2))
        with pytest.raises(ValueError, match=rf"^knn_k must be a positive odd number at most the pool size 5, got {k}$"):
            train_aux(X, [0, 1, 0, 1, 0], mlr, k, False)
