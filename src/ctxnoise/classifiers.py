"""Incremental multinomial logistic regression plus SVM/kNN auxiliaries.

The logistic model is the workhorse classifier: L2-regularized softmax
regression fit by (mini-batch) gradient descent, with warm starting so a
model can be updated in place as new labeled batches arrive.  The auxiliary
ensemble (logistic + one-vs-rest linear SVM + kNN) exists for the voting
detectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import _freeze_arrays, _read_only, _whole_numbers

# The array kernels (the kNN's (b, N) prefilter blocks and its gathered
# candidate rows, star scoring, the SGD loop's rows gathered for all its
# members) work in blocks whose temporaries stay under this many bytes
# each, so that their memory does not grow with the epoch count or the
# number of distance ties, nor with the batch but for one table: star
# scoring keeps one n x n block of leaf marginals per distinct linked
# neighbour of a batch, 8 n^2 bytes each and at most 8 n^2 times the
# dataset's instance count in all (1.2 MB for a detect-linked seed's 3,087
# neighbours at n = 7).
BLOCK_BYTES = 256 * 1024

# _lockstep trains members of one step shape together, in chunks whose
# stacked features, R N d floats, stay under this many bytes; the softmax
# SGD loop also gathers as many rows each epoch.  It was set when members
# were held member-major: past it the step was bound by memory and
# arithmetic, and two stacked members at CORA's shape (N = 487, d = 1433)
# trained about 5% slower than the same two one after another, on a 2-CPU
# Xeon with 2 MiB of L2 a core.
LOCKSTEP_BYTES = 8 * 1024 * 1024

# The aux ensemble's SVM member: its learning rate (decayed as
# 1/sqrt(epoch)), L2 weight and epoch count.  The ensemble is a fixed
# comparator for the context detector, so these are not settable.
SVM_LEARNING_RATE = 0.1
SVM_L2 = 1e-4
SVM_EPOCHS = 200


class TrainingDiverged(ValueError):
    """A :func:`train_mlr_lockstep` member trained to non-finite weights,
    bias or class scores on its own rows; ``member`` is its index in the
    call, ``learning_rate`` its rate."""

    def __init__(self, member: int, learning_rate: float) -> None:
        super().__init__(
            f"member {member} trained to non-finite weights, bias or class scores at learning_rate {learning_rate!r}"
        )
        self.member = member
        self.learning_rate = learning_rate


@dataclass(frozen=True)
class MlrConfig:
    n_classes: int
    learning_rate: float = 0.1
    l2: float = 1e-4
    epochs: int = 200
    batch_size: int | None = 32   # None = full batch
    seed: int = 0

    def __post_init__(self) -> None:
        # each check is written so that NaN fails it
        checks = (
            ("n_classes", self.n_classes >= 2, "must be >= 2"),
            ("learning_rate", 0.0 < self.learning_rate < math.inf, "must be positive and finite"),
            ("l2", 0.0 <= self.l2 < math.inf, "must be >= 0 and finite"),
            ("epochs", self.epochs >= 0, "must be >= 0"),
            ("batch_size", self.batch_size is None or self.batch_size >= 1, "must be >= 1 or None"),
            ("seed", self.seed >= 0, "must be >= 0"),
        )
        for name, ok, requirement in checks:
            if not ok:
                raise ValueError(f"MlrConfig.{name} {requirement}, got {getattr(self, name)!r}")


@dataclass(frozen=True, eq=False)
class MlrModel:
    """Construction copies the weights and bias into read-only arrays."""

    weights: np.ndarray  # (n, d)
    bias: np.ndarray     # (n,)
    config: MlrConfig

    def __post_init__(self) -> None:
        _freeze_arrays(self, "weights", "bias", dtype=float)
        weights, bias, n = self.weights, self.bias, self.config.n_classes
        if weights.ndim != 2 or weights.shape[0] != n or bias.shape != (n,):
            raise ValueError(
                f"MlrModel needs (n, d) weights and (n,) bias for n = {n} classes, got {weights.shape} and {bias.shape}"
            )

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]


def _softmax(scores: np.ndarray) -> np.ndarray:
    # numpy reduces a short last axis one row at a time, so the row max is
    # taken over the outer axis of a class-major copy instead.  A max is
    # exact in any order; two orders can differ only in the sign of a zero
    # max, which leaves exp(scores - max) unchanged, so the bits are those
    # of scores.max(axis=-1).
    row_max = np.maximum.reduce(np.swapaxes(scores, -1, -2).copy(), -2, keepdims=True)
    e = np.exp(scores - np.swapaxes(row_max, -1, -2))
    return e / e.sum(axis=-1, keepdims=True)


def _checked_pool(features, labels, n_classes: int, model: MlrModel | None, who: str) -> tuple:
    """The float (N, d) pool, its int labels and their (N, n) one-hot rows,
    after checking them and that ``model`` (named ``who``), if any, fits
    the pool's feature count and the class count."""
    X = np.asarray(features, dtype=float)
    y = _whole_numbers(labels, n_classes)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("need a non-empty (N, d) feature matrix")
    if not np.isfinite(X).all():
        raise ValueError("features contain non-finite values")
    if y.shape != (X.shape[0],):
        raise ValueError("labels must align with features")
    if model is not None and model.n_features != X.shape[1]:
        raise ValueError(f"{who} expects d={model.n_features}, got {X.shape[1]}")
    if model is not None and model.n_classes != n_classes:
        raise ValueError("config n_classes does not match the model")
    Y = np.zeros((X.shape[0], n_classes))
    Y[np.arange(X.shape[0]), y] = 1.0
    return X, y, Y


def _lockstep(keys: list[tuple], train, interleaved: bool) -> list:
    """Each member's result, in member order, from ``train(chunk)``, which
    trains the members indexed by ``chunk`` in one stacked loop, results in
    chunk order.  Members group by key, whose first entry is their pool's
    (N, d), in order of first appearance, and each group trains in chunks
    of at most ``LOCKSTEP_BYTES`` of stacked features; an ``interleaved``
    loop trains each d = 1 member alone: G^T X_b is then a matrix-vector
    product, which rounds otherwise on interleaved slices."""
    if not keys:
        raise ValueError("need at least one member")
    groups, results = {}, {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    for ((N, d), *_), index in groups.items():
        size = 1 if interleaved and d == 1 else max(1, LOCKSTEP_BYTES // (8 * N * max(1, d)))
        for start in range(0, len(index), size):
            chunk = index[start : start + size]
            results.update(zip(chunk, train(chunk)))
    return [results[i] for i in range(len(keys))]


def train_mlr(
    model: MlrModel | None,
    features: np.ndarray,
    labels: np.ndarray,
    config: MlrConfig,
) -> MlrModel:
    """Fit (or warm-start update) the logistic model on the given samples.

    Cold start initializes at zero weights.  Passing an existing model
    continues gradient descent from its weights, which is how per-batch
    incremental updates are done; ``config`` gives the settings and seed of
    this call either way.  The learning rate decays as 1/sqrt(epoch) and
    the run is deterministic for a fixed config seed.  This is the
    one-member call of :func:`train_mlr_lockstep`.
    """
    return train_mlr_lockstep([(model, features, labels, config)])[0]


def train_mlr_lockstep(members: Sequence[tuple]) -> list[MlrModel]:
    """Train independent logistic models, in lock step where they can.

    Each member is a ``(model, features, labels, config)`` tuple, read as
    :func:`train_mlr` reads its arguments, and gets the model that call
    would return, bit for bit: its own permutation stream, learning rate,
    l2 and start point.  Members that agree on the number of rows N, the
    feature count d, ``n_classes``, ``epochs`` and ``batch_size`` share one
    SGD loop, at most ``LOCKSTEP_BYTES`` of gathered rows at a time (one
    member at d = 1), in which one numpy call does a step's work for all of
    them.  Every member's input is checked before any trains; the models
    come back in member order.
    A member whose weights, bias or class scores on its own rows end up
    non-finite (a learning rate too large for its data) raises
    :class:`TrainingDiverged` naming the member and its rate.
    """
    checked = []
    for i, (model, features, labels, cfg) in enumerate(members):
        if not isinstance(cfg, MlrConfig):
            raise ValueError(f"member {i} needs an MlrConfig, got {cfg!r}")
        X, _, Y = _checked_pool(features, labels, cfg.n_classes, model, "model")
        checked.append((model, X, Y, cfg))
    keys = [(X.shape, cfg.n_classes, cfg.epochs, cfg.batch_size) for _, X, _, cfg in checked]
    # A diverging member overflows to inf and NaN, which stay non-finite, or
    # stops short of them with weights whose class scores overflow on its
    # own rows.  It fails here by name, not through numpy's warnings here or
    # at the model's first prediction.
    with np.errstate(over="ignore", invalid="ignore"):
        trained = _lockstep(keys, lambda chunk: _train_stacked([checked[i] for i in chunk]), interleaved=True)
        for i, ((_, X, _, _), model) in enumerate(zip(checked, trained)):
            if not (np.isfinite(model.weights).all() and np.isfinite(X @ model.weights.T + model.bias).all()):
                raise TrainingDiverged(i, model.config.learning_rate)
    return trained


def _train_stacked(members: list[tuple]) -> list[MlrModel]:
    """The SGD loop of :func:`train_mlr_lockstep`, over checked members of one step shape."""
    models, Xs, Ys, cfgs = zip(*members)
    R, (N, d), n = len(cfgs), Xs[0].shape, cfgs[0].n_classes
    epochs, batch_size = cfgs[0].epochs, cfgs[0].batch_size
    # The members are interleaved: the member axis sits beside the innermost
    # one, so rows are held as (rows, R, d) and (rows, R, n), class-major
    # scores as (n, R, k) and the bias as (1, R, n), and each elementwise op
    # and reduction of a step is one contiguous call over all R members.
    # Only the weights lead with it, (R, n, d), and are updated through
    # (R, n d) views.  One member drops the member axis, as cheap as a plain
    # loop.  Members that share one learning rate and one l2 keep them as
    # Python floats; others hold theirs as (R, 1), which broadcasts against
    # both the weights and the bias.
    lead = () if R == 1 else (R,)
    W = np.array([np.zeros((n, d)) if model is None else model.weights for model in models], dtype=float)
    W = W.reshape(lead + (n, d))
    b = np.array([np.zeros(n) if model is None else model.bias for model in models], dtype=float)
    b = b.reshape((1,) + lead + (n,))
    if len({(c.learning_rate, c.l2) for c in cfgs}) == 1:
        base_lr, l2 = cfgs[0].learning_rate, cfgs[0].l2
    else:
        base_lr = np.array([c.learning_rate for c in cfgs]).reshape(R, 1)
        l2 = np.array([c.l2 for c in cfgs]).reshape(R, 1)

    def by_member(a):  # (rows, R, cols) as an (R, rows, cols) view
        return a if R == 1 else a.swapaxes(0, 1)

    # A step is P = softmax(X_b W^T + b), G = (P - Y_b) / |b|,
    # W -= lr * (G^T X_b + l2 W) and b -= lr * sum_rows(G).  Each operation
    # and its operand order are those of the plain expressions (the reference
    # loop in tests/oracles.py), so the weights are bit-identical to theirs;
    # but every temporary lives in a buffer made once, with out passed
    # positionally, which numpy parses faster.  The rows are gathered in
    # epoch order, a block of epochs at a time, into C-ordered buffers, as
    # X[idx] makes them: each member's permuted call draws its permutations
    # (the ones, and the generator state, that as many permutation(N) calls
    # give; a test pins this) into its column of one interleaved index over
    # the members' stacked rows, and one take per matrix gathers every
    # member's rows, into buffers of at most BLOCK_BYTES of rows over all
    # members, or of one epoch.
    size = batch_size or N
    if batch_size:
        block = max(1, min(epochs, BLOCK_BYTES // (8 * R * N * (d + n))))
        X_all = Xs[0] if R == 1 else np.concatenate(Xs)  # member r's rows from r N on
        Y_all = Ys[0] if R == 1 else np.concatenate(Ys)
        Xo, Yo = np.empty((block * N,) + lead + (d,)), np.empty((block * N,) + lead + (n,))
        Xo_flat, Yo_flat = Xo.reshape(block * N * R, d), Yo.reshape(block * N * R, n)
        index = np.empty((block, N, R), dtype=np.intp)
        ranks = [np.broadcast_to(np.arange(r * N, (r + 1) * N), (block, N)) for r in range(R)]
        draws = [(np.random.default_rng(c.seed), rank, index[..., r]) for r, (c, rank) in enumerate(zip(cfgs, ranks))]
    else:  # full batch: no permutation is drawn, the rows stay in order
        block = 1
        Xo = np.ascontiguousarray(Xs[0]) if R == 1 else np.stack(Xs, axis=1)
        Yo = Ys[0] if R == 1 else np.stack(Ys, axis=1)
        draws = []

    # Each product is one stacked matmul over member-major views of the
    # interleaved buffers, which makes one BLAS call per member on 2-D
    # slices whose leading dimensions are R d (X_b), R n (the G^T view) and
    # R k (the class-major output);
    # test_stacked_numpy_calls_match_their_2d_slices pins their bits
    # against the plain expressions.  The softmax runs class-major, in an
    # (n, R, k) buffer Pc that the first product writes straight into:
    # W X_b^T gives the bits of (X_b W^T)^T, and numpy reduces over the
    # outer class axis of its (n, R k) view in one pass rather than one
    # short row at a time.  The max is exact in any order.  Below 8 classes
    # the outer-axis sum adds left to right, as numpy sums a contiguous row;
    # from 8 on numpy sums a row pairwise, so the sum reduces the rows of a
    # contiguous transposed copy instead.  So P is the plain softmax; it is
    # copied back row-major once, since G^T X_b must take its transposed
    # view of a row-major G to keep the plain bits.  Each step length has
    # its own Pc and row buffer, which the max and the sum share.  Every
    # view is made here, once per step of an epoch and not per epoch: at
    # sweep shapes (one member, one step an epoch, a block of 120 epochs) a
    # few views more per epoch show.
    k_max = min(size, N)
    P_buf = np.empty((k_max,) + lead + (n,))
    grad_W, decay, grad_b = np.empty_like(W), np.empty_like(W), np.empty_like(b)
    W_flat, grad_flat, decay_flat = (a.reshape(R, n * d) for a in (W, grad_W, decay))
    class_major = {}  # step length -> (Pc, its member-major view, Pc^T, Pc as (n, R k), row buffer)
    # (start, k, P, G^T, class-major buffers) of each step of an epoch
    views = []
    for start in range(0, N, size):
        k = min(size, N - start)
        if k not in class_major:
            Pc = np.empty((n,) + lead + (k,))
            class_major[k] = (Pc, by_member(Pc), Pc.T, Pc.reshape(n, R * k), np.empty((1, R * k)))
        P = P_buf[:k]
        views.append((start, k, P, by_member(P).swapaxes(-1, -2), class_major[k]))
    # (X rows member-major and their transpose, Y rows, P, G^T, Pc, its
    # member-major view, Pc^T, Pc 2-D, row buffer, row count) of each step,
    # per epoch of a block
    steps = []
    for e in range(block):
        epoch_steps = []
        for start, k, P, GT, buffers in views:
            Xb = by_member(Xo)[..., e * N + start : e * N + start + k, :]
            Yb = Yo[e * N + start : e * N + start + k]
            epoch_steps.append((Xb, Xb.swapaxes(-1, -2), Yb, P, GT, *buffers, k))
        steps.append(epoch_steps)
    bT = b.T
    for first in range(1, epochs + 1, block):
        count = min(block, epochs + 1 - first)
        if draws:
            for rng, ranks, orders in draws:
                rng.permuted(ranks[:count], axis=1, out=orders[:count])
            order = index[:count].reshape(-1)
            # "clip" skips the copy that "raise" makes of out
            np.take(X_all, order, 0, Xo_flat[: count * N * R], "clip")
            np.take(Y_all, order, 0, Yo_flat[: count * N * R], "clip")
        for epoch, epoch_steps in zip(range(first, first + count), steps):
            lr = base_lr / math.sqrt(epoch)
            for Xb, XbT, Yb, P, GT, Pc, Pcm, PcT, Pc2, row, k in epoch_steps:
                np.matmul(W, XbT, Pcm)
                np.add(Pc, bT, Pc)
                np.maximum.reduce(Pc2, -2, None, row, True)
                np.subtract(Pc2, row, Pc2)
                np.exp(Pc2, Pc2)
                if n < 8:
                    np.add.reduce(Pc2, -2, None, row, True)
                else:
                    np.add.reduce(np.ascontiguousarray(Pc2.T), -1, None, row.T, True)
                np.divide(Pc2, row, Pc2)  # softmax, class-major
                P[...] = PcT
                np.subtract(P, Yb, P)
                np.divide(P, k, P)  # G
                np.matmul(GT, Xb, grad_W)
                np.multiply(l2, W_flat, decay_flat)
                np.add(grad_flat, decay_flat, grad_flat)
                np.multiply(lr, grad_flat, grad_flat)
                np.subtract(W_flat, grad_flat, W_flat)
                np.add.reduce(P, 0, None, grad_b, True)
                np.multiply(lr, grad_b, grad_b)
                np.subtract(b, grad_b, b)

    return [
        MlrModel(weights=Wr, bias=br, config=cfg)
        for Wr, br, cfg in zip(W.reshape(R, n, d), b.reshape(R, n), cfgs)
    ]


def predict_proba(model: MlrModel, features: np.ndarray) -> np.ndarray:
    """The (N, n) class distributions of an (N, d) feature matrix."""
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected an (N, {model.n_features}) feature matrix, got shape {X.shape}")
    return _softmax(X @ model.weights.T + model.bias)


def entropy(proba: np.ndarray) -> np.ndarray:
    """Natural-log entropy of each row of class distributions, with
    0 * log 0 = 0: a saturated classifier gives exact zeros."""
    return -(proba * np.log(np.where(proba > 0, proba, 1.0))).sum(axis=-1)


@dataclass(frozen=True, eq=False)
class AuxEnsemble:
    """Logistic + one-vs-rest linear SVM + kNN trained on the same pool.
    Construction copies the arrays into read-only ones and checks that
    ``knn_labels`` holds one class label per stored row and that ``knn_k``
    is a positive odd number at most the pool size."""

    mlr: MlrModel
    svm_weights: np.ndarray   # (n, d)
    svm_bias: np.ndarray      # (n,)
    knn_features: np.ndarray  # (N, d), already normalized if requested
    knn_labels: np.ndarray
    knn_k: int
    feature_mean: np.ndarray | None
    feature_std: np.ndarray | None

    def __post_init__(self) -> None:
        _freeze_arrays(self, "svm_weights", "svm_bias", "knn_features", "knn_labels", "feature_mean", "feature_std")
        N, k = self.knn_features.shape[0], self.knn_k
        labels = _whole_numbers(self.knn_labels, self.n_classes, "knn_labels")
        if labels.shape != (N,):
            raise ValueError(f"knn_labels need one label per stored row, got shape {labels.shape} for {N} rows")
        object.__setattr__(self, "knn_labels", _read_only(labels))
        if not (1 <= k <= N and k % 2 == 1):
            raise ValueError(f"knn_k must be a positive odd number at most the pool size {N}, got {k!r}")

    @property
    def n_classes(self) -> int:
        return self.svm_weights.shape[0]

    def _transform(self, X: np.ndarray) -> np.ndarray:
        if self.feature_mean is None:
            return X
        return (X - self.feature_mean) / self.feature_std


def train_aux(members: Sequence[tuple], knn_k: int, normalize: bool) -> list[AuxEnsemble]:
    """The ensembles on several pools, one per ``(features, labels, mlr)``
    member: ``mlr`` is the pool's logistic member, already trained on it,
    and the SVM member trains here with the ``SVM_*`` settings.  ``knn_k``
    must be a positive odd number at most each pool's size; ``normalize``
    z-scores each kNN store's features.  Every member's input is checked
    before any SVM trains.  Members that agree on the pool size N, the
    feature count d and the class count share one hinge loop, at most
    ``LOCKSTEP_BYTES`` of stacked pools at a time; each gets the weights it
    would get alone, bit for bit.  The ensembles come back in member order.
    """
    checked = [_checked_pool(features, labels, mlr.n_classes, mlr, "logistic member") for features, labels, mlr in members]

    def stack(chunk, j):  # a lone pool trains as a (1, N, d) view of itself, with no copy
        return checked[chunk[0]][j][None] if len(chunk) == 1 else np.stack([checked[i][j] for i in chunk])

    keys = [(X.shape, Y.shape[1]) for X, _, Y in checked]
    svms = _lockstep(keys, lambda chunk: zip(*_train_hinge(stack(chunk, 0), stack(chunk, 2))), interleaved=False)

    ensembles = []
    for (X, y, _), (_, _, mlr), svm in zip(checked, members, svms):
        mean = std = None
        store = X
        if normalize:
            mean = X.mean(axis=0)
            std = X.std(axis=0)
            std = np.where(std > 0, std, 1.0)
            store = (X - mean) / std
        ensembles.append(AuxEnsemble(mlr, *svm, store, y, knn_k, mean, std))
    return ensembles


def _train_hinge(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one-vs-rest hinge loss of :func:`train_aux`'s SVM members, by
    full-batch subgradient descent, on an (R, N, d) stack of pools with
    (R, N, n) one-hot rows ``Y``, whose class signs S = 2 Y - 1 are exact;
    the (R, n, d) weights and (R, n) biases.

    An epoch is Z = S (X W^T + b), A = -(Z < 1) S, W -= lr (A^T X / N +
    SVM_L2 W) and b -= lr sum_rows(A) / N.  Each operation and its operand
    order are those of the plain expressions (``reference_train_svm`` in
    tests/oracles.py), so the weights are bit-identical to theirs: the
    products are one stacked matmul over (N, d) slices, each a contiguous
    copy or the pool itself, and their transposed views, which gives each
    slice the plain 2-D product's bits.  A's row sums are whole numbers,
    exact in any order, so they are taken as one product with a row of
    ones, several times faster than numpy's reduce over the middle axis;
    b, which starts at +0, never holds -0, so the sign of a zero sum does
    not show.  Every temporary lives in a buffer made once, with out passed
    positionally.
    """
    (R, N, d), n = X.shape, Y.shape[2]
    S = 2.0 * Y - 1.0
    W, b = np.zeros((R, n, d)), np.zeros((R, 1, n))
    neg_S = -S
    Z, A, mask = np.empty((R, N, n)), np.empty((R, N, n)), np.empty((R, N, n), dtype=bool)
    G, decay, grad_b = np.empty_like(W), np.empty_like(W), np.empty_like(b)
    WT, AT, ones = W.swapaxes(1, 2), A.swapaxes(1, 2), np.ones((1, N))
    for epoch in range(1, SVM_EPOCHS + 1):
        lr = SVM_LEARNING_RATE / math.sqrt(epoch)
        np.matmul(X, WT, Z)
        np.add(Z, b, Z)
        np.multiply(Z, S, Z)
        np.less(Z, 1.0, mask)
        np.multiply(mask, neg_S, A)  # the bits of -(mask S)
        np.matmul(AT, X, G)
        np.divide(G, N, G)
        np.multiply(SVM_L2, W, decay)
        np.add(G, decay, G)
        np.multiply(G, lr, G)
        np.subtract(W, G, W)
        np.matmul(ones, A, grad_b)
        np.divide(grad_b, N, grad_b)
        np.multiply(grad_b, lr, grad_b)
        np.subtract(b, grad_b, b)
    return W, b.reshape(R, n)


def _knn_candidates(
    q: np.ndarray, store: np.ndarray, store_sq: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(query, point)`` index pairs, in row-major order, of the points
    that may lie at or inside each query's k-th exact distance.

    BLAS forms ``a = |s|^2 - 2 q.s``, which is ``D - |q|^2`` up to rounding,
    D being the real squared distance and ``f = fl(sum((s - q)**2))`` the
    exact one of :func:`_knn_predict`.  With ``r = |q|^2 + max |s|^2``, a and
    f are each a sum of about d rounded terms of at most 2r, so each misses
    D (or ``D - |q|^2``) by at most about ``(d + 2) eps r``, and
    ``|a + |q|^2 - f| <= e`` for the slack ``e = 16 (d + 4) eps (r + tiny)``.
    That is four times the need, which also covers the rounding of the limit
    below, and ``eps tiny``, the smallest subnormal, covers terms that
    underflow.  Let T be the k-th smallest a of a query and F its k-th
    smallest f.  The k points with a <= T have f <= T + |q|^2 + e, so
    F <= T + |q|^2 + e, and a point with f <= F has
    a <= f - |q|^2 + e <= T + 2e.  So the points with a <= T + 2e hold every
    point at or inside the k-th exact distance, and every other point is
    strictly farther than it.  If any a is not finite, or 4r overflows so
    that an exact distance could, every point of every query is returned.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite block selects every point
        a = q @ store.T
        a *= -2.0
        a += store_sq
        r = np.einsum("ij,ij->i", q, q) + store_sq.max()
        e = 16 * (q.shape[1] + 4) * np.finfo(float).eps * (r + np.finfo(float).tiny)
        limit = np.partition(a, k - 1, axis=1)[:, k - 1] + 2 * e
        finite = np.isfinite(a).all() and np.isfinite(4 * r).all()
    if not finite:
        return np.divmod(np.arange(a.size), a.shape[1])
    return np.divmod(np.flatnonzero(a <= limit[:, None]), a.shape[1])


def _knn_predict(ensemble: AuxEnsemble, X: np.ndarray) -> np.ndarray:
    """Majority label of each query's k nearest stored points.

    The neighbours are the first k of a stable sort by the exact distance
    ``((s - q)**2).sum()``: everything strictly closer than the k-th
    distance, then the points at exactly that distance in store order.
    Vote ties fall to the smallest class index.

    Only the candidates of :func:`_knn_candidates` get an exact distance;
    every other point is strictly farther than the k-th, so the first k of
    the candidates are the neighbours.  The candidates' rows are gathered in
    chunks, and each re-score is the same subtraction, square and
    contiguous row sum of length d as in the broadcast
    ``((S - q)**2).sum(-1)``, so its bits are the same too.
    """
    Q = ensemble._transform(X)
    store, k, labels, n = ensemble.knn_features, ensemble.knn_k, ensemble.knn_labels, ensemble.n_classes
    N, d = store.shape
    with np.errstate(over="ignore"):  # then every point is a candidate
        store_sq = np.einsum("ij,ij->i", store, store)
    step = max(1, BLOCK_BYTES // (8 * N))  # queries per (b, N) block
    chunk = max(1, BLOCK_BYTES // (8 * max(1, d)))  # candidate rows per gather
    out = np.empty(Q.shape[0], dtype=int)
    for start in range(0, Q.shape[0], step):
        q = Q[start : start + step]
        if not np.isfinite(q).all():
            raise ValueError("query features contain non-finite values")
        i, j = _knn_candidates(q, store, store_sq, k)
        dists = np.empty(len(i))
        for c in range(0, len(i), chunk):
            part = slice(c, c + chunk)
            dists[part] = ((store[j[part]] - q[i[part]]) ** 2).sum(axis=-1)
        # i is sorted, and j ascends within each query, so each query's
        # candidates keep their places when stably sorted by (query,
        # distance), ties in store order; its first k vote
        counts = np.bincount(i, minlength=len(q))
        rank = np.arange(len(i)) - (np.cumsum(counts) - counts)[i]
        nearest = np.lexsort((dists, i))[rank < k]
        votes = np.bincount(i[nearest] * n + labels[j[nearest]], minlength=len(q) * n)
        out[start : start + step] = votes.reshape(len(q), n).argmax(axis=1)
    return out


def aux_predictions(ensemble: AuxEnsemble, features: np.ndarray) -> np.ndarray:
    """Per-member class predictions of an (N, d) feature matrix, an (N, 3)
    array with columns ordered (mlr, svm, knn)."""
    X = np.asarray(features, dtype=float)
    mlr_pred = predict_proba(ensemble.mlr, X).argmax(axis=1)
    svm_pred = (X @ ensemble.svm_weights.T + ensemble.svm_bias).argmax(axis=1)
    knn_pred = _knn_predict(ensemble, X)
    return np.stack([mlr_pred, svm_pred, knn_pred], axis=1)
