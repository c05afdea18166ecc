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
from pathlib import Path

import numpy as np

# The array kernels (kNN distances, star scoring) work in blocks whose
# temporaries stay under this many bytes each, so that memory does not grow
# with the batch.
BLOCK_BYTES = 256 * 1024


@dataclass
class MlrConfig:
    n_classes: int
    learning_rate: float = 0.1
    l2: float = 1e-4
    epochs: int = 200
    batch_size: int | None = 32   # None = full batch
    seed: int = 0


@dataclass
class MlrModel:
    weights: np.ndarray  # (n, d)
    bias: np.ndarray     # (n,)
    config: MlrConfig

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]


def _softmax(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _check_training_input(features: np.ndarray, labels: np.ndarray, n_classes: int) -> None:
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValueError("need a non-empty (N, d) feature matrix")
    if not np.isfinite(features).all():
        raise ValueError("features contain non-finite values")
    if labels.shape != (features.shape[0],):
        raise ValueError("labels must align with features")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= n_classes:
        raise ValueError(f"labels must lie in [0, {n_classes})")


def train_mlr(
    model: MlrModel | None,
    features: np.ndarray,
    labels: np.ndarray,
    config: MlrConfig | None = None,
) -> MlrModel:
    """Fit (or warm-start update) the logistic model on the given samples.

    Cold start initializes at zero weights.  Passing an existing model
    continues gradient descent from its weights, which is how per-batch
    incremental updates are done.  The learning rate decays as 1/sqrt(epoch)
    and the run is deterministic for a fixed config seed.
    """
    if model is None and config is None:
        raise ValueError("cold start needs a config")
    cfg = config if config is not None else model.config
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=int)
    _check_training_input(X, y, cfg.n_classes)

    if model is not None:
        if model.n_features != X.shape[1]:
            raise ValueError(f"model expects d={model.n_features}, got {X.shape[1]}")
        if model.n_classes != cfg.n_classes:
            raise ValueError("config n_classes does not match the model")
        W = model.weights.copy()
        b = model.bias.copy()
    else:
        W = np.zeros((cfg.n_classes, X.shape[1]))
        b = np.zeros(cfg.n_classes)

    Y = np.zeros((X.shape[0], cfg.n_classes))
    Y[np.arange(X.shape[0]), y] = 1.0
    rng = np.random.default_rng(cfg.seed)
    size = cfg.batch_size or X.shape[0]

    for epoch in range(1, cfg.epochs + 1):
        lr = cfg.learning_rate / math.sqrt(epoch)
        order = rng.permutation(X.shape[0]) if cfg.batch_size else np.arange(X.shape[0])
        for start in range(0, X.shape[0], size):
            idx = order[start : start + size]
            P = _softmax(X[idx] @ W.T + b)
            G = (P - Y[idx]) / len(idx)
            W -= lr * (G.T @ X[idx] + cfg.l2 * W)
            b -= lr * G.sum(axis=0)

    return MlrModel(weights=W, bias=b, config=cfg)


def predict_proba(model: MlrModel, features: np.ndarray) -> np.ndarray:
    """Class distribution(s) for one feature vector or a stack of them."""
    X = np.asarray(features, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.shape[1] != model.n_features:
        raise ValueError(f"expected feature length {model.n_features}, got {X.shape[1]}")
    P = _softmax(X @ model.weights.T + model.bias)
    return P[0] if single else P


def entropy(proba: np.ndarray) -> np.ndarray:
    """Natural-log entropy of each row of class distributions, with
    0 * log 0 = 0: a saturated classifier gives exact zeros."""
    return -(proba * np.log(np.where(proba > 0, proba, 1.0))).sum(axis=1)


def mlr_loss(weights: np.ndarray, bias: np.ndarray, features: np.ndarray, labels: np.ndarray, l2: float) -> float:
    """Mean cross-entropy plus (l2/2)·||W||²; the objective train_mlr descends."""
    P = _softmax(features @ weights.T + bias)
    nll = -np.log(P[np.arange(len(labels)), labels]).mean()
    return float(nll + 0.5 * l2 * (weights**2).sum())


def mlr_gradient(
    weights: np.ndarray, bias: np.ndarray, features: np.ndarray, labels: np.ndarray, l2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic full-batch gradient of :func:`mlr_loss` in (W, b)."""
    P = _softmax(features @ weights.T + bias)
    Y = np.zeros_like(P)
    Y[np.arange(len(labels)), labels] = 1.0
    G = (P - Y) / len(labels)
    return G.T @ features + l2 * weights, G.sum(axis=0)


def save_mlr(model: MlrModel, path: str | Path) -> None:
    """Checkpoint format: header ``mlr n d lr l2 epochs batch_size seed``,
    then n row-major weight lines and one bias line, repr-precision floats."""
    cfg = model.config
    with Path(path).open("w") as fh:
        bs = "none" if cfg.batch_size is None else str(cfg.batch_size)
        fh.write(
            f"mlr {model.n_classes} {model.n_features} {repr(cfg.learning_rate)} "
            f"{repr(cfg.l2)} {cfg.epochs} {bs} {cfg.seed}\n"
        )
        for row in model.weights:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
        fh.write(" ".join(repr(float(v)) for v in model.bias) + "\n")


def load_mlr(path: str | Path) -> MlrModel:
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().split()
        if len(header) != 8 or header[0] != "mlr":
            raise ValueError(f"{path}: not an mlr checkpoint")
        n, d = int(header[1]), int(header[2])
        cfg = MlrConfig(
            n_classes=n,
            learning_rate=float(header[3]),
            l2=float(header[4]),
            epochs=int(header[5]),
            batch_size=None if header[6] == "none" else int(header[6]),
            seed=int(header[7]),
        )
        W = np.array([[float(t) for t in fh.readline().split()] for _ in range(n)])
        b = np.array([float(t) for t in fh.readline().split()])
    if W.shape != (n, d) or b.shape != (n,):
        raise ValueError(f"{path}: weight block does not match header")
    return MlrModel(weights=W, bias=b, config=cfg)


@dataclass
class AuxConfig:
    n_classes: int
    knn_k: int = 5
    normalize: bool = False     # z-score features for the kNN store
    svm_learning_rate: float = 0.1
    svm_l2: float = 1e-4
    svm_epochs: int = 200
    seed: int = 0
    mlr: MlrConfig | None = None


@dataclass
class AuxEnsemble:
    """Logistic + one-vs-rest linear SVM + kNN trained on the same pool."""

    mlr: MlrModel
    svm_weights: np.ndarray   # (n, d)
    svm_bias: np.ndarray      # (n,)
    knn_features: np.ndarray  # (N, d), already normalized if requested
    knn_labels: np.ndarray
    knn_k: int
    feature_mean: np.ndarray | None
    feature_std: np.ndarray | None

    @property
    def n_classes(self) -> int:
        return self.svm_weights.shape[0]

    def _transform(self, X: np.ndarray) -> np.ndarray:
        if self.feature_mean is None:
            return X
        return (X - self.feature_mean) / self.feature_std


def train_aux(features: np.ndarray, labels: np.ndarray, config: AuxConfig) -> AuxEnsemble:
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=int)
    _check_training_input(X, y, config.n_classes)
    if config.knn_k < 1 or config.knn_k % 2 == 0:
        raise ValueError("knn_k must be a positive odd number")
    if config.knn_k > X.shape[0]:
        raise ValueError(f"knn_k={config.knn_k} exceeds store size {X.shape[0]}")

    mlr_cfg = config.mlr or MlrConfig(n_classes=config.n_classes, seed=config.seed)
    mlr = train_mlr(None, X, y, mlr_cfg)

    # One-vs-rest hinge loss by full-batch subgradient descent.
    n = config.n_classes
    W = np.zeros((n, X.shape[1]))
    b = np.zeros(n)
    S = -np.ones((X.shape[0], n))
    S[np.arange(X.shape[0]), y] = 1.0
    for epoch in range(1, config.svm_epochs + 1):
        lr = config.svm_learning_rate / math.sqrt(epoch)
        margins = S * (X @ W.T + b)
        active = (margins < 1.0) * S
        W -= lr * (-active.T @ X / X.shape[0] + config.svm_l2 * W)
        b -= lr * (-active.sum(axis=0) / X.shape[0])

    mean = std = None
    store = X
    if config.normalize:
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std = np.where(std > 0, std, 1.0)
        store = (X - mean) / std

    return AuxEnsemble(
        mlr=mlr,
        svm_weights=W,
        svm_bias=b,
        knn_features=store,
        knn_labels=y.copy(),
        knn_k=config.knn_k,
        feature_mean=mean,
        feature_std=std,
    )


def _knn_predict(ensemble: AuxEnsemble, X: np.ndarray) -> np.ndarray:
    """Majority label of each query's k nearest stored points.

    The neighbours are the first k of a stable sort by distance: everything
    strictly closer than the k-th distance, then the points at exactly that
    distance in store order.  Vote ties fall to the smallest class index.
    """
    Q = ensemble._transform(X)
    if not np.isfinite(Q).all():
        raise ValueError("query features contain non-finite values")
    store, k = ensemble.knn_features, ensemble.knn_k
    one_hot = np.eye(ensemble.n_classes)[ensemble.knn_labels]
    step = max(1, BLOCK_BYTES // max(1, store.nbytes))  # queries per block
    out = np.empty(Q.shape[0], dtype=int)
    for start in range(0, Q.shape[0], step):
        # one expression, so that numpy squares the difference in place and
        # frees it before the next block's is made
        dists = ((store[None, :, :] - Q[start : start + step, None, :]) ** 2).sum(axis=2)
        kth = np.partition(dists, k - 1, axis=1)[:, k - 1 : k]
        closer = dists < kth
        ties = dists == kth
        ties &= np.cumsum(ties, axis=1) <= k - closer.sum(axis=1, keepdims=True)
        votes = (closer | ties) @ one_hot
        out[start : start + step] = votes.argmax(axis=1)
    return out


def aux_predictions(ensemble: AuxEnsemble, features: np.ndarray) -> np.ndarray:
    """Per-member class predictions, columns ordered (mlr, svm, knn)."""
    if ensemble is None:
        raise ValueError("ensemble is not trained")
    X = np.asarray(features, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if ensemble.knn_k > ensemble.knn_features.shape[0]:
        raise ValueError("knn_k exceeds store size")
    mlr_pred = predict_proba(ensemble.mlr, X).argmax(axis=1)
    svm_pred = (X @ ensemble.svm_weights.T + ensemble.svm_bias).argmax(axis=1)
    knn_pred = _knn_predict(ensemble, X)
    preds = np.stack([mlr_pred, svm_pred, knn_pred], axis=1)
    return preds[0] if single else preds
