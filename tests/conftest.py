import numpy as np
import pytest

from ctxnoise import MlrConfig, SyntheticConfig, generate_synthetic, train_mlr


@pytest.fixture(scope="session")
def small_synthetic():
    """Well-separated 4-class linked dataset shared across test modules."""
    config = SyntheticConfig(
        n_classes=4,
        n_features=8,
        instances_per_class=100,
        concentration=0.9,
        separation=2.0,
        noise_scale=1.0,
        links_per_instance=4,
        seed=7,
    )
    return generate_synthetic(config)


@pytest.fixture(scope="session")
def trained_setup(small_synthetic):
    """(dataset, pool ids, eval ids, classifier) trained on a class-mixed pool."""
    dataset, _ = small_synthetic
    rng = np.random.default_rng(0)
    perm = rng.permutation(dataset.ids.tolist())
    pool, rest = [int(i) for i in perm[:200]], [int(i) for i in perm[200:]]
    model = train_mlr(
        None,
        dataset.feature_matrix(pool),
        dataset.true_labels(pool),
        MlrConfig(n_classes=dataset.n_classes, seed=0),
    )
    return dataset, pool, rest, model
