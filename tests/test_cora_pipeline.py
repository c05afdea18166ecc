"""End-to-end runs over CORA-format files (synthetic stand-in corpus)."""

from dataclasses import replace

import numpy as np
import pytest

from ctxnoise import (
    ConfigError,
    Dataset,
    ExperimentConfig,
    SyntheticConfig,
    generate_synthetic,
    load_cora,
    run_active_learning,
    run_detection_suite,
    save_cora,
)
from ctxnoise.harness import split_train_test


def binary_citation_dataset(seed=0, n=3, per=100, d=18):
    """Citation-style corpus: binary word features with per-class signature
    blocks, link topology borrowed from the synthetic generator."""
    topo = generate_synthetic(
        SyntheticConfig(
            n_classes=n,
            n_features=2,
            instances_per_class=per,
            concentration=0.9,
            links_per_instance=6,
            seed=seed,
        )
    )
    rng = np.random.default_rng(seed + 1)
    block = d // n
    probs = np.full((n, d), 0.08)
    for c in range(n):
        probs[c, c * block : (c + 1) * block] = 0.6
    features = (rng.random((len(topo), d)) < probs[topo.labels]).astype(float)
    return Dataset(
        ids=topo.ids + 1000,  # CORA-style arbitrary ids
        labels=topo.labels,
        features=features,
        links=topo.links,
        n_classes=n,
        m_attribute_classes=0,
        class_names=[f"topic_{c}" for c in range(n)],
    )


@pytest.fixture(scope="module")
def cora_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cora_like")
    dataset = binary_citation_dataset()
    content, cites = tmp / "corpus.content", tmp / "corpus.cites"
    save_cora(dataset, content, cites)
    return content, cites, dataset


def cora_config(content, cites, **overrides):
    base = dict(
        dataset_kind="cora",
        cora_content=str(content),
        cora_cites=str(cites),
        n_batches=3,
        noise="ncar",
        omega=0.3,
        omegas=[0.3],
        seeds=[0],
        mlr_epochs=80,
        epsilon=1.0,  # Laplace-scale smoothing: the labeled pool yields few links
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_loaded_corpus_matches_source(cora_files):
    content, cites, dataset = cora_files
    assert load_cora(content, cites) == dataset


def test_fold_splits_partition_and_differ(cora_files):
    content, cites, dataset = cora_files
    config = cora_config(content, cites)
    tests = []
    for fold in range(10):
        train, test = split_train_test(load_cora(content, cites), replace(config, cora_fold=fold), seed=0)
        assert sorted(train + test) == sorted(dataset.ids.tolist())
        tests.append(tuple(sorted(test)))
    assert len(set(tests)) == 10
    assert sum(len(t) for t in tests) == len(dataset)


def test_empty_fold_names_its_key(cora_files):
    # nine instances in ten folds leave the last fold empty
    content, cites, _ = cora_files
    config = cora_config(content, cites, cora_fold=9)
    tiny = generate_synthetic(SyntheticConfig(n_classes=3, n_features=2, instances_per_class=3, seed=0))
    with pytest.raises(ConfigError) as caught:
        split_train_test(tiny, config, seed=0)
    assert str(caught.value) == "cora_fold leaves the test split empty: 9 train ids, 0 test ids"
    assert caught.value.key == "cora_fold"


def test_short_train_fold_names_its_key(cora_files):
    # of nine instances in ten folds, fold 0 leaves eight train ids, too few for nine batches
    content, cites, _ = cora_files
    config = cora_config(content, cites, n_batches=9)
    tiny = generate_synthetic(SyntheticConfig(n_classes=3, n_features=2, instances_per_class=3, seed=0))
    with pytest.raises(ConfigError) as caught:
        split_train_test(tiny, config, seed=0)
    assert str(caught.value) == "cora_fold leaves fewer train ids than n_batches = 9: 8 train ids, 1 test ids"
    assert caught.value.key == "cora_fold"


def test_detection_suite_on_citation_corpus(cora_files):
    content, cites, _ = cora_files
    rows = run_detection_suite(cora_config(content, cites))
    assert {r.method for r in rows} == {"cnld", "probabilistic", "consensus", "majority"}
    cnld = next(r for r in rows if r.method == "cnld")
    # signature features + homophilic citations carry real signal
    assert cnld.metrics.nep > 0.6
    assert cnld.auc > 0.8


def test_active_learning_on_citation_corpus(cora_files):
    content, cites, _ = cora_files
    log = run_active_learning(cora_config(content, cites, mode="cnld"), seed=0)
    assert len(log.records) == 2
    assert log.final_accuracy > 1.0 / 3.0  # above chance on 3 topics
