"""Edge paths: empty kept sets, forced removals, saturated classifiers,
malformed files, concurrency."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ctxnoise import (
    CoraFormatError,
    ExperimentConfig,
    MlrConfig,
    MlrModel,
    SyntheticConfig,
    build_relationship,
    cnld_detect,
    detect_topk,
    generate_synthetic,
    inject_ncar,
    load_cora,
    load_synthetic,
    predict_proba,
    run_active_learning,
    select_informative,
    star_divergences,
    train_mlr,
)

from test_relationship import linked_dataset


def test_batch_with_everything_removed_skips_update():
    # one queried instance per batch: any positive score is its own batch max,
    # so the weight is 0 and the whole batch is dropped; the run must continue
    config = ExperimentConfig(
        dataset_kind="synthetic",
        synthetic=SyntheticConfig(
            n_classes=3,
            n_features=6,
            instances_per_class=40,
            concentration=0.9,
            separation=2.0,
            noise_scale=1.0,
            links_per_instance=4,
            seed=3,
        ),
        n_batches=5,
        query_fraction=0.01,  # k = max(1, ...) = 1
        mode="cnld",
        omega=0.5,
        beta=0.85,
        seeds=[0],
        mlr_epochs=40,
    )
    log = run_active_learning(config, seed=0)
    assert len(log.records) == 4
    assert any(r.kept == 0 and r.removed == 1 for r in log.records)


def test_detect_topk_can_be_forced_to_remove_unfilterable():
    ds = linked_dataset(labels=(0, 1, 2), links=((0, 1),))  # instance 2 isolated
    rel = build_relationship(ds, {0: 0, 1: 1, 2: 2})
    model = MlrModel(np.zeros((3, 1)), np.zeros(3), MlrConfig(n_classes=3))
    table = star_divergences([0, 1, 2], ds, model, rel)
    removed, _ = detect_topk([0, 1, 2], [0, 1, 2], table, removal_count=3)
    assert removed.all()
    assert table.has_context.tolist() == [True, True, False]


def saturated_setup():
    """Single-link graph and a classifier scaled until softmax underflows to
    exact zeros; 24 of the 60 batch labels are flipped."""
    dataset = generate_synthetic(
        SyntheticConfig(n_classes=3, n_features=6, instances_per_class=80, links_per_instance=1, seed=5)
    )
    ids = [int(i) for i in np.random.default_rng(0).permutation(dataset.ids.tolist())]
    pool, batch = ids[:120], sorted(ids[120:180])
    model = train_mlr(None, dataset.feature_matrix(pool), dataset.true_labels(pool), MlrConfig(n_classes=3, seed=0))
    model = MlrModel(model.weights * 1e4, model.bias * 1e4, model.config)
    rel = build_relationship(dataset, dict(zip(pool, dataset.true_labels(pool).tolist())))
    return dataset, batch, model, rel


def test_saturated_classifier_still_detects_flips():
    # 0 * log 0 used to give NaN scores, which were read as 0: nothing removed
    dataset, batch, model, rel = saturated_setup()
    assert (predict_proba(model, dataset.feature_matrix(batch)) == 0).any()
    plan = inject_ncar(dataset.true_labels(batch), 3, 0.4, seed=1)
    assert plan.flipped.sum() == 24
    removed, scores = cnld_detect(batch, plan.assigned, star_divergences(batch, dataset, model, rel), beta=0.85)
    assert np.isfinite(scores).all()
    assert (removed & plan.flipped).sum() > removed.sum() / 2 > 0


def test_saturated_classifier_entropy_selection():
    # NaN entropies used to make the selection fall back to id order, which
    # picks a one-hot prediction here
    dataset, batch, model, _ = saturated_setup()
    assert np.count_nonzero(predict_proba(model, dataset.feature_matrix(batch[:1]))) == 1
    picked = select_informative(model, dataset, batch, 1, "entropy", seed=0)
    assert np.count_nonzero(predict_proba(model, dataset.feature_matrix(picked[:1]))) > 1


def test_duplicate_cora_id_rejected(tmp_path):
    content = tmp_path / "x.content"
    cites = tmp_path / "x.cites"
    content.write_text("1\t1\t0\tA\n1\t0\t1\tB\n")
    cites.write_text("")
    with pytest.raises(CoraFormatError, match="duplicate"):
        load_cora(content, cites)


def test_load_synthetic_malformed(tmp_path):
    bad_header = tmp_path / "a.txt"
    bad_header.write_text("3 0 2\n")
    with pytest.raises(ValueError, match="header"):
        load_synthetic(bad_header)

    wrong_count = tmp_path / "b.txt"
    wrong_count.write_text("2 0 1 5 0\n0 0 1.0 | |\n1 1 2.0 | |\n")
    with pytest.raises(ValueError, match="promises"):
        load_synthetic(wrong_count)

    wrong_width = tmp_path / "c.txt"
    wrong_width.write_text("2 0 2 1 0\n0 0 1.0 | |\n")
    with pytest.raises(ValueError, match="features"):
        load_synthetic(wrong_width)


def test_parallel_scoring_matches_sequential(trained_setup):
    # shared immutable models: concurrent per-instance scoring must reproduce
    # the sequential batch exactly
    dataset, pool, rest, model = trained_setup
    rel = build_relationship(dataset, dict(zip(pool, dataset.true_labels(pool).tolist())))
    queried = rest[:40]
    plan = inject_ncar(dataset.true_labels(queried), 4, 0.4, seed=9)
    _, sequential = cnld_detect(queried, plan.assigned, star_divergences(queried, dataset, model, rel))

    def score_one(pair):
        qid, assigned = pair
        return cnld_detect([qid], [assigned], star_divergences([qid], dataset, model, rel))[1][0]

    with ThreadPoolExecutor(max_workers=8) as pool_exec:
        parallel = list(pool_exec.map(score_one, zip(queried, plan.assigned)))
    assert np.array_equal(sequential, np.array(parallel))


def test_epsilon_config_key():
    from ctxnoise import parse_config

    config = parse_config(
        "dataset = synthetic\n"
        "synthetic.n_classes = 3\n"
        "synthetic.n_features = 4\n"
        "synthetic.instances_per_class = 30\n"
        "epsilon = 0.5\n"
    )
    assert config.epsilon == 0.5
    with pytest.raises(ValueError):
        parse_config(
            "dataset = synthetic\n"
            "synthetic.n_classes = 3\n"
            "synthetic.n_features = 4\n"
            "synthetic.instances_per_class = 30\n"
            "epsilon = 0\n"
        )
