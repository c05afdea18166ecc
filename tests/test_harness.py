from dataclasses import FrozenInstanceError, fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ctxnoise import (
    ConfigError,
    ExperimentConfig,
    ExperimentLog,
    MlrConfig,
    MlrModel,
    SyntheticConfig,
    parse_config,
    run_active_learning,
    run_detection_suite,
    run_pseudo,
    select_informative,
    summarize_detection,
    summarize_learning,
    train_mlr,
)
from ctxnoise import classifiers, detector, harness
from ctxnoise.cli import main
from ctxnoise.dataset import Dataset, Instance
from ctxnoise.harness import (
    LEARNING_MODES,
    RESULTS_HEADER,
    _KEY_TYPES,
    _SYN_KEY_TYPES,
    detection_result_rows,
    learning_result_rows,
    load_config,
    result_row,
    write_results_csv,
)


def dump_config(config: ExperimentConfig) -> str:
    """Canonical key=value rendering of every config key."""
    lines = [f"dataset = {config.dataset_kind}"]
    if config.synthetic is not None:
        for f in fields(SyntheticConfig):
            lines.append(f"synthetic.{f.name} = {getattr(config.synthetic, f.name)!r}")
    for key in sorted(_KEY_TYPES):
        lines.append(f"{key} = {getattr(config, key)!r}")
    return "\n".join(lines) + "\n"


def key_rows(log: ExperimentLog) -> list[tuple]:
    """Deterministic content (everything except wall-clock timing)."""
    return [
        (r.batch, r.accuracy, r.removed, r.kept, r.er1, r.er2, r.nep, tuple(r.queried))
        for r in log.records
    ]


def small_config(**overrides):
    base = dict(
        dataset_kind="synthetic",
        synthetic=SyntheticConfig(
            n_classes=3,
            n_features=6,
            instances_per_class=80,
            concentration=0.9,
            separation=2.5,
            noise_scale=1.0,
            links_per_instance=4,
            seed=13,
        ),
        n_batches=5,
        query_fraction=0.4,
        omega=0.4,
        seeds=[0],
        mlr_epochs=80,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSelectInformative:
    def fixed_model(self, rows):
        rows = np.asarray(rows, dtype=float)
        return MlrModel(np.log(rows).T, np.zeros(rows.shape[1]), MlrConfig(n_classes=rows.shape[1]))

    def pick(self, model, count, k, strategy, seed):
        """Select from a batch of ``count`` one-hot instances, whose
        predictions are the rows of ``model``'s fixed table."""
        instances = [Instance(id=i, features=np.eye(count)[i], true_label=0) for i in range(count)]
        dataset = Dataset(instances=instances, n_classes=2, m_attribute_classes=0, class_names=["a", "b"])
        return select_informative(model, dataset, list(range(count)), k, strategy, seed)

    def test_entropy_prefers_uncertain(self):
        model = self.fixed_model([[0.5, 0.5], [0.99, 0.01]])
        picked = self.pick(model, 2, 1, "entropy", seed=0)
        assert picked == [0]

    def test_k_equals_batch_selects_all(self):
        model = self.fixed_model(np.full((4, 2), 0.5))
        for strategy in ("entropy", "random"):
            picked = self.pick(model, 4, 4, strategy, seed=1)
            assert sorted(picked) == [0, 1, 2, 3]

    def test_uniform_ties_select_lowest_ids(self):
        model = self.fixed_model(np.full((5, 3), 1 / 3))
        picked = self.pick(model, 5, 3, "entropy", seed=0)
        assert picked == [0, 1, 2]

    def test_random_is_seeded(self):
        model = self.fixed_model(np.full((6, 2), 0.5))
        a = self.pick(model, 6, 3, "random", seed=4)
        b = self.pick(model, 6, 3, "random", seed=4)
        c = self.pick(model, 6, 3, "random", seed=5)
        assert a == b
        assert a != c

    def test_zero_k_rejected(self):
        model = self.fixed_model(np.full((2, 2), 0.5))
        with pytest.raises(ValueError):
            self.pick(model, 2, 0, "entropy", seed=0)


def essentials(log):
    return [(r.batch, r.accuracy, r.removed, r.kept, tuple(r.queried)) for r in log.records]


class TestRunActiveLearning:
    def test_emits_one_record_per_update_batch(self):
        log = run_active_learning(small_config(n_batches=10, mode="sn"), seed=0)
        assert [r.batch for r in log.records] == list(range(1, 10))

    def test_zero_noise_sn_equals_cl(self):
        sn = run_active_learning(small_config(mode="sn", omega=0.0), seed=1)
        cl = run_active_learning(small_config(mode="cl", omega=0.0), seed=1)
        assert essentials(sn) == essentials(cl)

    def test_full_run_determinism(self):
        a = run_active_learning(small_config(mode="cnld"), seed=2)
        b = run_active_learning(small_config(mode="cnld"), seed=2)
        assert key_rows(a) == key_rows(b)

    def test_cl_removes_only_truly_flipped(self):
        config = small_config(mode="cl", omega=0.4)
        dataset_seedless = None
        log = run_active_learning(config, seed=3)
        for record in log.records:
            # whatever was removed counts toward ER1 = 0 (no correct removals)
            assert record.er1 == 0.0 or record.removed == 0

    def test_queried_sequence_identical_across_modes_with_random_selection(self):
        logs = [
            run_active_learning(small_config(mode=mode, selection="random"), seed=4)
            for mode in ("sn", "pb", "cl", "cnld")
        ]
        sequences = [[tuple(r.queried) for r in log.records] for log in logs]
        assert all(seq == sequences[0] for seq in sequences[1:])

    def test_nar_noise_model_runs(self):
        log = run_active_learning(small_config(noise="nar", mode="cnld"), seed=0)
        assert len(log.records) == 4

    def test_replay_flag_runs(self):
        log = run_active_learning(small_config(mode="cnld", replay=True), seed=0)
        assert len(log.records) == 4

    def test_pseudo_mode_rejected(self):
        with pytest.raises(ConfigError):
            run_active_learning(small_config(mode="manual"), seed=0)


class TestRunPseudo:
    def test_manual_equals_cl_with_zero_noise(self):
        manual = run_pseudo(small_config(mode="manual"), seed=5)
        cl = run_active_learning(small_config(mode="cl", omega=0.0), seed=5)
        assert [(r.batch, r.accuracy, tuple(r.queried)) for r in manual.records] == [
            (r.batch, r.accuracy, tuple(r.queried)) for r in cl.records
        ]

    def test_perfect_pseudo_labels_help(self):
        # trivially separable features: pseudo labels are essentially perfect,
        # so adding them can only add correct supervision
        separable = SyntheticConfig(
            n_classes=3,
            n_features=6,
            instances_per_class=80,
            concentration=0.9,
            separation=6.0,
            noise_scale=0.5,
            links_per_instance=3,
            seed=21,
        )
        manual = run_pseudo(small_config(mode="manual", synthetic=separable), seed=0)
        plus = run_pseudo(small_config(mode="manual_pseudo", synthetic=separable), seed=0)
        assert plus.final_accuracy >= manual.final_accuracy - 1e-9

    def test_cnld_filter_mode_runs_and_logs_metrics(self):
        log = run_pseudo(small_config(mode="manual_pseudo_cnld"), seed=1)
        assert len(log.records) == 4
        assert any(r.nep is not None or r.removed == 0 for r in log.records)

    def test_learning_mode_rejected(self):
        with pytest.raises(ConfigError):
            run_pseudo(small_config(mode="cnld"), seed=0)


@pytest.mark.parametrize("mode", ["cnld", "manual", "manual_pseudo_cnld"])
@pytest.mark.parametrize("replay", [False, True])
def test_replay_trains_on_every_accepted_label(mode, replay, monkeypatch):
    # the initial fit is a lock-step member of the run's start; every
    # update after it is a train_mlr call
    rows = []
    train, lockstep = harness.train_mlr, harness.train_mlr_lockstep

    def probe(model, features, labels, config):
        rows.append(len(features))
        return train(model, features, labels, config)

    def lockstep_probe(members):
        rows.extend(len(features) for _, features, _, _ in members)
        return lockstep(members)

    monkeypatch.setattr(harness, "train_mlr", probe)
    monkeypatch.setattr(harness, "train_mlr_lockstep", lockstep_probe)
    runner = run_active_learning if mode in LEARNING_MODES else run_pseudo
    log = runner(small_config(mode=mode, replay=replay), seed=0)
    total, expected = rows[0], rows[:1]  # the initial fit on batch 0
    for record in log.records:
        total += record.kept
        if record.kept:
            expected.append(total if replay else record.kept)
    assert rows == expected


def comparable(log):
    """A log's records without their timings."""
    return [replace(r, elapsed=0.0) for r in log.records]


def start_arrays(start):
    """Every array a run start holds, its models' included."""
    arrays = [start.pool_X, start.pool_y, start.rel.data_counts, start.model.weights, start.model.bias]
    return arrays + ([start.rel.attr_counts] if start.rel.attr_counts is not None else [])


class TestRunStarts:
    @pytest.mark.parametrize(
        "overrides",
        [{"mode": "cnld"}, {"mode": "sn"}, {"mode": "cnld", "noise": "nar"}, {"mode": "manual_pseudo_cnld"}],
        ids=["cnld", "sn", "cnld-nar", "manual_pseudo_cnld"],
    )
    def test_shared_start_reproduces_the_run(self, overrides):
        # starts built from another mode, omega and beta, with both seeds'
        # initial classifiers in one lock-step call
        config = small_config(**overrides)
        dataset = harness.load_experiment_dataset(config)
        with mock.patch.object(harness, "train_mlr_lockstep", wraps=classifiers.train_mlr_lockstep) as spy:
            starts = harness.run_starts(replace(config, mode="pb", omega=0.1, beta=0.5), dataset, [0, 1])
        assert [len(call.args[0]) for call in spy.call_args_list] == [2]
        runner = run_active_learning if config.mode in LEARNING_MODES else run_pseudo
        for seed, start in starts.items():
            before = [a.copy() for a in start_arrays(start)]
            shared = runner(config, seed, start=start)
            assert comparable(shared) == comparable(runner(config, seed))
            for array, copy in zip(start_arrays(start), before):
                assert np.array_equal(array, copy) and not array.flags.writeable

    def test_start_of_another_seed_rejected(self):
        config = small_config()
        start = harness.run_starts(config, harness.load_experiment_dataset(config), [0])[0]
        with pytest.raises(ValueError, match="built for seed 0, not seed 1"):
            run_active_learning(config, 1, start=start)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_batches": 4},
            {"test_fraction": 0.25},
            {"cora_fold": 1},
            {"epsilon": 1e-3},
            {"mlr_epochs": 40},
            {"mlr_learning_rate": 0.05},
            {"mlr_batch_size": None},
            {"selection": "random"},
            {"seeds": [0, 1]},
        ],
        ids=lambda overrides: next(iter(overrides)),
    )
    def test_start_of_another_config_rejected(self, overrides):
        config = small_config()
        start = harness.run_starts(config, harness.load_experiment_dataset(config), [0])[0]
        (key,) = overrides
        with pytest.raises(ValueError, match=f"config with other {key}$"):
            run_active_learning(replace(config, **overrides), 0, start=start)

    @pytest.mark.parametrize("runner", [run_active_learning, run_pseudo])
    def test_dataset_argument_rejected(self, runner):
        # a run used to take a dataset beside its start; the start holds it
        config = small_config()
        dataset = harness.load_experiment_dataset(config)
        start = harness.run_starts(config, dataset, [0])[0]
        with pytest.raises(TypeError):
            runner(config, 0, dataset, start)
        with pytest.raises(TypeError):
            runner(config, 0, dataset=dataset)

    def test_start_keeps_the_callers_frozen_config(self):
        # a start used to deep-copy its config, which the caller could
        # change after the start was built
        seeds = [0, 1]
        config = small_config(seeds=seeds)
        seeds.append(2)
        assert config.seeds == (0, 1)
        with pytest.raises(FrozenInstanceError):
            config.seeds = (0,)
        with pytest.raises(FrozenInstanceError):
            config.synthetic.seed = 1
        starts = harness.run_starts(config, harness.load_experiment_dataset(config), config.seeds)
        assert all(start.config is config for start in starts.values())


class TestBatchCache:
    # every mode at two noise levels, and the pseudo-labeling modes
    RUNS = [
        {"mode": mode, "omega": omega, "beta": beta}
        for omega in (0.2, 0.4)
        for mode, beta in (("sn", 0.8), ("cnld", 0.8), ("cnld", 0.9), ("pb", 0.8), ("cl", 0.8))
    ] + [
        {"mode": mode, "beta": beta}
        for mode, beta in (("manual", 0.8), ("manual_pseudo", 0.8), ("manual_pseudo_cnld", 0.8), ("manual_pseudo_cnld", 0.9))
    ]

    @pytest.mark.parametrize("shared", [{}, {"noise": "nar"}, {"replay": True}], ids=["ncar", "nar", "replay"])
    def test_warm_start_reproduces_every_run(self, shared):
        # the runs of each seed share one start, and so its cache of batch
        # steps; each must equal the same run from a fresh start
        config = small_config(**shared)
        dataset = harness.load_experiment_dataset(config)
        starts = harness.run_starts(config, dataset, [0, 1])
        with (
            mock.patch.object(harness, "train_mlr", wraps=classifiers.train_mlr) as train,
            mock.patch.object(harness, "star_divergences", wraps=detector.star_divergences) as stars,
        ):
            warm = [
                (overrides, seed, self.runner(overrides)(replace(config, **overrides), seed, start=start))
                for seed, start in starts.items()
                for overrides in self.RUNS
            ]
        # the runs did take each other's steps
        updates = sum(r.kept > 0 for _, _, log in warm for r in log.records)
        filtered = sum(len(log.records) for overrides, _, log in warm if overrides["mode"] in harness.FILTERED_MODES)
        assert 0 < train.call_count < updates
        assert 0 < stars.call_count < filtered
        for overrides, seed, log in warm:
            fresh = self.runner(overrides)(replace(config, **overrides), seed)
            assert comparable(log) == comparable(fresh), (overrides, seed)

    @staticmethod
    def runner(overrides):
        return run_active_learning if overrides["mode"] in LEARNING_MODES else run_pseudo


class TestRunDetectionSuite:
    def test_bookkeeping_identities_and_shape(self):
        config = small_config(omegas=[0.1, 0.3], seeds=[0, 1])
        rows = run_detection_suite(config)
        assert len(rows) == 2 * 2 * 4  # omegas x seeds x methods
        for row in rows:
            m = row.metrics
            assert m.correct_removed + m.mislabeled_removed == m.removed
            assert m.mislabeled_removed + m.mislabeled_kept == m.mislabeled_total
            if m.nep is not None:
                assert m.nep * m.removed == pytest.approx(m.mislabeled_removed)
            if m.er1 is not None:
                assert m.er1 * m.correct_total == pytest.approx(m.correct_removed)

    def test_removal_budget_is_injected_fraction(self):
        config = small_config(omegas=[0.2], seeds=[0])
        rows = run_detection_suite(config)
        test_size = round(0.3 * 3 * 80)
        for row in rows:
            assert row.metrics.removed == round(0.2 * test_size)

    def test_near_oracle_regime(self):
        # strong context and saturated class evidence: flipped labels are
        # contextually impossible, detection is nearly perfect at low noise
        config = small_config(
            synthetic=SyntheticConfig(
                n_classes=3,
                n_features=8,
                instances_per_class=200,
                concentration=0.95,
                separation=5.0,
                noise_scale=0.8,
                links_per_instance=8,
                seed=17,
            ),
            omegas=[0.1],
            seeds=[0, 1],
            n_batches=2,
        )
        rows = run_detection_suite(config)
        for row in (r for r in rows if r.method == "cnld"):
            assert row.metrics.nep >= 0.9
            assert row.auc > 0.95

    def test_stars_are_scored_once_per_seed(self):
        # the star divergences do not read the injected labels, so every
        # noise level of a seed hinges against the same table
        config = small_config(omegas=[0.1, 0.2, 0.3], seeds=[0, 1])
        with mock.patch.object(harness, "star_divergences", wraps=detector.star_divergences) as spy:
            rows = run_detection_suite(config)
        assert spy.call_count == len(config.seeds)
        assert len(rows) == 3 * 2 * 4

    @pytest.mark.parametrize("mlr_epochs, calls", [(200, [4]), (80, [2, 2])])
    def test_models_train_in_lock_step(self, mlr_epochs, calls):
        # every seed's main model and aux logistic member share one stacked
        # loop, unless the mlr_* keys give the main models other steps than
        # the MlrConfig defaults of the aux members (the chunks past
        # LOCKSTEP_BYTES are tested in test_classifiers.py)
        config = small_config(omegas=[0.2], seeds=[0, 1], mlr_epochs=mlr_epochs)
        with mock.patch.object(classifiers, "_train_stacked", wraps=classifiers._train_stacked) as spy:
            rows = run_detection_suite(config)
        assert [len(call.args[0]) for call in spy.call_args_list] == calls
        with mock.patch.object(harness, "train_mlr_lockstep", lambda members: [train_mlr(*m) for m in members]):
            assert run_detection_suite(config) == rows

    def test_aux_ensembles_train_in_one_call(self):
        # every seed's ensemble trains in one train_aux call, and gives the
        # rows that one call per seed gives
        config = small_config(omegas=[0.2], seeds=[0, 1, 2])
        with mock.patch.object(harness, "train_aux", wraps=classifiers.train_aux) as spy:
            rows = run_detection_suite(config)
        assert [len(call.args[0]) for call in spy.call_args_list] == [3]

        def one_per_seed(members, knn_k, normalize):
            return [classifiers.train_aux([member], knn_k, normalize)[0] for member in members]

        with mock.patch.object(harness, "train_aux", one_per_seed):
            assert run_detection_suite(config) == rows

    @pytest.mark.parametrize("n_batches, knn_k, used", [(42, 5, 3), (33, 7, 5), (5, 5, 5)])
    def test_knn_k_clipped_to_the_initial_pool(self, n_batches, knn_k, used):
        # 168 train ids give initial pools of 4, 5 and 33; k is clipped to
        # the pool, then made odd by taking one off
        config = small_config(omegas=[0.2], n_batches=n_batches, knn_k=knn_k)
        with mock.patch.object(harness, "train_aux", wraps=classifiers.train_aux) as spy:
            run_detection_suite(config)
        assert [call.args[1] for call in spy.call_args_list] == [used]

    def test_nar_suite(self):
        config = small_config(noise="nar", seeds=[0])
        rows = run_detection_suite(config)
        assert len(rows) == 4
        assert all(abs(r.omega - rows[0].omega) < 1e-12 for r in rows)

    def test_summaries(self):
        config = small_config(omegas=[0.1], seeds=[0, 1])
        rows = run_detection_suite(config)
        summary = summarize_detection(rows)
        assert "cnld@omega=0.1" in summary
        assert summary["cnld@omega=0.1"]["seeds"] == 2


class TestConfigFiles:
    GOOD = """
# comment line
dataset = synthetic
synthetic.n_classes = 3
synthetic.n_features = 6
synthetic.instances_per_class = 40
synthetic.concentration = 0.8
synthetic.seed = 9
n_batches = 4
query_fraction = 0.5
selection = random
mode = cnld
noise = ncar
omega = 0.3
beta = 0.85
seeds = 0, 1
mlr_epochs = 50
mlr_batch_size = none
"""
    CORA = """
dataset = cora
cora_content = missing.content
cora_cites = missing.cites
seeds = 0
"""

    @pytest.mark.parametrize(
        "key, value",
        [
            ("omega", 1.5),
            ("seeds", []),
            ("betas", [0.8, 1.0]),
            ("mode", "bogus"),
            ("mlr_epochs", 0),
            # a repeated value used to repeat runs or sweep rows
            ("seeds", [3, 3]),
            ("omegas", [0.2, 0.4, 0.2]),
            ("betas", [0.8, 0.80]),
            # values that print alike used to share a result label, and the
            # later summary entry overwrote the earlier
            ("omegas", [0.2, 0.2000001]),
            ("betas", [0.8, 0.85, 0.80000001]),
            # an even k used to run as a (k - 1)-NN member
            ("knn_k", 4),
        ],
    )
    def test_invalid_config_cannot_be_built(self, key, value):
        # only a run used to check a config built in Python, so an invalid
        # one could exist; construction and replace now check it
        with pytest.raises(ConfigError, match=f"^{key} ") as caught:
            small_config(**{key: value})
        assert caught.value.key == key
        with pytest.raises(ConfigError, match=f"^{key} "):
            replace(small_config(), **{key: value})

    @pytest.mark.parametrize(
        "key, value, message",
        [
            # a non-empty string is true, so this one used to run with replay on
            ("replay", "no", "replay must be bool, got 'no'"),
            # a synthetic run reads no fold, so this one used to be accepted
            ("cora_fold", 0.5, "cora_fold must be int, got 0.5"),
            # these used to fail with a bare TypeError far from the key, the
            # kNN's "Partition index must be integer" among them
            ("knn_k", 3.0, "knn_k must be int, got 3.0"),
            ("n_batches", 4.0, "n_batches must be int, got 4.0"),
            ("seeds", (0.0,), "seeds must be tuple[int, ...], got (0.0,)"),
            ("omegas", 0.2, "omegas must be tuple[float, ...], got 0.2"),
        ],
    )
    def test_value_of_the_wrong_type_names_its_key(self, key, value, message):
        for build in (lambda: small_config(**{key: value}), lambda: replace(small_config(), **{key: value})):
            with pytest.raises(ConfigError) as caught:
                build()
            assert (str(caught.value), caught.value.key) == (message, key)

    def test_synthetic_value_of_the_wrong_type_names_its_key(self):
        # it used to fail with a bare TypeError inside the generator
        with pytest.raises(ConfigError) as caught:
            SyntheticConfig(n_classes=3.0, n_features=4, instances_per_class=10)
        assert (str(caught.value), caught.value.key) == ("synthetic.n_classes must be int, got 3.0", "synthetic.n_classes")

    def test_values_of_the_annotated_kinds_are_accepted(self):
        config = small_config(
            replay=np.bool_(True), knn_k=np.int64(3), omega=0, seeds=[np.int64(2)], omegas=[np.float64(0.1), 1],
            mlr_batch_size=None,
        )
        assert config.replay and config.knn_k == 3 and config.seeds == (2,) and config.mlr_batch_size is None
        with pytest.raises(ConfigError, match="^omega must be float, got True$"):
            small_config(omega=True)

    def test_key_tables_follow_the_config_fields(self):
        assert set(_KEY_TYPES) == {
            "cora_content", "cora_cites", "n_batches", "query_fraction", "selection", "mode", "noise", "omega",
            "beta", "seeds", "test_fraction", "cora_fold", "replay", "omegas", "betas", "mlr_learning_rate",
            "mlr_l2", "mlr_epochs", "mlr_batch_size", "knn_k", "epsilon",
        }
        assert set(_SYN_KEY_TYPES) == {
            "n_classes", "n_features", "instances_per_class", "m_attribute_classes", "concentration",
            "separation", "noise_scale", "links_per_instance", "attributes_per_instance", "seed",
        }
        assert _KEY_TYPES["mlr_batch_size"]("none") is None
        assert _KEY_TYPES["mlr_batch_size"]("16") == 16
        assert _KEY_TYPES["replay"]("YES") is True
        assert _KEY_TYPES["seeds"]("0, 1") == [0, 1]
        assert _KEY_TYPES["omegas"]("0.1 0.2") == [0.1, 0.2]
        assert _KEY_TYPES["cora_content"]("a.content") == "a.content"
        assert _SYN_KEY_TYPES["concentration"]("0.5") == 0.5
        for key, value in (("n_batches", "2.5"), ("replay", "ture"), ("seeds", "0, x")):
            with pytest.raises((KeyError, ValueError)):
                _KEY_TYPES[key](value)

    def test_parse_fields(self):
        config = parse_config(self.GOOD)
        assert config.synthetic.n_classes == 3
        assert config.synthetic.concentration == 0.8
        assert config.seeds == (0, 1)
        assert config.mlr_batch_size is None
        assert config.selection == "random"

    def test_dump_is_stable_and_distinguishes_configs(self):
        a = parse_config(self.GOOD)
        b = parse_config(self.GOOD)
        assert dump_config(a) == dump_config(b)
        c = parse_config(self.GOOD.replace("omega = 0.3", "omega = 0.4"))
        assert dump_config(a) != dump_config(c)

    def test_missing_key_is_named(self):
        with pytest.raises(ConfigError, match="dataset"):
            parse_config("n_batches = 4")
        with pytest.raises(ConfigError, match="synthetic.n_classes"):
            parse_config("dataset = synthetic")
        with pytest.raises(ConfigError, match="cora_content"):
            parse_config("dataset = cora")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="typo_key"):
            parse_config(self.GOOD + "\ntypo_key = 1")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(self.GOOD + "\nomega = 0.5")

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(self.GOOD.replace("omega = 0.3", "omega = 1.5"))
        with pytest.raises(ConfigError):
            parse_config(self.GOOD.replace("mode = cnld", "mode = nonsense"))

    @pytest.mark.parametrize(
        "base, bad_line",
        [pytest.param("GOOD", line, id=line) for line in (
            "replay = ture",
            "replay = ",
            "mlr_epochs = -5",
            "mlr_epochs = 0",
            "mlr_learning_rate = -1",
            "mlr_learning_rate = nan",
            "mlr_l2 = inf",
            "mlr_batch_size = 0",
            "epsilon = nan",
            "epsilon = 0",
            "knn_k = abc",
            "knn_k = 0",
            "omega = nan",
            "n_batches = 2.5",
            "seeds = 0, x",
            "omegas = 0.1, high",
            "omegas = ",
            "omegas = 0.1, 1.5",
            "betas = 1.0",
            "synthetic.seed = 1.5",
            "synthetic.separation = wide",
            "synthetic.n_classes = 1",
            "synthetic.separation = nan",
            "synthetic.separation = -1",
            "synthetic.noise_scale = inf",
            "synthetic.concentration = nan",
            "synthetic.instances_per_class = 0",
            "synthetic.links_per_instance = -1",
            "synthetic.seed = -1",
            "seeds = 0, -2",
            "seeds = 1, 1",
            "omegas = 0.2, 0.2",
            "betas = 0.8, 0.9, 0.80",
            "omegas = 0.2, 0.2000001",
            "betas = 0.9, 0.9000000001",
        )]
        # with dataset = cora a synthetic.* key does not apply, typo or not
        + [pytest.param("CORA", line, id=f"cora: {line}") for line in (
            "synthetic.n_clases = 3",
            "synthetic.n_classes = 3",
        )],
    )
    def test_bad_line_names_source_and_line(self, base, bad_line, tmp_path, capsys):
        key = bad_line.split("=")[0].strip()
        kept = [line for line in getattr(self, base).splitlines() if line.split("=")[0].strip() != key]
        text = "\n".join(kept + [bad_line]) + "\n"
        lineno = len(kept) + 1
        with pytest.raises(ConfigError, match=f"^<config>:{lineno}: "):
            parse_config(text)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main(["detect", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{lineno}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("spelling", ["true", "True", "YES", "1", "false", "no", "0"])
    def test_boolean_spellings(self, spelling):
        config = parse_config(self.GOOD + f"replay = {spelling}\n")
        assert config.replay is (spelling.lower() in ("true", "yes", "1"))

    FUZZ_KEYS = (
        ["dataset", "typo_key", "synthetic.typo", "synthetic.", "synthetic", ""]
        + sorted(_KEY_TYPES)
        + [f"synthetic.{key}" for key in sorted(_SYN_KEY_TYPES)]
    )
    FUZZ_VALUES = [
        "synthetic", "cora", "", "0", "1", "-1", "2", "3", "0.5", "1.5", "-0.0", "nan", "inf", "-inf",
        "1e309", "abc", "true", "ture", "none", "0, 1", "0, -2", "0.1, 0.9", "1 2 x", "ncar", "nar",
        "cnld", "entropy", "random", "=", "4 = 5", "0x10", "1_000", "\u0663",
    ]

    @given(
        lines=st.lists(
            st.one_of(
                st.tuples(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES)).map(" = ".join),
                st.sampled_from(["", "# comment", "no equals sign", "   "]),
            ),
            max_size=12,
        ),
        base=st.sampled_from([None, "GOOD", "CORA"]),
    )
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fuzzed_config_raises_config_error_only(self, lines, base, tmp_path, capsys):
        # on a valid base, the drawn lines replace the base lines of their keys
        drawn = {line.split("=")[0].strip() for line in lines}
        base_lines = getattr(self, base).splitlines() if base else []
        kept = [line for line in base_lines if line.split("=")[0].strip() not in drawn]
        text = "\n".join(kept + lines) + "\n"
        try:
            parse_config(text)
        except ConfigError:
            pass
        else:
            return  # an accepted config would run a whole experiment
        path = tmp_path / "fuzz.cfg"
        path.write_text(text, encoding="utf-8")
        assert main(["detect", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_load_config(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(self.GOOD)
        assert load_config(path) == parse_config(self.GOOD)


class TestResultFiles:
    def test_csv_schema_and_determinism(self, tmp_path):
        log = run_active_learning(small_config(mode="cnld"), seed=0)
        rows = learning_result_rows(log)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(a, rows)
        write_results_csv(b, rows)
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "run_id,seed,mode,omega,batch,accuracy,er1,er2,nep,removed,kept"
        assert len(lines) == 1 + len(log.records)

    def test_detection_rows_schema(self):
        config = small_config(omegas=[0.1], seeds=[0])
        rows = detection_result_rows(run_detection_suite(config))
        assert all(set(r) == {
            "run_id", "seed", "mode", "omega", "batch", "accuracy",
            "er1", "er2", "nep", "removed", "kept",
        } for r in rows)

    def test_result_row_fills_every_column_and_rejects_an_unknown_one(self):
        assert result_row(seed=3, kept=0) == {**dict.fromkeys(RESULTS_HEADER), "seed": 3, "kept": 0}
        with pytest.raises(ValueError, match="acuracy"):
            result_row(seed=3, acuracy=0.5)

    def test_learning_summary(self):
        logs = [run_active_learning(small_config(mode="sn"), seed=s) for s in (0, 1)]
        summary = summarize_learning(logs)
        assert summary["sn"]["seeds"] == 2
        assert 0.0 <= summary["sn"]["final_accuracy"] <= 1.0
