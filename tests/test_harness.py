from dataclasses import fields

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
)
from ctxnoise import harness
from ctxnoise.cli import main
from ctxnoise.dataset import Dataset, Instance
from ctxnoise.harness import (
    LEARNING_MODES,
    _KEY_TYPES,
    _SYN_KEY_TYPES,
    detection_result_rows,
    learning_result_rows,
    load_config,
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
        dataset = Dataset(instances, n_classes=2, m_attribute_classes=0, class_names=["a", "b"])
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
    rows = []
    train = harness.train_mlr

    def probe(model, features, labels, config=None):
        rows.append(len(features))
        return train(model, features, labels, config)

    monkeypatch.setattr(harness, "train_mlr", probe)
    runner = run_active_learning if mode in LEARNING_MODES else run_pseudo
    log = runner(small_config(mode=mode, replay=replay), seed=0)
    total, expected = rows[0], rows[:1]  # the initial fit on batch 0
    for record in log.records:
        total += record.kept
        if record.kept:
            expected.append(total if replay else record.kept)
    assert rows == expected


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

    def test_parse_fields(self):
        config = parse_config(self.GOOD)
        assert config.synthetic.n_classes == 3
        assert config.synthetic.concentration == 0.8
        assert config.seeds == [0, 1]
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
        )]
        # with dataset = cora every synthetic.* key is ignored, typos included
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

    def test_learning_summary(self):
        logs = [run_active_learning(small_config(mode="sn"), seed=s) for s in (0, 1)]
        summary = summarize_learning(logs)
        assert summary["sn"]["seeds"] == 2
        assert 0.0 <= summary["sn"]["final_accuracy"] <= 1.0
