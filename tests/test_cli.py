import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from ctxnoise import Dataset, SyntheticConfig, classifiers, cli, detector, generate_synthetic, harness, load_config, noise, save_cora
from ctxnoise.cli import main

from test_harness import start_arrays

TINY = """
dataset = synthetic
synthetic.n_classes = 3
synthetic.n_features = 6
synthetic.instances_per_class = 70
synthetic.concentration = 0.9
synthetic.separation = 2.5
synthetic.seed = 5
n_batches = 4
noise = ncar
omega = 0.4
omegas = 0.2, 0.4
betas = 0.8, 0.9
seeds = 0
mode = cnld
mlr_epochs = 60
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return path


def tiny_detect_with(tmp_path, extra="", **replace):
    """configs/tiny_detect.cfg with ``extra`` lines appended and each
    ``old=new`` text replaced; returns its path and its text."""
    text = (Path(__file__).parent.parent / "configs" / "tiny_detect.cfg").read_text()
    for old, new in replace.items():
        text = text.replace(old, new)
    config = tmp_path / "tiny.cfg"
    config.write_text(text + extra)
    return config, text + extra


def line_of(text, key):
    """The line number at which a config text sets ``key``."""
    return next(n for n, line in enumerate(text.splitlines(), start=1) if line.split("=")[0].strip() == key)


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_is_usage_error(tiny_config):
    assert main(["detect", "--config", str(tiny_config), "--bogus"]) == 2


def test_missing_config_file_is_runtime_error(tmp_path, capsys):
    assert main(["detect", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_config_key_names_it(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("dataset = synthetic\n")
    assert main(["detect", "--config", str(bad), "--out", str(tmp_path)]) == 1
    assert "synthetic.n_classes" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-2", ",", ""])
def test_negative_seed_override_rejected(tmp_path, tiny_config, capsys, value):
    # it used to fail deep inside numpy ("error: expected non-negative
    # integer"), then named the config key instead of the flag
    assert main(["detect", "--config", str(tiny_config), "--out", str(tmp_path), f"--seeds={value}"]) == 1
    assert capsys.readouterr().err == f"error: --seeds expects comma-separated non-negative integers, got {value!r}\n"


@pytest.mark.parametrize("value", ["x", "1.5"])
def test_malformed_seed_override_names_the_flag(tmp_path, tiny_config, capsys, value):
    # it used to print "error: invalid literal for int() with base 10: 'x'"
    assert main(["detect", "--config", str(tiny_config), "--out", str(tmp_path), f"--seeds={value}"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --seeds expects comma-separated non-negative integers, got {value!r}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["0,0", "1, 2, 1"])
def test_repeated_seed_override_rejected(tmp_path, tiny_config, capsys, value):
    # a repeated seed used to run twice, writing every row twice and a
    # summary over the copies
    out = tmp_path / "out"
    assert main(["active-learn", "--config", str(tiny_config), "--out", str(out), f"--seeds={value}"]) == 1
    assert capsys.readouterr().err == f"error: --seeds expects distinct seeds, got {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["detect", "active-learn"])
def test_empty_test_split_names_its_key(tmp_path, command, capsys):
    # it used to fail later, as "error: empty query set" (detect) or
    # "error: empty test set" (active-learn), naming no key; then named the
    # key but not the line that sets it
    config, text = tiny_detect_with(tmp_path, "test_fraction = 0.001\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    where = f"{config}:{line_of(text, 'test_fraction')}"
    assert capsys.readouterr().err == f"error: {where}: test_fraction leaves the test split empty: 210 train ids, 0 test ids\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["detect", "active-learn"])
def test_short_train_split_names_its_key(tmp_path, command, capsys):
    # it used to fail later, as "error: more batches than instances",
    # naming neither the key nor the split sizes
    config, text = tiny_detect_with(tmp_path, "test_fraction = 0.999\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    where = f"{config}:{line_of(text, 'test_fraction')}"
    assert err == f"error: {where}: test_fraction leaves fewer train ids than n_batches = 4: 0 train ids, 210 test ids\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["detect", "active-learn"])
def test_diverging_training_fails_loudly(tmp_path, command, capsys):
    # active-learn used to print numpy RuntimeWarnings and exit 0, with an
    # accuracy of 0.3968 at every batch; detect failed as a non-finite
    # dissimilarity, far from the cause.  Then both named only "member 0"
    # of a lock-step call, and no line of the config
    config, text = tiny_detect_with(tmp_path, "mode = sn\nmlr_learning_rate = 1e30\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    where = f"{config}:{line_of(text, 'mlr_learning_rate')}"
    model = "the main model of seed 0" if command == "detect" else "the initial model of seed 0"
    expected = f"error: {where}: {model} trained to non-finite weights, bias or class scores at mlr_learning_rate 1e+30\n"
    assert capsys.readouterr().err == expected
    assert not out.exists()


def test_diverging_update_named_by_seed_and_batch(tmp_path, capsys):
    # at this rate batch 0 trains to finite weights, the second update not
    config, text = tiny_detect_with(tmp_path, "mode = sn\nmlr_learning_rate = 1e6\n")
    out = tmp_path / "out"
    assert main(["active-learn", "--config", str(config), "--out", str(out)]) == 1
    where = f"{config}:{line_of(text, 'mlr_learning_rate')}"
    model = "the model of seed 0 updated at batch 2"
    expected = f"error: {where}: {model} trained to non-finite weights, bias or class scores at mlr_learning_rate 1000000.0\n"
    assert capsys.readouterr().err == expected
    assert not out.exists()


@pytest.mark.parametrize(
    "member, name",
    [
        (0, "the main model of seed 3"),
        (1, "the main model of seed 5"),
        (2, "the aux logistic member of seed 3"),
        (3, "the aux logistic member of seed 5"),
    ],
)
def test_diverging_detect_member_named_by_seed_and_role(tmp_path, capsys, member, name):
    # one lock-step call trains every seed's main model, then every seed's
    # aux logistic member; the aux member trains at MlrConfig's fixed rate,
    # so its failure names no config key and no line
    config, text = tiny_detect_with(tmp_path, "seeds = 3, 5\n", **{"seeds = 0\n": ""})
    rate = 0.1 if "aux" in name else 1e30
    diverged = classifiers.TrainingDiverged(member, rate)
    with mock.patch.object(harness, "train_mlr_lockstep", side_effect=diverged):
        assert main(["detect", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    if "aux" in name:
        assert err == f"error: {name} trained to non-finite weights, bias or class scores at learning_rate 0.1\n"
    else:  # mlr_learning_rate keeps its default, so the file alone is named
        assert err == f"error: {config}: {name} trained to non-finite weights, bias or class scores at mlr_learning_rate 1e+30\n"


@pytest.mark.parametrize("command", ["detect", "active-learn", "pseudo", "sweep"])
def test_too_small_initial_batch_names_n_batches(tmp_path, command, capsys):
    # it used to say only "initial batch too small to cover every class",
    # then named the key but not the line that sets it
    config, text = tiny_detect_with(tmp_path, **{"instances_per_class = 70": "instances_per_class = 5"})
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    where = f"{config}:{line_of(text, 'n_batches')}"
    assert err == f"error: {where}: n_batches = 4 gives an initial batch of size 2, too small for 3 classes: it lacks classes [2]\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["detect", "active-learn"])
def test_train_split_without_a_class_names_its_key(tmp_path, command, capsys):
    # of 15 ids, the 8 test ids hold every instance of class 0; the split
    # used to fail as "error: classes absent from dataset: [0]"
    config, text = tiny_detect_with(tmp_path, "test_fraction = 0.5\n", **{"instances_per_class = 70": "instances_per_class = 5"})
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    where = f"{config}:{line_of(text, 'test_fraction')}"
    assert capsys.readouterr().err == f"error: {where}: test_fraction leaves no train ids of classes [0]: 7 train ids, 8 test ids\n"


def test_error_of_a_key_at_its_default_names_the_file(tmp_path, capsys):
    # n_batches keeps its default of 10, which gives batches of one here
    config, text = tiny_detect_with(tmp_path, **{"n_batches = 4\n": "", "instances_per_class = 70": "instances_per_class = 9"})
    assert main(["detect", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {config}: n_batches = 10 gives an initial batch of size 1, too small for 3 classes: it lacks classes [0, 1]\n"


@pytest.mark.parametrize("command, mode", [("pseudo", "cnld"), ("active-learn", "manual")])
def test_mode_of_another_command_names_its_line(tmp_path, capsys, command, mode):
    config, text = tiny_detect_with(tmp_path, f"mode = {mode}\n")
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    kind = "a pseudo-labeling" if command == "pseudo" else "an active-learning"
    assert capsys.readouterr().err == f"error: {config}:{line_of(text, 'mode')}: mode {mode!r} is not {kind} mode\n"


def test_empty_cora_fold_names_its_line(tmp_path, capsys):
    # nine papers in ten folds leave the last fold empty
    tiny = generate_synthetic(SyntheticConfig(n_classes=3, n_features=2, instances_per_class=3, seed=0))
    tiny = Dataset(
        ids=tiny.ids, labels=tiny.labels, features=(tiny.features > 0).astype(float), links=tiny.links,
        n_classes=3, m_attribute_classes=0, class_names=["a", "b", "c"],
    )
    save_cora(tiny, tmp_path / "x.content", tmp_path / "x.cites")
    config = tmp_path / "cora.cfg"
    config.write_text(f"dataset = cora\ncora_content = {tmp_path / 'x.content'}\ncora_cites = {tmp_path / 'x.cites'}\ncora_fold = 9\n")
    assert main(["detect", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {config}:4: cora_fold leaves the test split empty: 9 train ids, 0 test ids\n"


@pytest.mark.parametrize("command", ["sweep", "detect"])
@pytest.mark.parametrize("key, values", [("omegas", "0.2, 0.2000001"), ("betas", "0.8, 0.80000001")])
def test_values_that_print_alike_rejected(tmp_path, tiny_config, capsys, command, key, values):
    # sweep used to write six rows labelled omega0.2 and a summary of three
    # entries; detect overwrote its summary entries the same way
    lines = TINY.strip().splitlines()
    lineno = next(n for n, line in enumerate(lines, start=1) if line.startswith(f"{key} ="))
    lines[lineno - 1] = f"{key} = {values}"
    tiny_config.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(tiny_config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {tiny_config}:{lineno}: {key} must stay distinct when printed with :g\n"
    assert not out.exists()


def test_gen_data_on_cora_leaves_no_output_directory(tmp_path, capsys):
    config = tmp_path / "cora.cfg"
    config.write_text("dataset = cora\ncora_content = x.content\ncora_cites = x.cites\n")
    out = tmp_path / "out"
    assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {config}:1: gen-data needs a synthetic dataset config\n"
    assert not out.exists()


def test_gen_data_writes_dataset(tmp_path, tiny_config):
    out = tmp_path / "outdir"
    assert main(["gen-data", "--config", str(tiny_config), "--out", str(out)]) == 0
    assert (out / "dataset.txt").exists()


def test_detect_completes_quickly_and_writes_results(tmp_path, tiny_config):
    out = tmp_path / "out"
    started = time.perf_counter()
    assert main(["detect", "--config", str(tiny_config), "--out", str(out)]) == 0
    assert time.perf_counter() - started < 60.0
    lines = (out / "detection_results.csv").read_text().splitlines()
    assert lines[0].startswith("run_id,seed,mode")
    assert len(lines) == 1 + 2 * 4  # omegas x methods
    assert (out / "detection_summary.json").exists()


def test_active_learn_and_pseudo_write_results(tmp_path, tiny_config):
    out = tmp_path / "out"
    assert main(["active-learn", "--config", str(tiny_config), "--out", str(out)]) == 0
    assert (out / "learning_results.csv").exists()
    pseudo_cfg = tmp_path / "pseudo.cfg"
    pseudo_cfg.write_text(TINY.replace("mode = cnld", "mode = manual_pseudo_cnld"))
    assert main(["pseudo", "--config", str(pseudo_cfg), "--out", str(out)]) == 0
    assert (out / "pseudo_results.csv").exists()


def test_seed_override(tmp_path, tiny_config, capsys):
    out = tmp_path / "out"
    assert main(["active-learn", "--config", str(tiny_config), "--out", str(out), "--seeds", "3,4"]) == 0
    text = (out / "learning_results.csv").read_text()
    assert "seed3" in text and "seed4" in text


def test_sweep_emits_one_summary_row_per_cell(tmp_path, tiny_config):
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(tiny_config), "--out", str(out)]) == 0
    import json

    summary = json.loads((out / "sweep_summary.json").read_text())
    assert set(summary) == {
        "omega=0.2,beta=0.8",
        "omega=0.2,beta=0.9",
        "omega=0.4,beta=0.8",
        "omega=0.4,beta=0.9",
    }


def test_sweep_shares_one_dataset_and_leaves_it_unchanged(tmp_path, monkeypatch):
    config_path = Path(__file__).parent.parent / "configs" / "tiny_detect.cfg"
    loaded, used, built = [], [], []
    load, run, starts = cli.load_experiment_dataset, cli.run_active_learning, cli.run_starts

    def load_probe(config):
        dataset = load(config)
        loaded.append(dataset)
        return dataset

    def run_probe(config, seed, *, start):
        used.append(start.dataset)
        return run(config, seed, start=start)

    def starts_probe(config, dataset, seeds):
        built.append(starts(config, dataset, seeds))
        return built[-1]

    monkeypatch.setattr(cli, "load_experiment_dataset", load_probe)
    monkeypatch.setattr(cli, "run_active_learning", run_probe)
    monkeypatch.setattr(cli, "run_starts", starts_probe)
    assert main(["sweep", "--config", str(config_path), "--out", str(tmp_path)]) == 0
    assert len(loaded) == 1
    # cnld for every omega x beta, sn, which ignores beta, once per omega
    assert len(used) == 2 * 3 + 2
    assert all(dataset is loaded[0] for dataset in used)
    assert loaded[0] == generate_synthetic(load_config(config_path).synthetic)
    assert len(built) == 1 and all(start.dataset is loaded[0] for start in built[0].values())


def test_sweep_leaves_every_start_unchanged(tmp_path, tiny_config, monkeypatch):
    # two seeds, and attribute classes so that each relationship holds an
    # attribute table too
    tiny_config.write_text(TINY.replace("seeds = 0", "seeds = 0, 1") + "synthetic.m_attribute_classes = 2\n")
    built, before = [], {}
    starts = cli.run_starts

    def starts_probe(config, dataset, seeds):
        built.append(starts(config, dataset, seeds))
        before.update({seed: [a.copy() for a in start_arrays(start)] for seed, start in built[-1].items()})
        return built[-1]

    monkeypatch.setattr(cli, "run_starts", starts_probe)
    assert main(["sweep", "--config", str(tiny_config), "--out", str(tmp_path)]) == 0
    assert len(built) == 1 and sorted(built[0]) == [0, 1]
    for seed, start in built[0].items():
        arrays = start_arrays(start)
        assert len(arrays) == 6
        for array, copy in zip(arrays, before[seed]):
            assert np.array_equal(array, copy) and not array.flags.writeable


def test_sweep_computes_each_shared_batch_step_once(tmp_path):
    # 24 runs of 7 batches each: 168 selections and updates, and 126 star
    # tables for the 18 cnld runs; the runs of a seed share the steps they
    # take from equal states, so fewer are computed
    config_path = Path(__file__).parent.parent / "configs" / "synthetic_sweep.cfg"
    with (
        mock.patch.object(harness, "select_informative", wraps=harness.select_informative) as select,
        mock.patch.object(harness, "star_divergences", wraps=detector.star_divergences) as stars,
        mock.patch.object(harness, "train_mlr", wraps=classifiers.train_mlr) as train,
    ):
        assert main(["sweep", "--config", str(config_path), "--out", str(tmp_path)]) == 0
    assert (select.call_count, stars.call_count, train.call_count) == (127, 91, 148)


def test_nar_sweep_over_many_omegas_rejected(tmp_path, tiny_config, capsys):
    # NAR reads no omega, so the sweep used to repeat one experiment at each
    # omega and report it as two noise levels
    tiny_config.write_text(TINY.replace("noise = ncar", "noise = nar"))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(tiny_config), "--out", str(out)]) == 1
    message = "omegas must hold one value under noise = nar, which reads no omega"
    assert capsys.readouterr().err == f"error: {tiny_config}:{line_of(TINY, 'omegas')}: {message}\n"
    assert not out.exists()
    args = cli._build_parser().parse_args(["sweep", "--config", str(tiny_config), "--out", str(out)])
    with pytest.raises(harness.ConfigError, match=f"^{message}$") as caught:
        cli._cmd_sweep(args, load_config(tiny_config), out)
    assert caught.value.key == "omegas"


def test_nar_sweep_estimates_each_transition_once(tmp_path):
    # 12 runs over 3 seeds: each seed's runs read the transition estimated
    # from the batch 0 of the start they share
    config = tmp_path / "sweep.cfg"
    text = (Path(__file__).parent.parent / "configs" / "synthetic_sweep.cfg").read_text()
    config.write_text(text.replace("omegas = 0.2, 0.4", "omegas = 0.2") + "noise = nar\n")
    with mock.patch.object(harness, "estimate_transition", wraps=noise.estimate_transition) as spy:
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert spy.call_count == 3


def test_reruns_are_byte_identical(tmp_path, tiny_config):
    out = tmp_path / "out"
    assert main(["detect", "--config", str(tiny_config), "--out", str(out)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["detect", "--config", str(tiny_config), "--out", str(out)]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_out_dir_env_var(tmp_path, tiny_config, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("CTXNOISE_OUT", str(target))
    assert main(["gen-data", "--config", str(tiny_config)]) == 0
    assert (target / "dataset.txt").exists()


def test_verbose_adds_one_line_per_batch(tmp_path, tiny_config, capsys):
    args = ["active-learn", "--config", str(tiny_config), "--out", str(tmp_path / "out")]
    assert main(args) == 0
    quiet = capsys.readouterr().out.splitlines()
    assert main(args + ["--verbose"]) == 0
    verbose = capsys.readouterr().out.splitlines()
    # n_batches = 4, so batches 1 to 3 update the initial pool
    assert [line.split(":")[0] for line in verbose[:3]] == [f"seed 0 batch {b}" for b in (1, 2, 3)]
    assert all(" accuracy " in line and " kept " in line and " removed " in line for line in verbose[:3])
    assert verbose[3:] == quiet


def test_even_knn_k_names_its_line(tmp_path, capsys):
    # an even k used to run as a (k - 1)-NN member
    config, text = tiny_detect_with(tmp_path, "knn_k = 4\n")
    assert main(["detect", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {config}:{line_of(text, 'knn_k')}: knn_k must be a positive odd number\n"
