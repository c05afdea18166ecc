import time
from pathlib import Path

import pytest

from ctxnoise import cli, generate_synthetic, load_config
from ctxnoise.cli import main

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


def test_negative_seed_override_rejected(tmp_path, tiny_config, capsys):
    # it used to fail deep inside numpy: "error: expected non-negative integer"
    assert main(["detect", "--config", str(tiny_config), "--out", str(tmp_path), "--seeds=-2"]) == 1
    assert capsys.readouterr().err == "error: seeds must name at least one seed, each >= 0\n"


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
    loaded, used = [], []
    load, run = cli.load_experiment_dataset, cli.run_active_learning

    def load_probe(config):
        result = load(config)
        loaded.append(result[0])
        return result

    def run_probe(config, seed, dataset):
        used.append(dataset)
        return run(config, seed, dataset)

    monkeypatch.setattr(cli, "load_experiment_dataset", load_probe)
    monkeypatch.setattr(cli, "run_active_learning", run_probe)
    assert main(["sweep", "--config", str(config_path), "--out", str(tmp_path)]) == 0
    assert len(loaded) == 1
    assert len(used) == 2 * 3 * 2  # omegas x betas x (cnld, sn)
    assert all(dataset is loaded[0] for dataset in used)
    assert loaded[0] == generate_synthetic(load_config(config_path).synthetic)[0]


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
