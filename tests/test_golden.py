"""Byte-level guard on the learning result CSVs of every mode, on the
detection result files and on generated synthetic datasets.

The learning CSVs under ``tests/golden/`` were written by the two separate
active-learning and pseudo-labeling loops that preceded the shared batch
loop; the shared loop must reproduce them exactly.  No benchmark workload
runs the pseudo modes, so these files are their only byte-level guard.
The ``-sep1`` cases use weakly separated classes, where the pseudo modes do
not reach accuracy 1.0 and so depend on the rows each update trains on.
"""

import math
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

from ctxnoise import SyntheticConfig, cli, generate_synthetic, run_active_learning, run_pseudo, save_synthetic
from ctxnoise.cli import main
from ctxnoise.harness import LEARNING_MODES, learning_result_rows, write_results_csv

from test_harness import small_config

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    **{mode: {"mode": mode} for mode in ("sn", "pb", "cl", "cnld", "manual", "manual_pseudo", "manual_pseudo_cnld")},
    "cnld-nar": {"mode": "cnld", "noise": "nar"},
    "cnld-replay": {"mode": "cnld", "replay": True},
    **{f"{mode}-sep1": {"mode": mode, "separation": 1.0} for mode in ("manual", "manual_pseudo", "manual_pseudo_cnld")},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_learning_csv_matches_golden(name, tmp_path):
    overrides = dict(CASES[name])
    separation = overrides.pop("separation", None)
    config = small_config(**overrides)
    if separation is not None:
        config = replace(config, synthetic=replace(config.synthetic, separation=separation))
    runner = run_active_learning if config.mode in LEARNING_MODES else run_pseudo
    path = tmp_path / f"{name}.csv"
    write_results_csv(path, learning_result_rows(runner(config, 0)))
    assert path.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


# Detection outputs of ``ctxnoise detect``: the shipped tiny config and
# variants of it.  At separation 2.5 the baselines make no error and NAR
# flips no label, so the ``sep0.7`` cases, where they do, pin the baselines'
# removed sets and the AUC of every seed.
CONFIGS = Path(__file__).parent.parent / "configs"

DETECT_CASES = {
    "tiny_detect": {},
    "tiny_detect-nar": {"noise": "nar"},
    "tiny_detect-sep0.7": {"synthetic.separation": "0.7", "seeds": "0, 1"},
    "tiny_detect-nar-sep0.7": {"noise": "nar", "synthetic.separation": "0.7", "seeds": "0, 1"},
}


def config_text(name: str, overrides: dict[str, str]) -> str:
    """``configs/<name>.cfg`` with the value of each named key replaced."""
    lines = (CONFIGS / f"{name}.cfg").read_text().splitlines()
    out = []
    for line in lines:
        key = line.split("=", 1)[0].strip()
        out.append(f"{key} = {overrides[key]}" if "=" in line and key in overrides else line)
    assert sum("=" in line and line.split("=", 1)[0].strip() in overrides for line in lines) == len(overrides)
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("name", sorted(DETECT_CASES))
def test_detection_files_match_golden(name, tmp_path):
    config = tmp_path / f"{name}.cfg"
    config.write_text(config_text("tiny_detect", DETECT_CASES[name]))
    assert main(["detect", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "detection_results.csv").read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
    assert (tmp_path / "detection_summary.json").read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


# Datasets written by the generator's first, per-draw ``rng.choice`` loop;
# the generator must keep its random stream.  Attribute draws follow every
# link draw, so a missing or extra draw shows in the ``attributes`` case, and
# one instance per class leaves the own-class pool empty, which is skipped
# without a draw.
SYNTHETIC_CASES = {
    "detect": dict(n_classes=3, n_features=4, instances_per_class=30, links_per_instance=4, seed=3),
    "attributes": dict(
        n_classes=4, n_features=3, instances_per_class=10, m_attribute_classes=3,
        concentration=0.7, links_per_instance=3, attributes_per_instance=2, seed=11,
    ),
    "singletons": dict(
        n_classes=3, n_features=2, instances_per_class=1, m_attribute_classes=2,
        concentration=0.5, links_per_instance=3, attributes_per_instance=1, seed=7,
    ),
}


@pytest.mark.parametrize("name", sorted(SYNTHETIC_CASES))
def test_synthetic_dataset_matches_golden(name, tmp_path):
    dataset = generate_synthetic(SyntheticConfig(**SYNTHETIC_CASES[name]))
    save_synthetic(dataset, tmp_path / "dataset.txt")
    assert (tmp_path / "dataset.txt").read_bytes() == (GOLDEN / f"synthetic-{name}.txt").read_bytes()


# ``ctxnoise sweep`` on the shipped sweep config, and with NAR noise at one
# omega, since NAR reads no omega; the runs of a seed share the transition
# estimated from their batch 0.  ``synthetic_sweep-nar`` is the omega=0.2
# half of the files written before the runs of a seed shared one start and
# ``sn`` ran once per (omega, seed), when the sweep accepted two omegas
# under NAR and repeated the same runs at each.
SWEEP_CASES = {
    "configs/synthetic_sweep": ({}, ""),
    "synthetic_sweep-nar": ({"omegas": "0.2"}, "noise = nar\n"),
}


@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_sweep_files_match_golden(name, tmp_path):
    overrides, extra = SWEEP_CASES[name]
    config = tmp_path / "sweep.cfg"
    config.write_text(config_text("synthetic_sweep", overrides) + extra)
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
    for file in ("sweep_results.csv", "sweep_summary.json"):
        assert (tmp_path / file).read_bytes() == (GOLDEN / name / file).read_bytes()


def compensated_sum(values, start=0):
    """The builtin ``sum`` of floats as CPython 3.12 and later compute it:
    Neumaier-compensated, where 3.10 and 3.11 add left to right."""
    total, compensation = float(start), 0.0
    for x in values:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


def test_sweep_summary_keeps_its_bytes_under_a_compensated_sum(tmp_path):
    # the seed means and stds were taken with the builtin sum, so on
    # CPython 3.12 one std of the shipped sweep moved in its last digit
    with mock.patch.object(cli, "sum", compensated_sum, create=True):
        assert main(["sweep", "--config", str(CONFIGS / "synthetic_sweep.cfg"), "--out", str(tmp_path)]) == 0
    golden = GOLDEN / "configs" / "synthetic_sweep" / "sweep_summary.json"
    assert (tmp_path / "sweep_summary.json").read_bytes() == golden.read_bytes()
