"""Byte-level guard on the learning result CSVs of every mode and on the
detection result files.

The learning CSVs under ``tests/golden/`` were written by the two separate
active-learning and pseudo-labeling loops that preceded the shared batch
loop; the shared loop must reproduce them exactly.  No benchmark workload
runs the pseudo modes, so these files are their only byte-level guard.
The ``-sep1`` cases use weakly separated classes, where the pseudo modes do
not reach accuracy 1.0 and so depend on the rows each update trains on.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from ctxnoise import run_active_learning, run_pseudo
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
        config.synthetic = replace(config.synthetic, separation=separation)
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


def detect_config_text(overrides: dict[str, str]) -> str:
    """``configs/tiny_detect.cfg`` with the value of each named key replaced."""
    lines = (CONFIGS / "tiny_detect.cfg").read_text().splitlines()
    out = []
    for line in lines:
        key = line.split("=", 1)[0].strip()
        out.append(f"{key} = {overrides[key]}" if "=" in line and key in overrides else line)
    assert sum("=" in line and line.split("=", 1)[0].strip() in overrides for line in lines) == len(overrides)
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("name", sorted(DETECT_CASES))
def test_detection_files_match_golden(name, tmp_path):
    config = tmp_path / f"{name}.cfg"
    config.write_text(detect_config_text(DETECT_CASES[name]))
    assert main(["detect", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "detection_results.csv").read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
    assert (tmp_path / "detection_summary.json").read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
