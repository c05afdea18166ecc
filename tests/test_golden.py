"""Byte-level guard on the learning result CSVs of every mode.

The files under ``tests/golden/`` were written by the two separate
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
