"""Correctness checks on the files an experiment writes.

On the default seed at full scale the results CSV must be byte-identical to
the committed reference and the summary JSON numerically equal to it within
``SUMMARY_TOLERANCE``.  On every seed the files must satisfy the row
invariants below, and every repeated experiment in a run must write exactly
the same bytes as the first.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SUMMARY_TOLERANCE = 1e-9
RESULTS_HEADER = "run_id,seed,mode,omega,batch,accuracy,er1,er2,nep,removed,kept"
DETECT_METHODS = ("cnld", "probabilistic", "consensus", "majority")
CORA_FOLDS = 10


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


class Expectations:
    """What a correct run of one prepared config writes, derived from the
    config alone: row counts, label budgets and queried-batch sizes."""

    def __init__(self, config, n_instances: int) -> None:
        self.config = config
        if config.dataset_kind == "cora":
            self.n_test = len(np.array_split(np.arange(n_instances), CORA_FOLDS)[config.cora_fold])
        else:
            self.n_test = _round_half_up(config.test_fraction * n_instances)
        n_train = n_instances - self.n_test
        base = n_train // config.n_batches
        sizes = [base] * config.n_batches
        sizes[-1] += n_train % config.n_batches
        # queried labels per batch 1..n_batches-1, as the harness rounds them
        self.queried = [min(s, max(1, _round_half_up(config.query_fraction * s))) for s in sizes[1:]]

    def check_rows(self, command: str, csv_text: str) -> list[str]:
        lines = csv_text.splitlines()
        if not lines or lines[0] != RESULTS_HEADER:
            return [f"results header is {lines[:1]!r}, expected {RESULTS_HEADER!r}"]
        rows = [line.split(",") for line in lines[1:]]
        errors = [f"row {k}: {len(r)} cells" for k, r in enumerate(rows, 1) if len(r) != 11]
        if errors:
            return errors
        cfg = self.config
        if command == "detect":
            expected_rows = len(DETECT_METHODS) * len(cfg.omegas) * len(cfg.seeds)
        elif command == "sweep":
            expected_rows = len(cfg.omegas) * len(cfg.betas) * len(cfg.seeds)
        else:
            expected_rows = len(cfg.seeds) * len(self.queried)
        if len(rows) != expected_rows:
            errors.append(f"{len(rows)} result rows, expected {expected_rows}")
        for k, (run_id, seed, mode, omega, batch, acc, er1, er2, nep, removed, kept) in enumerate(rows, 1):
            where = f"row {k} ({run_id})"
            if int(seed) not in cfg.seeds:
                errors.append(f"{where}: seed {seed} not in the config")
            for name, cell in (("accuracy", acc), ("er1", er1), ("er2", er2), ("nep", nep)):
                if cell and not 0.0 <= float(cell) <= 1.0:
                    errors.append(f"{where}: {name} {cell} outside [0, 1]")
            if command == "detect":
                budget = min(_round_half_up(float(omega) * self.n_test), self.n_test)
                if mode not in DETECT_METHODS or float(omega) not in cfg.omegas:
                    errors.append(f"{where}: unexpected mode/omega {mode}/{omega}")
                elif int(removed) != budget or int(removed) + int(kept) != self.n_test:
                    errors.append(f"{where}: removed {removed} + kept {kept}, expected {budget} + {self.n_test - budget}")
            elif command == "sweep":
                if mode != "cnld_vs_sn" or not acc:
                    errors.append(f"{where}: unexpected mode {mode} or empty accuracy")
            else:
                t = int(batch)
                if not 1 <= t <= len(self.queried) or not acc:
                    errors.append(f"{where}: batch {batch} or empty accuracy")
                elif int(removed) + int(kept) != self.queried[t - 1]:
                    errors.append(f"{where}: removed {removed} + kept {kept} != {self.queried[t - 1]} queried")
        return errors

    def check_logs(self, logs) -> list[str]:
        """Per-batch records of every active-learning run in the experiment."""
        errors = []
        for log in logs:
            if len(log.records) != len(self.queried):
                errors.append(f"run {log.mode}/{log.omega}/{log.seed}: {len(log.records)} batches")
                continue
            for r, k in zip(log.records, self.queried):
                if r.kept + r.removed != k or len(r.queried) != k:
                    errors.append(f"run {log.mode}/{log.omega}/{log.seed} batch {r.batch}: "
                                  f"kept {r.kept} + removed {r.removed}, {len(r.queried)} queried, expected {k}")
        return errors


def _numbers_close(a, b, path: str = "") -> list[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return [f"{path or 'summary'}: keys differ"]
        return [e for k in a for e in _numbers_close(a[k], b[k], f"{path}.{k}" if path else k)]
    if isinstance(a, bool) or isinstance(b, bool) or not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        return [] if a == b else [f"{path}: {a!r} != {b!r}"]
    return [] if abs(a - b) <= SUMMARY_TOLERANCE else [f"{path}: {a!r} differs from reference {b!r}"]


def check_reference(workload: str, prefix: str, csv_bytes: bytes, summary_bytes: bytes) -> list[str]:
    ref = REFERENCE_DIR / workload
    errors = []
    if csv_bytes != (ref / f"{prefix}_results.csv").read_bytes():
        errors.append(f"{prefix}_results.csv differs from {ref.name} reference")
    expected = json.loads((ref / f"{prefix}_summary.json").read_text())
    errors += _numbers_close(json.loads(summary_bytes), expected)
    return errors
