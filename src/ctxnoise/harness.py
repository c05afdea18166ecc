"""Batch-incremental active-learning experiments with simulated annotation noise.

A run trains the classifier and the relationship model on a correctly
labeled initial batch, then walks the remaining batches in one loop shared
by every mode: select informative instances, obtain labels, filter the
candidate labels per the mode, update both models on the kept labels, and
score accuracy on the held-out test set.

Each batch's labels are fixed labels, trusted as given, then candidate
labels, which the mode's filter may remove; the kept labels are the fixed
ones followed by the surviving candidates, in that order.

* :func:`run_active_learning` modes have no fixed labels; the candidates
  are the queried ids with NCAR/NAR noise injected.  ``sn`` keeps them all,
  ``cnld`` applies ``cnld_detect``'s beta threshold, and ``pb`` (the
  probabilistic detector) and ``cl`` (truly flipped labels only, a
  ground-truth upper bound) remove as many as ``cnld_detect`` would.
* :func:`run_pseudo` modes fix the queried ids' true labels; the candidates
  are the rest of the batch, sorted, with argmax pseudo-labels (none for
  ``manual``), filtered by ``cnld_detect`` in ``manual_pseudo_cnld`` only.

A candidate is flipped when its label differs from the true one;
ER1/ER2/NEP are reported for filtered batches.  With ``replay`` every
update retrains the classifier on all labels accepted so far, batch 0
included, instead of on the batch's kept labels alone.

:func:`run_detection_suite` is the pure detection benchmark: train on batch
0, inject noise into the evaluation split, and remove a fixed fraction with
every detector.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .baselines import consensus_detect, majority_detect, probabilistic_detect
from .classifiers import (
    AuxConfig,
    MlrConfig,
    MlrModel,
    aux_predictions,
    entropy,
    predict_proba,
    train_aux,
    train_mlr,
)
from .dataset import (
    Dataset,
    GroundTruth,
    SyntheticConfig,
    generate_synthetic,
    load_cora,
    split_batches,
)
from .detector import DEFAULT_BETA, cnld_detect, detect_topk
from .metrics import DetectionMetrics, accuracy, detection_metrics, ranking_auc
from .noise import inject_nar, inject_ncar, estimate_transition, _round_half_up
from .relationship import DEFAULT_SMOOTHING, build_relationship, update_relationship

LEARNING_MODES = ("sn", "pb", "cl", "cnld")
PSEUDO_MODES = ("manual", "manual_pseudo", "manual_pseudo_cnld")
FILTERED_MODES = ("pb", "cl", "cnld", "manual_pseudo_cnld")
SELECTION_STRATEGIES = ("entropy", "random")
NOISE_MODELS = ("ncar", "nar")

CORA_FOLDS = 10

# salts for deriving independent rng streams from one run seed
_SALT_SPLIT = 1
_SALT_TEST = 2
_SALT_SELECT = 3
_SALT_NOISE = 4
_SALT_MLR = 5
_SALT_AUX = 6


class ConfigError(ValueError):
    """Bad or missing experiment configuration; ``key`` names the config key
    at fault, when there is one."""

    def __init__(self, message: str, key: str | None = None) -> None:
        super().__init__(message)
        self.key = key


def derive_seed(seed: int, *salts: int) -> int:
    return int(np.random.SeedSequence([seed, *salts]).generate_state(1)[0])


@dataclass
class ExperimentConfig:
    dataset_kind: str
    synthetic: SyntheticConfig | None = None
    cora_content: str | None = None
    cora_cites: str | None = None
    n_batches: int = 10
    query_fraction: float = 0.3
    selection: str = "entropy"
    mode: str = "cnld"
    noise: str = "ncar"
    omega: float = 0.4
    beta: float = DEFAULT_BETA
    seeds: list[int] = field(default_factory=lambda: [0])
    test_fraction: float = 0.3
    cora_fold: int = 0
    replay: bool = False
    omegas: list[float] = field(default_factory=lambda: [0.1, 0.2, 0.3, 0.4, 0.5])
    betas: list[float] = field(default_factory=lambda: [0.80, 0.85, 0.90])
    mlr_learning_rate: float = 0.1
    mlr_l2: float = 1e-4
    mlr_epochs: int = 200
    mlr_batch_size: int | None = 32
    knn_k: int = 5
    # count smoothing; raise toward 1 (Laplace) when the labeled pool yields
    # few links per class, or near-zero cells overwhelm the leaf evidence
    epsilon: float = DEFAULT_SMOOTHING

    def validate(self) -> None:
        if self.dataset_kind not in ("synthetic", "cora"):
            raise ConfigError(f"unknown dataset kind {self.dataset_kind!r}", "dataset")
        if self.dataset_kind == "synthetic" and self.synthetic is None:
            raise ConfigError("missing required config key: synthetic.n_classes")
        if self.dataset_kind == "cora" and not (self.cora_content and self.cora_cites):
            raise ConfigError("missing required config key: cora_content / cora_cites")
        # each check is written so that NaN fails it
        checks = (
            ("query_fraction", 0.0 < self.query_fraction <= 1.0, "must lie in (0, 1]"),
            ("test_fraction", 0.0 < self.test_fraction < 1.0, "must lie in (0, 1)"),
            ("selection", self.selection in SELECTION_STRATEGIES, f"{self.selection!r} is unknown"),
            ("mode", self.mode in LEARNING_MODES + PSEUDO_MODES, f"{self.mode!r} is unknown"),
            ("noise", self.noise in NOISE_MODELS, f"{self.noise!r} is unknown"),
            ("beta", 0.0 <= self.beta < 1.0, "must lie in [0, 1)"),
            ("omega", 0.0 <= self.omega <= 1.0, "must lie in [0, 1]"),
            ("n_batches", self.n_batches >= 2, "must be >= 2"),
            ("seeds", len(self.seeds) > 0 and min(self.seeds) >= 0, "must name at least one seed, each >= 0"),
            ("omegas", len(self.omegas) > 0 and all(0.0 <= w <= 1.0 for w in self.omegas), "must be values in [0, 1]"),
            ("betas", len(self.betas) > 0 and all(0.0 <= b < 1.0 for b in self.betas), "must be values in [0, 1)"),
            ("cora_fold", 0 <= self.cora_fold < CORA_FOLDS, f"must lie in [0, {CORA_FOLDS})"),
            ("epsilon", 0.0 < self.epsilon < math.inf, "must be positive and finite"),
            ("mlr_learning_rate", 0.0 < self.mlr_learning_rate < math.inf, "must be positive and finite"),
            ("mlr_l2", 0.0 <= self.mlr_l2 < math.inf, "must be >= 0 and finite"),
            ("mlr_epochs", self.mlr_epochs >= 1, "must be >= 1"),
            ("mlr_batch_size", self.mlr_batch_size is None or self.mlr_batch_size >= 1, "must be >= 1 or none"),
            ("knn_k", self.knn_k >= 1, "must be >= 1"),
        )
        if self.dataset_kind == "synthetic":
            checks += tuple((f"synthetic.{name}", ok, req) for name, ok, req in self.synthetic.checks())
        for key, ok, requirement in checks:
            if not ok:
                raise ConfigError(f"{key} {requirement}", key)

    def mlr_config(self, n_classes: int, seed: int) -> MlrConfig:
        return MlrConfig(
            n_classes=n_classes,
            learning_rate=self.mlr_learning_rate,
            l2=self.mlr_l2,
            epochs=self.mlr_epochs,
            batch_size=self.mlr_batch_size,
            seed=seed,
        )


@dataclass
class BatchRecord:
    batch: int
    accuracy: float
    removed: int
    kept: int
    er1: float | None
    er2: float | None
    nep: float | None
    queried: list[int]
    elapsed: float


@dataclass
class ExperimentLog:
    mode: str
    omega: float
    seed: int
    records: list[BatchRecord]

    @property
    def final_accuracy(self) -> float:
        return self.records[-1].accuracy


@dataclass
class DetectionSuiteRow:
    method: str
    omega: float
    seed: int
    metrics: DetectionMetrics
    auc: float | None = None


def load_experiment_dataset(config: ExperimentConfig) -> tuple[Dataset, GroundTruth | None]:
    if config.dataset_kind == "synthetic":
        dataset, truth = generate_synthetic(config.synthetic)
        return dataset, truth
    return load_cora(config.cora_content, config.cora_cites), None


def split_train_test(dataset: Dataset, config: ExperimentConfig, seed: int) -> tuple[list[int], list[int]]:
    """Synthetic: per-seed random test fraction.  CORA: one of 10 folds."""
    ids = sorted(dataset.ids())
    rng = np.random.default_rng(derive_seed(seed, _SALT_TEST))
    order = [ids[k] for k in rng.permutation(len(ids))]
    if config.dataset_kind == "cora":
        folds = np.array_split(np.arange(len(order)), CORA_FOLDS)
        test_pos = set(folds[config.cora_fold].tolist())
        test = [order[k] for k in sorted(test_pos)]
        train = [order[k] for k in range(len(order)) if k not in test_pos]
        return train, test
    n_test = _round_half_up(config.test_fraction * len(order))
    return order[n_test:], order[:n_test]


def select_informative(
    classifier: MlrModel,
    dataset: Dataset,
    batch_ids: Sequence[int],
    k: int,
    strategy: str,
    seed: int,
) -> list[int]:
    """Pick k of the batch's ids to query: top prediction entropy, or
    uniform at random over the sorted ids.

    Entropy ties break toward the lower instance id.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(batch_ids):
        raise ValueError("k exceeds the batch size")
    ordered = np.sort(np.asarray(batch_ids, dtype=int))
    if strategy == "random":
        rng = np.random.default_rng(seed)
        return ordered[rng.choice(len(ordered), size=k, replace=False)].tolist()
    if strategy != "entropy":
        raise ValueError(f"unknown selection strategy {strategy!r}")
    H = entropy(predict_proba(classifier, dataset.feature_matrix(ordered)))
    return ordered[np.lexsort((ordered, -H))[:k]].tolist()


def _initial_models(dataset: Dataset, pool: Sequence[int], config: ExperimentConfig, seed: int):
    X = dataset.feature_matrix(pool)
    y = dataset.true_labels(pool)
    model = train_mlr(None, X, y, config.mlr_config(dataset.n_classes, derive_seed(seed, _SALT_MLR)))
    rel = build_relationship(
        dataset, {i: dataset.by_id(i).true_label for i in pool}, epsilon=config.epsilon
    )
    return model, rel, X, y


def run_active_learning(
    config: ExperimentConfig, seed: int | None = None, dataset: Dataset | None = None
) -> ExperimentLog:
    """One noisy-annotation active-learning run; returns per-batch records.

    ``dataset`` skips loading the configured one; it is only read.
    """
    config.validate()
    if config.mode not in LEARNING_MODES:
        raise ConfigError(f"mode {config.mode!r} is not an active-learning mode")
    return _run_batches(config, seed, dataset)


def run_pseudo(
    config: ExperimentConfig, seed: int | None = None, dataset: Dataset | None = None
) -> ExperimentLog:
    """Pseudo-labeling run: queried labels are correct, the rest of each batch
    gets classifier predictions, optionally filtered by the context detector.

    ``dataset`` skips loading the configured one; it is only read.
    """
    config.validate()
    if config.mode not in PSEUDO_MODES:
        raise ConfigError(f"mode {config.mode!r} is not a pseudo-labeling mode")
    return _run_batches(config, seed, dataset)


def _run_batches(config: ExperimentConfig, seed: int | None, dataset: Dataset | None) -> ExperimentLog:
    """The batch loop behind both run functions; the mode table is in the
    module docstring."""
    seed = config.seeds[0] if seed is None else seed
    if dataset is None:
        dataset, _ = load_experiment_dataset(config)
    pseudo = config.mode in PSEUDO_MODES
    train_ids, test_ids = split_train_test(dataset, config, seed)
    plan = split_batches(dataset, config.n_batches, derive_seed(seed, _SALT_SPLIT), ids=train_ids)
    model, rel, pool_X, pool_y = _initial_models(dataset, plan.batches[0], config, seed)
    n = dataset.n_classes

    transition = None
    if not pseudo and config.noise == "nar":
        transition = estimate_transition(pool_X, pool_y, n)

    X_test, y_test = dataset.feature_matrix(test_ids), dataset.true_labels(test_ids)
    accepted: list[tuple[int, int]] = [(i, dataset.by_id(i).true_label) for i in plan.batches[0]]
    records: list[BatchRecord] = []

    for t in range(1, config.n_batches):
        start = time.perf_counter()
        batch_ids = plan.batches[t]
        k = min(len(batch_ids), max(1, _round_half_up(config.query_fraction * len(batch_ids))))
        queried = select_informative(
            model, dataset, batch_ids, k, config.selection, derive_seed(seed, _SALT_SELECT, t)
        )

        # fixed labels are trusted as given; candidates may be filtered
        if pseudo:
            fixed = [(qid, dataset.by_id(qid).true_label) for qid in queried]
            queried_set = set(queried)
            candidates = [] if config.mode == "manual" else sorted(i for i in batch_ids if i not in queried_set)
            labels = predict_proba(model, dataset.feature_matrix(candidates)).argmax(axis=1) if candidates else []
        else:
            fixed = []
            candidates = queried
            noise_seed = derive_seed(seed, _SALT_NOISE, t)
            true_q = dataset.true_labels(queried)
            if config.noise == "ncar":
                labels = inject_ncar(true_q, n, config.omega, noise_seed).assigned
            else:
                labels = inject_nar(true_q, transition, noise_seed).assigned

        removed: set[int] = set()
        batch_metrics = None
        if candidates and config.mode in FILTERED_MODES:
            flip_mask = dict(zip(candidates, (labels != dataset.true_labels(candidates)).tolist()))
            removed = cnld_detect(candidates, labels, dataset, model, rel, config.beta).removed_ids()
            if config.mode == "pb":
                proba = predict_proba(model, dataset.feature_matrix(candidates))
                removed = probabilistic_detect(proba, candidates, labels, len(removed))
            elif config.mode == "cl":  # drop truly flipped labels only, up to the cnld budget
                removed = set(sorted(i for i in candidates if flip_mask[i])[: len(removed)])
            batch_metrics = detection_metrics(removed, flip_mask)

        kept = fixed + [(i, int(c)) for i, c in zip(candidates, labels) if i not in removed]
        if kept:
            accepted.extend(kept)
            rows = accepted if config.replay else kept
            X = dataset.feature_matrix([i for i, _ in rows])
            y = np.array([c for _, c in rows])
            model = train_mlr(model, X, y, config.mlr_config(n, derive_seed(seed, _SALT_MLR, t)))
            rel = update_relationship(rel, dataset, dict(kept))

        records.append(
            BatchRecord(
                batch=t,
                accuracy=accuracy(model, X_test, y_test),
                removed=len(removed),
                kept=len(kept),
                er1=batch_metrics.er1 if batch_metrics else None,
                er2=batch_metrics.er2 if batch_metrics else None,
                nep=batch_metrics.nep if batch_metrics else None,
                queried=list(queried),
                elapsed=time.perf_counter() - start,
            )
        )
    return ExperimentLog(mode=config.mode, omega=config.omega, seed=seed, records=records)


def run_detection_suite(config: ExperimentConfig) -> list[DetectionSuiteRow]:
    """Fixed-budget detection benchmark over methods x noise levels x seeds.

    Trains on batch 0 only, injects noise into the evaluation split and
    removes exactly the injected fraction with each detector.
    """
    config.validate()
    dataset, _ = load_experiment_dataset(config)
    n = dataset.n_classes
    rows: list[DetectionSuiteRow] = []

    for seed in config.seeds:
        train_ids, test_ids = split_train_test(dataset, config, seed)
        plan = split_batches(dataset, config.n_batches, derive_seed(seed, _SALT_SPLIT), ids=train_ids)
        model, rel, pool_X, pool_y = _initial_models(dataset, plan.batches[0], config, seed)
        knn_k = min(config.knn_k, len(plan.batches[0]))
        if knn_k % 2 == 0:
            knn_k -= 1
        aux = train_aux(
            pool_X,
            pool_y,
            AuxConfig(
                n_classes=n,
                knn_k=knn_k,
                normalize=config.dataset_kind == "synthetic",
                seed=derive_seed(seed, _SALT_AUX),
            ),
        )
        y_test = dataset.true_labels(test_ids)
        # the baselines' classifier outputs do not depend on the injected labels
        X_test = dataset.feature_matrix(test_ids)
        test_proba = predict_proba(model, X_test)
        member_preds = aux_predictions(aux, X_test)
        mlr_proba = predict_proba(aux.mlr, X_test)

        if config.noise == "ncar":
            cells = []
            for omega in config.omegas:
                noise_seed = derive_seed(seed, _SALT_NOISE, int(round(omega * 1000)))
                noise_plan = inject_ncar(y_test, n, omega, noise_seed)
                cells.append((omega, noise_plan, _round_half_up(omega * len(test_ids))))
        else:
            transition = estimate_transition(pool_X, pool_y, n)
            noise_plan = inject_nar(y_test, transition, derive_seed(seed, _SALT_NOISE, 0))
            cells = [(noise_plan.rate, noise_plan, int(noise_plan.flipped.sum()))]

        for omega, noise_plan, removal_count in cells:
            removal_count = min(removal_count, len(test_ids))
            assigned = noise_plan.assigned
            flip_mask = {tid: bool(f) for tid, f in zip(test_ids, noise_plan.flipped)}

            det = detect_topk(test_ids, assigned, dataset, model, rel, removal_count)
            auc = None
            if 0 < noise_plan.flipped.sum() < len(test_ids):
                auc = ranking_auc(det.scores, noise_plan.flipped)
            rows.append(
                DetectionSuiteRow("cnld", omega, seed, detection_metrics(det.removed_ids(), flip_mask), auc)
            )
            removed = probabilistic_detect(test_proba, test_ids, assigned, removal_count)
            rows.append(DetectionSuiteRow("probabilistic", omega, seed, detection_metrics(removed, flip_mask)))
            removed = consensus_detect(member_preds, mlr_proba, test_ids, assigned, removal_count)
            rows.append(DetectionSuiteRow("consensus", omega, seed, detection_metrics(removed, flip_mask)))
            removed = majority_detect(member_preds, mlr_proba, test_ids, assigned, removal_count)
            rows.append(DetectionSuiteRow("majority", omega, seed, detection_metrics(removed, flip_mask)))
    return rows


def _mean_std(values: list[float]) -> tuple[float | None, float | None]:
    known = [v for v in values if v is not None]
    if not known:
        return None, None
    arr = np.asarray(known)
    return float(arr.mean()), float(arr.std())


def summarize_detection(rows: list[DetectionSuiteRow]) -> dict:
    """Mean and stddev of each metric per (method, omega), None-safe."""
    cells: dict[tuple[str, float], list[DetectionSuiteRow]] = {}
    for row in rows:
        cells.setdefault((row.method, row.omega), []).append(row)
    out = {}
    for (method, omega), group in sorted(cells.items()):
        entry = {"seeds": len(group)}
        for name in ("er1", "er2", "nep"):
            mean, std = _mean_std([getattr(r.metrics, name) for r in group])
            entry[name] = mean
            entry[f"{name}_std"] = std
        auc_mean, auc_std = _mean_std([r.auc for r in group])
        entry["auc"] = auc_mean
        entry["auc_std"] = auc_std
        out[f"{method}@omega={omega:g}"] = entry
    return out


def summarize_learning(logs: list[ExperimentLog]) -> dict:
    """Mean and stddev of final accuracy per mode across seeds."""
    groups: dict[str, list[ExperimentLog]] = {}
    for log in logs:
        groups.setdefault(log.mode, []).append(log)
    out = {}
    for mode, group in sorted(groups.items()):
        finals = [g.final_accuracy for g in group]
        mean, std = _mean_std(finals)
        out[mode] = {"final_accuracy": mean, "final_accuracy_std": std, "seeds": len(group)}
    return out


# ---------------------------------------------------------------------------
# result files


def _csv_cell(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


RESULTS_HEADER = ["run_id", "seed", "mode", "omega", "batch", "accuracy", "er1", "er2", "nep", "removed", "kept"]


def learning_result_rows(log: ExperimentLog) -> list[dict]:
    run_id = f"{log.mode}-omega{log.omega:g}-seed{log.seed}"
    return [
        {
            "run_id": run_id,
            "seed": log.seed,
            "mode": log.mode,
            "omega": log.omega,
            "batch": r.batch,
            "accuracy": r.accuracy,
            "er1": r.er1,
            "er2": r.er2,
            "nep": r.nep,
            "removed": r.removed,
            "kept": r.kept,
        }
        for r in log.records
    ]


def detection_result_rows(rows: list[DetectionSuiteRow]) -> list[dict]:
    out = []
    for row in rows:
        m = row.metrics
        out.append(
            {
                "run_id": f"{row.method}-omega{row.omega:g}-seed{row.seed}",
                "seed": row.seed,
                "mode": row.method,
                "omega": row.omega,
                "batch": "",
                "accuracy": "",
                "er1": m.er1,
                "er2": m.er2,
                "nep": m.nep,
                "removed": m.removed,
                "kept": m.correct_total + m.mislabeled_total - m.removed,
            }
        )
    return out


def write_results_csv(path: str | Path, rows: list[dict]) -> None:
    with Path(path).open("w") as fh:
        fh.write(",".join(RESULTS_HEADER) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(row.get(k)) for k in RESULTS_HEADER) + "\n")


def write_summary_json(path: str | Path, summary: dict) -> None:
    with Path(path).open("w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# key=value config files

_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


# converter of every top-level key and every synthetic.* key
_KEY_TYPES = {
    **dict.fromkeys(("n_batches", "cora_fold", "mlr_epochs", "knn_k"), int),
    **dict.fromkeys(("query_fraction", "omega", "beta", "test_fraction", "mlr_learning_rate", "mlr_l2", "epsilon"), float),
    **dict.fromkeys(("selection", "mode", "noise", "cora_content", "cora_cites"), str),
    "replay": lambda v: _BOOLEANS[v.lower()],
    "seeds": lambda v: [int(t) for t in v.replace(",", " ").split()],
    "omegas": lambda v: [float(t) for t in v.replace(",", " ").split()],
    "betas": lambda v: [float(t) for t in v.replace(",", " ").split()],
    "mlr_batch_size": lambda v: None if v.lower() == "none" else int(v),
}
_SYN_KEY_TYPES = {
    **dict.fromkeys(
        ("n_classes", "n_features", "instances_per_class", "m_attribute_classes",
         "links_per_instance", "attributes_per_instance", "seed"),
        int,
    ),
    **dict.fromkeys(("concentration", "separation", "noise_scale"), float),
}


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse the documented ``key = value`` format (# starts a comment).

    Every error names ``source:line`` when one line is at fault.  Booleans
    are true/false, yes/no or 1/0, in any case.
    """
    values: dict[str, tuple[str, str]] = {}  # key -> (value, "source:line")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        values[key] = (value, where)

    def typed(key: str, types: dict):
        value, where = values[key]
        convert = types.get(key.removeprefix("synthetic."))
        if convert is None:
            raise ConfigError(f"{where}: unknown config key: {key}")
        try:
            return convert(value)
        except (KeyError, ValueError):
            raise ConfigError(f"{where}: bad value {value!r} for {key}") from None

    if "dataset" not in values:
        raise ConfigError("missing required config key: dataset")
    kind, kind_where = values.pop("dataset")

    config = ExperimentConfig(dataset_kind=kind)
    if kind == "synthetic":
        for required in ("n_classes", "n_features", "instances_per_class"):
            if f"synthetic.{required}" not in values:
                raise ConfigError(f"missing required config key: synthetic.{required}")
        config.synthetic = SyntheticConfig(**{
            key.removeprefix("synthetic."): typed(key, _SYN_KEY_TYPES)
            for key in values
            if key.startswith("synthetic.")
        })
    elif kind == "cora":
        stray = next((key for key in values if key.startswith("synthetic.")), None)
        if stray is not None:
            raise ConfigError(f"{values[stray][1]}: {stray} does not apply to dataset = cora", stray)
    else:
        raise ConfigError(f"{kind_where}: unknown dataset kind {kind!r}")

    for key in values:
        if not key.startswith("synthetic."):
            setattr(config, key, typed(key, _KEY_TYPES))

    try:
        config.validate()
    except ConfigError as exc:
        if exc.key in values:
            raise ConfigError(f"{values[exc.key][1]}: {exc}", exc.key) from None
        raise
    return config


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    return parse_config(path.read_text(), source=str(path))

