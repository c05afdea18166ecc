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

Everything a run does before its first query depends on the seed alone:
the train/test split, the batches, batch 0's features and labels, and the
relationship model and classifier trained on them.  :func:`run_starts`
builds that :class:`RunStart` for many seeds at once, their classifiers in
one lock-step call; a run handed one as ``start`` reads its dataset, and
all else its seed shares, from the start alone.  A start keeps the caller's
config object as ``RunStart.config``; an :class:`ExperimentConfig` is
frozen, and valid from construction on, so no run can change what its
start was built from.  The CLI builds one start per seed and shares it
among all of that seed's runs; ``sweep`` also runs ``sn``, which ignores
beta, once per (omega, seed).

The runs of one start also share the batch steps that depend on nothing
but their inputs, through the start's ``cache``: the NAR transition
matrix, estimated from batch 0 by the first NAR run; a batch's
selection, by batch and classifier; its candidates' star divergences, by
batch, models and whether the run is pseudo-labeling; and its update, by
batch, models and rows: the retrained classifier, the updated relationship
model and the test accuracy.  Models are immutable and compare by
identity, so a run whose batch reaches the state another run reached takes
that run's models and keeps sharing until the two first differ.  Noise injection, removals
and metrics read omega, beta or the mode, and every run computes its own.
A run without a shared start begins with an empty cache.

A filtered batch computes its candidates' ``star_divergences`` once, from
the current models, and ``cnld_detect`` gathers its labels' scores from
them; the ``pb`` mode builds its ``suspicion_table`` per batch.
A candidate is flipped when its label differs from the true one;
ER1/ER2/NEP are reported for filtered batches.  With ``replay`` every
update retrains the classifier on all labels accepted so far, batch 0
included, instead of on the batch's kept labels alone.

:func:`run_detection_suite` is the pure detection benchmark: train on batch
0, inject noise into the evaluation split, and remove a fixed fraction with
every detector.  Each seed computes once, before its noise levels, every
detector's label-free table, with one entry per instance and label: the
star divergences with each star's context score under every label, the
main classifier's ``suspicion_table`` (its argmax and entropy) and the
aux ensemble's ``voting_table`` (each label's member disagreements and
the logistic member's confidence).  A noise level only gathers its
labels' entries from them and ranks.  The noise is drawn over the split
in split order, and the detectors see the split in ascending id order.
That order changes no result: a detector's removed set follows from
each id's keys, ties going to the lower id, the metrics only count, and
the AUC sums ranks.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .baselines import consensus_detect, majority_detect, probabilistic_detect, suspicion_table, voting_table
from .classifiers import (
    MlrConfig,
    MlrModel,
    TrainingDiverged,
    aux_predictions,
    entropy,
    predict_proba,
    train_aux,
    train_mlr,
    train_mlr_lockstep,
)
from .dataset import (
    FIELD_TYPES, ConfigError, Dataset, SyntheticConfig, _read_only, _whole_numbers, check_field_types, generate_synthetic,
    load_cora, split_batches,
)
from .detector import DEFAULT_BETA, cnld_detect, detect_topk, star_divergences
from .metrics import DetectionMetrics, accuracy, detection_metrics, first_k, ranking_auc
from .noise import inject_nar, inject_ncar, estimate_transition, _round_half_up
from .relationship import DEFAULT_SMOOTHING, RelationshipModel, build_relationship, update_relationship

LEARNING_MODES = ("sn", "pb", "cl", "cnld")
PSEUDO_MODES = ("manual", "manual_pseudo", "manual_pseudo_cnld")
FILTERED_MODES = ("pb", "cl", "cnld", "manual_pseudo_cnld")
SELECTION_STRATEGIES = ("entropy", "random")
NOISE_MODELS = ("ncar", "nar")
# the config keys a run may set apart from the start it is handed
RUN_KEYS = ("mode", "omega", "beta")

CORA_FOLDS = 10

# salts for deriving independent rng streams from one run seed
_SALT_SPLIT = 1
_SALT_TEST = 2
_SALT_SELECT = 3
_SALT_NOISE = 4
_SALT_MLR = 5
_SALT_AUX = 6


def derive_seed(seed: int, *salts: int) -> int:
    return int(np.random.SeedSequence([seed, *salts]).generate_state(1)[0])


@contextmanager
def _named_divergence(names: Sequence[str], keys: Sequence[str | None]):
    """Re-raise a :class:`TrainingDiverged` of member i under ``names[i]``,
    its seed and role.  A member whose rate is the config key ``keys[i]``
    fails as a :class:`ConfigError` keyed by it; one that trains at a fixed
    rate (key None) as a ValueError."""
    try:
        yield
    except TrainingDiverged as exc:
        name, key = names[exc.member], keys[exc.member]
        rate = f"{key or 'learning_rate'} {exc.learning_rate!r}"
        message = f"{name} trained to non-finite weights, bias or class scores at {rate}"
        raise (ValueError(message) if key is None else ConfigError(message, key)) from None


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, immutable and valid by construction: a value of the
    wrong type or out of range raises :class:`ConfigError` naming its key,
    and ``seeds``, ``omegas`` and ``betas`` are stored as tuples."""

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
    seeds: tuple[int, ...] = (0,)
    test_fraction: float = 0.3
    cora_fold: int = 0
    replay: bool = False
    omegas: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)
    betas: tuple[float, ...] = (0.80, 0.85, 0.90)
    mlr_learning_rate: float = 0.1
    mlr_l2: float = 1e-4
    mlr_epochs: int = 200
    mlr_batch_size: int | None = 32
    knn_k: int = 5
    # count smoothing; raise toward 1 (Laplace) when the labeled pool yields
    # few links per class, or near-zero cells overwhelm the leaf evidence
    epsilon: float = DEFAULT_SMOOTHING

    def __post_init__(self) -> None:
        check_field_types(self)
        for name in ("seeds", "omegas", "betas"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
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
            ("seeds", len(set(self.seeds)) == len(self.seeds), "must be distinct"),
            ("omegas", len(self.omegas) > 0 and all(0.0 <= w <= 1.0 for w in self.omegas), "must be values in [0, 1]"),
            ("omegas", len(set(self.omegas)) == len(self.omegas), "must be distinct"),
            ("omegas", len({f"{v:g}" for v in self.omegas}) == len(self.omegas), "must stay distinct when printed with :g"),
            ("betas", len(self.betas) > 0 and all(0.0 <= b < 1.0 for b in self.betas), "must be values in [0, 1)"),
            ("betas", len(set(self.betas)) == len(self.betas), "must be distinct"),
            ("betas", len({f"{v:g}" for v in self.betas}) == len(self.betas), "must stay distinct when printed with :g"),
            ("cora_fold", 0 <= self.cora_fold < CORA_FOLDS, f"must lie in [0, {CORA_FOLDS})"),
            ("epsilon", 0.0 < self.epsilon < math.inf, "must be positive and finite"),
            ("mlr_learning_rate", 0.0 < self.mlr_learning_rate < math.inf, "must be positive and finite"),
            ("mlr_l2", 0.0 <= self.mlr_l2 < math.inf, "must be >= 0 and finite"),
            ("mlr_epochs", self.mlr_epochs >= 1, "must be >= 1"),
            ("mlr_batch_size", self.mlr_batch_size is None or self.mlr_batch_size >= 1, "must be >= 1 or none"),
            ("knn_k", self.knn_k >= 1 and self.knn_k % 2 == 1, "must be a positive odd number"),
        )
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


def load_experiment_dataset(config: ExperimentConfig) -> Dataset:
    if config.dataset_kind == "synthetic":
        return generate_synthetic(config.synthetic)[0]
    return load_cora(config.cora_content, config.cora_cites)


def split_train_test(dataset: Dataset, config: ExperimentConfig, seed: int) -> tuple[list[int], list[int]]:
    """Synthetic: per-seed random test fraction.  CORA: one of 10 folds."""
    ids = np.sort(dataset.ids)
    rng = np.random.default_rng(derive_seed(seed, _SALT_TEST))
    order = ids[rng.permutation(len(ids))]
    if config.dataset_kind == "cora":
        key, test_pos = "cora_fold", np.array_split(np.arange(len(order)), CORA_FOLDS)[config.cora_fold]
    else:
        key, test_pos = "test_fraction", np.arange(_round_half_up(config.test_fraction * len(order)))
    n_train, n_test = len(order) - len(test_pos), len(test_pos)
    if n_test == 0:
        raise ConfigError(f"{key} leaves the test split empty: {n_train} train ids, 0 test ids", key)
    if n_train < config.n_batches:
        raise ConfigError(
            f"{key} leaves fewer train ids than n_batches = {config.n_batches}: "
            f"{n_train} train ids, {n_test} test ids",
            key,
        )
    train = np.delete(order, test_pos)
    missing = np.flatnonzero(np.bincount(dataset.true_labels(train), minlength=dataset.n_classes) == 0).tolist()
    if missing:
        raise ConfigError(
            f"{key} leaves no train ids of classes {missing}: {n_train} train ids, {n_test} test ids", key
        )
    return train.tolist(), order[test_pos].tolist()


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

    Entropy ties break toward the lower instance id, by :func:`first_k`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(batch_ids):
        raise ValueError("k exceeds the batch size")
    ordered = np.sort(_whole_numbers(batch_ids, what="ids"))
    if strategy == "random":
        rng = np.random.default_rng(seed)
        return ordered[rng.choice(len(ordered), size=k, replace=False)].tolist()
    if strategy != "entropy":
        raise ValueError(f"unknown selection strategy {strategy!r}")
    H = entropy(predict_proba(classifier, dataset.feature_matrix(ordered)))
    return ordered[first_k(ordered, k, -H)].tolist()


def _seed_prefix(config: ExperimentConfig, dataset: Dataset, seed: int):
    """A seed's batches and test ids, batch 0's features and true labels, the
    relationship model built on them, and the ``train_mlr_lockstep`` member
    of its initial classifier; the fit is the caller's."""
    n = dataset.n_classes
    train_ids, test_ids = split_train_test(dataset, config, seed)
    batches = split_batches(dataset, config.n_batches, derive_seed(seed, _SALT_SPLIT), ids=train_ids)
    pool_X, pool_y = dataset.feature_matrix(batches[0]), dataset.true_labels(batches[0])
    rel = build_relationship(dataset, dict(zip(batches[0], pool_y.tolist())), epsilon=config.epsilon)
    member = (None, pool_X, pool_y, config.mlr_config(n, derive_seed(seed, _SALT_MLR)))
    return batches, test_ids, pool_X, pool_y, rel, member


@dataclass(frozen=True, eq=False)
class RunStart:
    """What every run of one seed shares before its first query.

    ``config`` is the frozen config the start was built from, the caller's
    own object; a run may differ from it only in the :data:`RUN_KEYS`.
    Construction makes the arrays read-only; the models are immutable
    already.  ``cache`` holds the batch steps its runs have taken (see the
    module docstring).
    """

    seed: int
    config: ExperimentConfig
    dataset: Dataset
    batches: tuple[tuple[int, ...], ...]
    test_ids: tuple[int, ...]
    pool_X: np.ndarray
    pool_y: np.ndarray
    rel: RelationshipModel
    model: MlrModel
    cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pool_X", _read_only(self.pool_X))
        object.__setattr__(self, "pool_y", _read_only(self.pool_y))

    def check(self, config: ExperimentConfig, seed: int) -> None:
        """Raise ValueError unless a run of ``config`` and ``seed`` would have built this start."""
        if seed != self.seed:
            raise ValueError(f"run start was built for seed {self.seed}, not seed {seed}")
        differ = [
            f.name
            for f in fields(config)
            if f.name not in RUN_KEYS and getattr(config, f.name) != getattr(self.config, f.name)
        ]
        if differ:
            raise ValueError(f"run start was built from a config with other {', '.join(differ)}")


def run_starts(config: ExperimentConfig, dataset: Dataset, seeds: Sequence[int]) -> dict[int, RunStart]:
    """Each seed's :class:`RunStart`; the seeds' initial classifiers train
    together, in lock step where their shapes allow."""
    parts = {seed: _seed_prefix(config, dataset, seed) for seed in dict.fromkeys(seeds)}
    names = [f"the initial model of seed {seed}" for seed in parts]
    with _named_divergence(names, ["mlr_learning_rate"] * len(parts)):
        models = train_mlr_lockstep([member for *_, member in parts.values()])
    return {
        seed: RunStart(
            seed, config, dataset, tuple(map(tuple, batches)), tuple(test_ids), pool_X, pool_y, rel, model
        )
        for (seed, (batches, test_ids, pool_X, pool_y, rel, _)), model in zip(parts.items(), models)
    }


def run_active_learning(
    config: ExperimentConfig,
    seed: int | None = None,
    *,
    start: RunStart | None = None,
) -> ExperimentLog:
    """One noisy-annotation active-learning run; returns per-batch records.

    ``start`` (see :func:`run_starts`) supplies the seed's start, and with it
    the dataset, instead of loading and building them here.
    """
    if config.mode not in LEARNING_MODES:
        raise ConfigError(f"mode {config.mode!r} is not an active-learning mode", "mode")
    return _run_batches(config, seed, start)


def run_pseudo(
    config: ExperimentConfig,
    seed: int | None = None,
    *,
    start: RunStart | None = None,
) -> ExperimentLog:
    """Pseudo-labeling run: queried labels are correct, the rest of each batch
    gets classifier predictions, optionally filtered by the context detector.

    ``start`` is read as :func:`run_active_learning` reads it.
    """
    if config.mode not in PSEUDO_MODES:
        raise ConfigError(f"mode {config.mode!r} is not a pseudo-labeling mode", "mode")
    return _run_batches(config, seed, start)


def _run_batches(config: ExperimentConfig, seed: int | None, start: RunStart | None) -> ExperimentLog:
    """The batch loop behind both run functions; the mode table is in the
    module docstring."""
    seed = config.seeds[0] if seed is None else seed
    if start is None:
        start = run_starts(config, load_experiment_dataset(config), [seed])[seed]
    else:
        start.check(config, seed)
    dataset, batches, rel, model, cache = start.dataset, start.batches, start.rel, start.model, start.cache
    pseudo = config.mode in PSEUDO_MODES
    n = dataset.n_classes

    transition = None
    if not pseudo and config.noise == "nar":
        if "transition" not in cache:
            cache["transition"] = estimate_transition(start.pool_X, start.pool_y, n)
        transition = cache["transition"]

    X_test, y_test = dataset.feature_matrix(start.test_ids), dataset.true_labels(start.test_ids)
    accepted: list[tuple[int, int]] = list(zip(batches[0], start.pool_y.tolist()))
    records: list[BatchRecord] = []

    for t in range(1, config.n_batches):
        began = time.perf_counter()
        batch_ids = batches[t]
        key = ("select", t, model)
        if key not in cache:
            k = min(len(batch_ids), max(1, _round_half_up(config.query_fraction * len(batch_ids))))
            cache[key] = select_informative(
                model, dataset, batch_ids, k, config.selection, derive_seed(seed, _SALT_SELECT, t)
            )
        queried = cache[key]

        # fixed labels are trusted as given; candidates may be filtered
        if pseudo:
            fixed = list(zip(queried, dataset.true_labels(queried).tolist()))
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

        removed = np.zeros(len(candidates), dtype=bool)
        batch_metrics = None
        if candidates and config.mode in FILTERED_MODES:
            flipped = labels != dataset.true_labels(candidates)
            key = ("stars", t, model, rel, pseudo)  # the batch and model fix the candidates
            if key not in cache:
                cache[key] = star_divergences(candidates, dataset, model, rel)
            removed, _ = cnld_detect(candidates, labels, cache[key], config.beta)
            budget = int(removed.sum())
            if config.mode == "pb":
                suspicion = suspicion_table(predict_proba(model, dataset.feature_matrix(candidates)))
                removed = probabilistic_detect(suspicion, candidates, labels, budget)
            elif config.mode == "cl":  # drop truly flipped labels only, up to the cnld budget
                removed = np.zeros(len(candidates), dtype=bool)
                removed[first_k(candidates, min(budget, int(flipped.sum())), ~flipped)] = True
            batch_metrics = detection_metrics(removed, flipped)

        kept = fixed + [(i, int(c)) for i, c, r in zip(candidates, labels, removed) if not r]
        if kept:
            accepted.extend(kept)
            rows = accepted if config.replay else kept
            key = ("update", t, model, rel, tuple(rows), tuple(kept))
            if key not in cache:
                X = dataset.feature_matrix([i for i, _ in rows])
                y = np.array([c for _, c in rows])
                with _named_divergence([f"the model of seed {seed} updated at batch {t}"], ["mlr_learning_rate"]):
                    fitted = train_mlr(model, X, y, config.mlr_config(n, derive_seed(seed, _SALT_MLR, t)))
                updated = update_relationship(rel, dataset, dict(kept))
                cache[key] = fitted, updated, accuracy(fitted, X_test, y_test)
            model, rel, score = cache[key]
        else:
            score = accuracy(model, X_test, y_test)

        records.append(
            BatchRecord(
                batch=t,
                accuracy=score,
                removed=int(removed.sum()),
                kept=len(kept),
                er1=batch_metrics.er1 if batch_metrics else None,
                er2=batch_metrics.er2 if batch_metrics else None,
                nep=batch_metrics.nep if batch_metrics else None,
                queried=list(queried),
                elapsed=time.perf_counter() - began,
            )
        )
    return ExperimentLog(mode=config.mode, omega=config.omega, seed=seed, records=records)


def run_detection_suite(config: ExperimentConfig) -> list[DetectionSuiteRow]:
    """Fixed-budget detection benchmark over methods x noise levels x seeds.

    Trains on batch 0 only, injects noise into the evaluation split and
    removes exactly the injected fraction with each detector.  The noise is
    drawn in split order and the detectors read the split in id order, the
    order their rankings sort fastest.  The order changes no result: a
    removed set follows from the ids' keys, ties going to the lower id.
    """
    dataset = load_experiment_dataset(config)
    n = dataset.n_classes
    rows: list[DetectionSuiteRow] = []

    # Every seed's main model (the mlr_* keys) and the logistic member of
    # its aux ensemble (MlrConfig defaults) train together, in lock step.
    parts = [_seed_prefix(config, dataset, seed) for seed in config.seeds]
    aux_members = [
        (None, pool_X, pool_y, MlrConfig(n_classes=n, seed=derive_seed(seed, _SALT_AUX)))
        for seed, (_, _, pool_X, pool_y, _, _) in zip(config.seeds, parts)
    ]
    names = [f"the main model of seed {seed}" for seed in config.seeds]
    names += [f"the aux logistic member of seed {seed}" for seed in config.seeds]
    keys = ["mlr_learning_rate"] * len(parts) + [None] * len(parts)  # the aux member trains at MlrConfig's rate
    with _named_divergence(names, keys):
        models = train_mlr_lockstep([member for *_, member in parts] + aux_members)
    # every seed's pool (batch 0) holds n_train // n_batches ids, so one
    # knn_k serves them all: clipped to the pool, and an even one made odd;
    # their ensembles train in one call
    knn_k = min(config.knn_k, len(aux_members[0][1]))
    if knn_k % 2 == 0:
        knn_k -= 1
    auxes = train_aux(
        [(pool_X, pool_y, mlr) for (_, pool_X, pool_y, _), mlr in zip(aux_members, models[len(parts) :])],
        knn_k,
        config.dataset_kind == "synthetic",
    )

    for seed, (_, test_ids, pool_X, pool_y, rel, _), model, aux in zip(config.seeds, parts, models, auxes):
        y_test = dataset.true_labels(test_ids)
        # every detector's table holds its label-free half, for each label
        # of each instance, and serves every noise level
        split = np.asarray(test_ids)
        by_id = np.argsort(split)
        ids = split[by_id]
        X_test = dataset.feature_matrix(ids)
        divergences = star_divergences(ids, dataset, model, rel)
        suspicion = suspicion_table(predict_proba(model, X_test))
        votes = voting_table(aux_predictions(aux, X_test), predict_proba(aux.mlr, X_test))

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
            assigned, flipped = noise_plan.assigned[by_id], noise_plan.flipped[by_id]

            removed, scores = detect_topk(ids, assigned, divergences, removal_count)
            auc = ranking_auc(scores, flipped) if 0 < flipped.sum() < len(test_ids) else None
            rows.append(DetectionSuiteRow("cnld", omega, seed, detection_metrics(removed, flipped), auc))
            removed = probabilistic_detect(suspicion, ids, assigned, removal_count)
            rows.append(DetectionSuiteRow("probabilistic", omega, seed, detection_metrics(removed, flipped)))
            removed = consensus_detect(votes, ids, assigned, removal_count)
            rows.append(DetectionSuiteRow("consensus", omega, seed, detection_metrics(removed, flipped)))
            removed = majority_detect(votes, ids, assigned, removal_count)
            rows.append(DetectionSuiteRow("majority", omega, seed, detection_metrics(removed, flipped)))
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
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


RESULTS_HEADER = ["run_id", "seed", "mode", "omega", "batch", "accuracy", "er1", "er2", "nep", "removed", "kept"]


def result_row(**cells) -> dict:
    """A results-file row: every column of RESULTS_HEADER, None where none is given."""
    unknown = cells.keys() - set(RESULTS_HEADER)
    if unknown:
        raise ValueError(f"unknown results column(s) {sorted(unknown)}")
    return {column: cells.get(column) for column in RESULTS_HEADER}


def learning_result_rows(log: ExperimentLog) -> list[dict]:
    run_id = f"{log.mode}-omega{log.omega:g}-seed{log.seed}"
    # every column from batch on is a BatchRecord field of the same name
    return [
        result_row(
            run_id=run_id, seed=log.seed, mode=log.mode, omega=log.omega,
            **{column: getattr(r, column) for column in RESULTS_HEADER[RESULTS_HEADER.index("batch"):]},
        )
        for r in log.records
    ]


def detection_result_rows(rows: list[DetectionSuiteRow]) -> list[dict]:
    return [
        result_row(
            run_id=f"{row.method}-omega{row.omega:g}-seed{row.seed}", seed=row.seed, mode=row.method, omega=row.omega,
            er1=row.metrics.er1, er2=row.metrics.er2, nep=row.metrics.nep, removed=row.metrics.removed,
            kept=row.metrics.correct_total + row.metrics.mislabeled_total - row.metrics.removed,
        )
        for row in rows
    ]


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

# converter of every top-level key and every synthetic.* key, by its field's
# annotation: a field whose annotation has no converter fails here, at import
_KEY_TYPES = {
    f.name: FIELD_TYPES[f.type][0] for f in fields(ExperimentConfig) if f.name not in ("dataset_kind", "synthetic")
}
_SYN_KEY_TYPES = {f.name: FIELD_TYPES[f.type][0] for f in fields(SyntheticConfig)}


def config_lines(text: str, source: str = "<config>") -> dict[str, tuple[str, str]]:
    """``key -> (value, "source:line")`` of every line of a config text that
    sets a key; a line that is not ``key = value`` or repeats a key raises
    :class:`ConfigError` naming it."""
    values: dict[str, tuple[str, str]] = {}
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
    return values


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse the documented ``key = value`` format (# starts a comment).

    Every error names ``source:line`` when one line is at fault.  Booleans
    are true/false, yes/no or 1/0, in any case.
    """
    values = config_lines(text, source)

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

    kwargs = {"dataset_kind": kind}
    if kind == "synthetic":
        for required in ("n_classes", "n_features", "instances_per_class"):
            if f"synthetic.{required}" not in values:
                raise ConfigError(f"missing required config key: synthetic.{required}")
        synthetic = {
            key.removeprefix("synthetic."): typed(key, _SYN_KEY_TYPES)
            for key in values
            if key.startswith("synthetic.")
        }
    elif kind == "cora":
        stray = next((key for key in values if key.startswith("synthetic.")), None)
        if stray is not None:
            raise ConfigError(f"{values[stray][1]}: {stray} does not apply to dataset = cora", stray)
    else:
        raise ConfigError(f"{kind_where}: unknown dataset kind {kind!r}")

    for key in values:
        if not key.startswith("synthetic."):
            kwargs[key] = typed(key, _KEY_TYPES)

    try:
        if kind == "synthetic":
            kwargs["synthetic"] = SyntheticConfig(**synthetic)
        return ExperimentConfig(**kwargs)
    except ConfigError as exc:
        if exc.key in values:
            raise ConfigError(f"{values[exc.key][1]}: {exc}", exc.key) from None
        raise


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    return parse_config(path.read_text(), source=str(path))

