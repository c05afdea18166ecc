"""Datasets with known ground truth: CORA-format loading, synthetic generation, batching.

File formats
------------
CORA content file, one instance per line, tab separated::

    <id> <f_1> ... <f_d> <label>

with f_i in {0, 1}.  Cites file, one citation per line::

    <cited_id> <citing_id>

Citations are folded into undirected links; self-citations are dropped.
Label strings are mapped to class indices by lexicographic order so the
mapping does not depend on file order.

Synthetic datasets use a line-oriented text format: a header line
``n m d count seed`` followed by one record per instance::

    <id> <label> <d floats> | <linked ids> | <obs floats> ; <obs floats> ; ...

Floats are written with repr precision and round-trip exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# One-hot attribute observations are smoothed with this mass so attribute
# node potentials are never degenerate.
ATTRIBUTE_SMOOTHING = 0.01


class CoraFormatError(ValueError):
    """Raised for malformed CORA-format files, with file and line context."""


@dataclass(eq=False)
class Instance:
    """One data point: features, label, attribute observations and links.

    ``true_label`` is the hidden ground truth; annotated labels travel beside
    the ids, never on the instance.  ``attribute_obs`` holds one
    distribution over the m attribute classes per observed attribute.
    """

    id: int
    features: np.ndarray
    true_label: int
    attribute_obs: list[np.ndarray] = field(default_factory=list)
    link_ids: list[int] = field(default_factory=list)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.id == other.id
            and self.true_label == other.true_label
            and np.array_equal(self.features, other.features)
            and len(self.attribute_obs) == len(other.attribute_obs)
            and all(np.array_equal(a, b) for a, b in zip(self.attribute_obs, other.attribute_obs))
            and self.link_ids == other.link_ids
        )


def _indptr(counts: Sequence[int]) -> np.ndarray:
    indptr = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    return indptr


@dataclass(frozen=True)
class CsrIndex:
    """Per-row slices of one stacked array: row r owns
    ``values[indptr[r]:indptr[r + 1]]``."""

    indptr: np.ndarray  # (N + 1,)
    values: np.ndarray  # (indptr[-1], ...)

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The slices of ``rows`` stacked in order, plus their own indptr."""
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        indptr = _indptr(counts)
        positions = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], counts)
        return self.values[positions], indptr


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def _feature_store(instances: Sequence[Instance]) -> np.ndarray:
    """One read-only (N, d) float matrix of the instances' features."""
    if not instances:
        return _read_only(np.empty((0, 0)))
    d = instances[0].features.shape
    for inst in instances:
        if inst.features.shape != d or len(d) != 1:
            raise ValueError(f"instance {inst.id}: feature length {inst.features.shape} != {d}")
    return _read_only(np.array([inst.features for inst in instances], dtype=float))


@dataclass(eq=False)
class Dataset:
    """Immutable collection of instances with symmetric link structure.

    Construction indexes the instances by row, in list order: ``features``
    is one read-only (N, d) matrix whose rows the instances' ``features``
    become views of, ``links`` maps a row to its neighbours' rows and
    ``attributes`` to its stacked attribute observations, both as CSR.
    """

    instances: list[Instance]
    n_classes: int
    m_attribute_classes: int
    class_names: list[str]
    seed: int = -1

    def __post_init__(self) -> None:
        self._rows = {inst.id: row for row, inst in enumerate(self.instances)}
        if len(self._rows) != len(self.instances):
            raise ValueError("duplicate instance ids")
        self.features = _feature_store(self.instances)
        for row, inst in enumerate(self.instances):
            inst.features = self.features[row]
            for obs in inst.attribute_obs:
                if obs.shape != (self.m_attribute_classes,):
                    raise ValueError(f"instance {inst.id}: attribute observation has wrong length")
        link_counts = [len(inst.link_ids) for inst in self.instances]
        obs_counts = [len(inst.attribute_obs) for inst in self.instances]
        neighbours = self.rows(v for inst in self.instances for v in inst.link_ids)
        stacked = [obs for inst in self.instances for obs in inst.attribute_obs]
        observations = np.array(stacked, dtype=float) if stacked else np.empty((0, self.m_attribute_classes))
        self.links = CsrIndex(_read_only(_indptr(link_counts)), _read_only(neighbours))
        self.attributes = CsrIndex(_read_only(_indptr(obs_counts)), _read_only(observations))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.n_classes == other.n_classes
            and self.m_attribute_classes == other.m_attribute_classes
            and self.class_names == other.class_names
            and self.instances == other.instances
        )

    def __len__(self) -> int:
        return len(self.instances)

    def rows(self, instance_ids: Iterable[int]) -> np.ndarray:
        """Row of each id in ``instances``, ``features`` and the CSR indexes."""
        try:
            return np.fromiter((self._rows[i] for i in instance_ids), dtype=np.intp)
        except KeyError as exc:
            raise KeyError(f"unknown instance id {exc.args[0]}") from None

    def by_id(self, instance_id: int) -> Instance:
        try:
            return self.instances[self._rows[instance_id]]
        except KeyError:
            raise KeyError(f"unknown instance id {instance_id}") from None

    def ids(self) -> list[int]:
        return [inst.id for inst in self.instances]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def feature_matrix(self, instance_ids: Sequence[int]) -> np.ndarray:
        return self.features[self.rows(instance_ids)]

    def true_labels(self, instance_ids: Sequence[int]) -> np.ndarray:
        return np.array([self.by_id(i).true_label for i in instance_ids], dtype=int)

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on the first failure.

        Feature and attribute-observation lengths are already checked at
        construction.
        """
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        # the link rules, checked on the whole CSR index at once; the per-link
        # checks below run only when that fails, to name the first broken link
        indptr, neighbours = self.links.indptr, self.links.values
        rows = np.repeat(np.arange(len(self)), np.diff(indptr))
        links_ok = not (rows == neighbours).any() and np.array_equal(
            np.sort(rows * len(self) + neighbours), np.sort(neighbours * len(self) + rows)
        )
        for inst in self.instances:
            if not 0 <= inst.true_label < self.n_classes:
                raise ValueError(f"instance {inst.id}: true_label {inst.true_label} out of range")
            for obs in inst.attribute_obs:
                if (obs < 0).any() or abs(float(obs.sum()) - 1.0) > 1e-9:
                    raise ValueError(f"instance {inst.id}: attribute observation is not a distribution")
            if links_ok:
                continue
            if inst.id in inst.link_ids:
                raise ValueError(f"instance {inst.id}: self-link")
            for other in inst.link_ids:
                if inst.id not in self.by_id(other).link_ids:
                    raise ValueError(f"link {inst.id}->{other} is not symmetric")


@dataclass
class BatchPlan:
    """Ordered partition of training ids; batch 0 is the initial labeled pool."""

    batches: list[list[int]]

    def all_ids(self) -> list[int]:
        return [i for batch in self.batches for i in batch]


@dataclass
class SyntheticConfig:
    """Knobs for the synthetic generator.

    ``concentration`` in [0, 1] mixes a one-hot co-occurrence row (peaked on
    the instance's own class) with the uniform distribution; 1.0 makes every
    link stay inside its class.  ``separation`` scales the class means and
    ``noise_scale`` the isotropic feature noise around them.
    """

    n_classes: int
    n_features: int
    instances_per_class: int
    m_attribute_classes: int = 0
    concentration: float = 0.9
    separation: float = 2.0
    noise_scale: float = 1.0
    links_per_instance: int = 4
    attributes_per_instance: int = 0
    seed: int = 0

    def checks(self) -> tuple[tuple[str, bool, str], ...]:
        """(field, holds, requirement) for every range rule; each is written
        so that NaN fails it."""
        return (
            ("n_classes", self.n_classes >= 2, "must be >= 2"),
            ("n_features", self.n_features >= 1, "must be positive"),
            ("instances_per_class", self.instances_per_class >= 1, "must be positive"),
            ("m_attribute_classes", self.m_attribute_classes >= 0, "must be >= 0"),
            ("concentration", 0.0 <= self.concentration <= 1.0, "must lie in [0, 1]"),
            ("separation", 0.0 <= self.separation < math.inf, "must be >= 0 and finite"),
            ("noise_scale", 0.0 <= self.noise_scale < math.inf, "must be >= 0 and finite"),
            ("links_per_instance", self.links_per_instance >= 0, "must be >= 0"),
            ("attributes_per_instance", self.attributes_per_instance >= 0, "must be >= 0"),
            ("seed", self.seed >= 0, "must be >= 0"),
            (
                "attributes_per_instance",
                self.attributes_per_instance == 0 or self.m_attribute_classes > 0,
                "> 0 requires m_attribute_classes > 0",
            ),
        )

    def validate(self) -> None:
        for name, holds, requirement in self.checks():
            if not holds:
                raise ValueError(f"{name} {requirement}")


@dataclass
class GroundTruth:
    """Generating quantities of a synthetic dataset, for oracle-style checks."""

    class_means: np.ndarray            # (n, d)
    data_conditionals: np.ndarray      # (n, n), row-stochastic
    attr_conditionals: np.ndarray | None  # (n, m) or None when m == 0


def _choice_cdfs(rows: np.ndarray) -> list[list[float]]:
    """Each row's CDF as ``Generator.choice`` normalizes it."""
    cdf = rows.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return cdf.tolist()


def generate_synthetic(config: SyntheticConfig) -> tuple[Dataset, GroundTruth]:
    """Sample a linked dataset whose context structure is known exactly.

    Features are drawn class-conditionally around separated class means.
    Each instance draws its neighbours' classes from the ground-truth
    co-occurrence row of its own class, and its attribute observations from
    the class-to-attribute row, encoded as smoothed one-hots.  Deterministic
    for a fixed seed.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    n, m, d = config.n_classes, config.m_attribute_classes, config.n_features
    per = config.instances_per_class
    total = n * per

    means = config.separation * rng.standard_normal((n, d))
    data_rows = config.concentration * np.eye(n) + (1.0 - config.concentration) / n
    attr_rows = None
    if m > 0:
        attr_rows = np.full((n, m), (1.0 - config.concentration) / m)
        attr_rows[np.arange(n), np.arange(n) % m] += config.concentration

    labels = np.repeat(np.arange(n), per)
    features = means[labels] + config.noise_scale * rng.standard_normal((total, d))

    # Draws are made one by one, in the order of the per-draw loop that
    # defined the stream: ``rng.choice(k, p=row)`` is one ``rng.random()``
    # bisected into the row's normalized CDF, and class z's pool is the id
    # range z*per .. z*per + per - 1, less u itself when z is u's class.
    random, integers = rng.random, rng.integers
    link_cdf = _choice_cdfs(data_rows)
    link_sets: list[set[int]] = [set() for _ in range(total)]
    for u, own in enumerate(labels.tolist()):
        cdf = link_cdf[own]
        for _ in range(config.links_per_instance):
            z = bisect_right(cdf, random())
            if z != own:
                v = z * per + int(integers(per))
            elif per > 1:
                v = z * per + int(integers(per - 1))
                v += v >= u  # skip u's own position
            else:
                continue
            link_sets[u].add(v)
            link_sets[v].add(u)

    if m > 0:
        attr_cdf = _choice_cdfs(attr_rows)
        one_hots = np.full((m, m), ATTRIBUTE_SMOOTHING / m)
        one_hots[np.arange(m), np.arange(m)] += 1.0 - ATTRIBUTE_SMOOTHING
    instances = []
    for u, own in enumerate(labels.tolist()):
        obs = []
        if m > 0:
            cdf = attr_cdf[own]
            obs = [one_hots[bisect_right(cdf, random())].copy() for _ in range(config.attributes_per_instance)]
        instances.append(
            Instance(
                id=u,
                features=features[u],
                true_label=own,
                attribute_obs=obs,
                link_ids=sorted(link_sets[u]),
            )
        )

    dataset = Dataset(
        instances=instances,
        n_classes=n,
        m_attribute_classes=m,
        class_names=[f"class_{c}" for c in range(n)],
        seed=config.seed,
    )
    dataset.validate()
    return dataset, GroundTruth(means, data_rows, attr_rows)


def load_cora(content_path: str | Path, cites_path: str | Path) -> Dataset:
    """Load a CORA-format content/cites file pair into a Dataset with m=0."""
    content_path, cites_path = Path(content_path), Path(cites_path)
    raw: list[tuple[int, np.ndarray, str]] = []
    d: int | None = None
    with content_path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) < 3:
                raise CoraFormatError(f"{content_path}:{lineno}: expected id, features and label")
            if d is None:
                d = len(parts) - 2
            elif len(parts) - 2 != d:
                raise CoraFormatError(f"{content_path}:{lineno}: expected {d} features, got {len(parts) - 2}")
            try:
                inst_id = int(parts[0])
            except ValueError:
                raise CoraFormatError(f"{content_path}:{lineno}: non-integer id {parts[0]!r}") from None
            # bools until the Dataset copies them into its float matrix, so
            # the float features are never held twice
            feats = np.empty(d, dtype=bool)
            for k, tok in enumerate(parts[1:-1]):
                if tok not in ("0", "1"):
                    raise CoraFormatError(f"{content_path}:{lineno}: feature {k} is {tok!r}, expected 0 or 1")
                feats[k] = tok == "1"
            label = parts[-1]
            if not label:
                raise CoraFormatError(f"{content_path}:{lineno}: empty label")
            raw.append((inst_id, feats, label))
    if not raw:
        raise CoraFormatError(f"{content_path}: no instances")

    class_names = sorted({label for _, _, label in raw})
    class_index = {name: i for i, name in enumerate(class_names)}
    known_ids = {inst_id for inst_id, _, _ in raw}
    if len(known_ids) != len(raw):
        raise CoraFormatError(f"{content_path}: duplicate instance id")

    link_sets: dict[int, set[int]] = {inst_id: set() for inst_id in known_ids}
    with cites_path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise CoraFormatError(f"{cites_path}:{lineno}: expected cited_id and citing_id")
            try:
                cited, citing = int(parts[0]), int(parts[1])
            except ValueError:
                raise CoraFormatError(f"{cites_path}:{lineno}: non-integer id") from None
            for ref in (cited, citing):
                if ref not in known_ids:
                    raise CoraFormatError(f"{cites_path}:{lineno}: unknown instance id {ref}")
            if cited == citing:
                continue
            link_sets[cited].add(citing)
            link_sets[citing].add(cited)

    instances = [
        Instance(
            id=inst_id,
            features=feats,
            true_label=class_index[label],
            link_ids=sorted(link_sets[inst_id]),
        )
        for inst_id, feats, label in raw
    ]
    dataset = Dataset(
        instances=instances,
        n_classes=len(class_names),
        m_attribute_classes=0,
        class_names=class_names,
    )
    dataset.validate()
    return dataset


def save_cora(dataset: Dataset, content_path: str | Path, cites_path: str | Path) -> None:
    """Write a dataset back to CORA format.

    Load/save is a semantic round trip: link direction is not preserved
    (links are undirected), each link is written once as ``min_id max_id``,
    and the output is canonical, so save(load(save(x))) is byte-identical.
    """
    if dataset.m_attribute_classes != 0:
        raise ValueError("CORA format has no attribute observations")
    with Path(content_path).open("w") as fh:
        for inst in dataset.instances:
            feats = "\t".join(str(int(v)) for v in inst.features)
            fh.write(f"{inst.id}\t{feats}\t{dataset.class_names[inst.true_label]}\n")
    pairs = sorted(
        {(min(inst.id, other), max(inst.id, other)) for inst in dataset.instances for other in inst.link_ids}
    )
    with Path(cites_path).open("w") as fh:
        for a, b in pairs:
            fh.write(f"{a}\t{b}\n")


def _fmt_floats(values: Iterable[float]) -> str:
    return " ".join(repr(float(v)) for v in values)


def save_synthetic(dataset: Dataset, path: str | Path) -> None:
    """Serialize a dataset to the line-oriented text format (see module docs)."""
    with Path(path).open("w") as fh:
        fh.write(
            f"{dataset.n_classes} {dataset.m_attribute_classes} {dataset.n_features} "
            f"{len(dataset)} {dataset.seed}\n"
        )
        for inst in dataset.instances:
            links = " ".join(str(v) for v in inst.link_ids)
            obs = " ; ".join(_fmt_floats(o) for o in inst.attribute_obs)
            fh.write(f"{inst.id} {inst.true_label} {_fmt_floats(inst.features)} | {links} | {obs}\n")


def load_synthetic(path: str | Path) -> Dataset:
    """Load a dataset written by :func:`save_synthetic`."""
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().split()
        if len(header) != 5:
            raise ValueError(f"{path}:1: bad header, expected 'n m d count seed'")
        n, m, d, count, seed = (int(v) for v in header)
        instances = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            head, links_part, obs_part = (s.strip() for s in line.split("|"))
            head_tokens = head.split()
            inst_id, label = int(head_tokens[0]), int(head_tokens[1])
            feats = np.array([float(t) for t in head_tokens[2:]])
            if feats.shape != (d,):
                raise ValueError(f"{path}:{lineno}: expected {d} features")
            links = [int(t) for t in links_part.split()] if links_part else []
            obs = []
            if obs_part:
                for chunk in obs_part.split(";"):
                    vec = np.array([float(t) for t in chunk.split()])
                    if vec.shape != (m,):
                        raise ValueError(f"{path}:{lineno}: attribute observation length != {m}")
                    obs.append(vec)
            instances.append(
                Instance(id=inst_id, features=feats, true_label=label, attribute_obs=obs, link_ids=links)
            )
    if len(instances) != count:
        raise ValueError(f"{path}: header promises {count} instances, found {len(instances)}")
    dataset = Dataset(
        instances=instances,
        n_classes=n,
        m_attribute_classes=m,
        class_names=[f"class_{c}" for c in range(n)],
        seed=seed,
    )
    dataset.validate()
    return dataset


def split_batches(
    dataset: Dataset,
    n_batches: int,
    seed: int,
    ids: Sequence[int] | None = None,
) -> BatchPlan:
    """Shuffle and split ids into equal batches; batch 0 covers every class.

    Batch sizes are floor(N / n_batches), the last batch absorbing the
    remainder.  If batch 0 misses a class after the shuffle, an instance of
    that class is swapped in from a later batch, taking the first donor in
    scan order and displacing the first batch-0 member whose class appears
    at least twice.
    """
    if n_batches < 2:
        raise ValueError("n_batches must be >= 2")
    pool = sorted(ids) if ids is not None else sorted(dataset.ids())
    if len(pool) < n_batches:
        raise ValueError("more batches than instances")

    labels = {i: dataset.by_id(i).true_label for i in pool}
    present = set(labels.values())
    missing = [c for c in range(dataset.n_classes) if c not in present]
    if missing:
        raise ValueError(f"classes absent from dataset: {missing}")

    rng = np.random.default_rng(seed)
    order = [pool[k] for k in rng.permutation(len(pool))]
    base = len(order) // n_batches
    batches = [order[b * base : (b + 1) * base] for b in range(n_batches)]
    batches[-1].extend(order[n_batches * base :])

    first = batches[0]
    if len(first) < dataset.n_classes:
        raise ValueError("initial batch too small to cover every class")
    counts = np.zeros(dataset.n_classes, dtype=int)
    for i in first:
        counts[labels[i]] += 1
    for c in range(dataset.n_classes):
        if counts[c] > 0:
            continue
        donor = None
        for b in range(1, n_batches):
            for pos, i in enumerate(batches[b]):
                if labels[i] == c:
                    donor = (b, pos)
                    break
            if donor:
                break
        assert donor is not None  # class exists in pool, so it sits in some later batch
        recipient = next((pos for pos, i in enumerate(first) if counts[labels[i]] >= 2), None)
        if recipient is None:
            raise ValueError("initial batch too small to cover every class")
        b, pos = donor
        counts[labels[first[recipient]]] -= 1
        counts[c] += 1
        first[recipient], batches[b][pos] = batches[b][pos], first[recipient]

    return BatchPlan(batches=batches)
