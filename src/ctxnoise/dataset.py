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
import numbers
from bisect import bisect_right
from collections.abc import Iterator, MappingView, Set
from dataclasses import InitVar, dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# One-hot attribute observations are smoothed with this mass so attribute
# node potentials are never degenerate.
ATTRIBUTE_SMOOTHING = 0.01


class CoraFormatError(ValueError):
    """Raised for malformed CORA-format files, with file and line context."""


class InstanceError(ValueError):
    """A :class:`Dataset` invariant that one instance breaks; ``row`` is its
    row in the arrays the dataset was given."""

    def __init__(self, message: str, row: int) -> None:
        super().__init__(message)
        self.row = row


class ConfigError(ValueError):
    """Bad or missing experiment configuration; ``key`` names the config key
    at fault, when there is one."""

    def __init__(self, message: str, key: str | None = None) -> None:
        super().__init__(message)
        self.key = key


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _items(convert, check):
    """A tuple field's converter and check: a config file separates its
    values by commas or spaces; Python may pass any non-string sequence."""
    return (
        lambda v: [convert(t) for t in v.replace(",", " ").split()],
        lambda v: isinstance(v, Sequence) and not isinstance(v, (str, bytes)) and all(map(check, v)),
    )


# per config field annotation: the converter of a config-file value (a
# KeyError or ValueError is a bad value) and the check of a Python value
FIELD_TYPES = {
    "int": (int, _is_int),
    "float": (float, _is_real),
    "str": (str, lambda v: isinstance(v, str)),
    "str | None": (str, lambda v: v is None or isinstance(v, str)),
    "bool": (lambda v: _BOOLEANS[v.lower()], lambda v: isinstance(v, (bool, np.bool_))),
    "int | None": (lambda v: None if v.lower() == "none" else int(v), lambda v: v is None or _is_int(v)),
    "tuple[int, ...]": _items(int, _is_int),
    "tuple[float, ...]": _items(float, _is_real),
}


def check_field_types(config, prefix: str = "") -> None:
    """Raise a :class:`ConfigError` keyed ``prefix + name`` at the first
    field of a config dataclass whose value is not of its annotated type;
    a field whose annotation :data:`FIELD_TYPES` lacks is not checked."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in FIELD_TYPES and not FIELD_TYPES[f.type][1](value):
            raise ConfigError(f"{prefix}{f.name} must be {f.type}, got {value!r}", prefix + f.name)


@dataclass(eq=False)
class Instance:
    """One data point as a record, for building a :class:`Dataset` by hand.

    ``attribute_obs`` holds one distribution over the m attribute classes
    per observed attribute; ``link_ids`` names the linked instances.
    """

    id: int
    features: np.ndarray
    true_label: int
    attribute_obs: list[np.ndarray] = field(default_factory=list)
    link_ids: list[int] = field(default_factory=list)


def _indptr(counts: Sequence[int]) -> np.ndarray:
    indptr = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    return indptr


@dataclass(frozen=True, eq=False)
class CsrIndex:
    """Per-row slices of one stacked array: row r owns
    ``values[indptr[r]:indptr[r + 1]]``.  Both arrays are read-only copies."""

    indptr: np.ndarray  # (N + 1,)
    values: np.ndarray  # (indptr[-1], ...)

    def __post_init__(self) -> None:
        object.__setattr__(self, "indptr", _read_only(np.array(self.indptr, dtype=np.intp)))
        object.__setattr__(self, "values", _read_only(np.array(self.values)))

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The slices of ``rows`` stacked in order, plus their own indptr."""
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        indptr = _indptr(counts)
        positions = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], counts)
        return self.values[positions], indptr

    def owners(self) -> np.ndarray:
        """The row of every value."""
        return np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def _freeze_arrays(record, *names: str, dtype=None) -> None:
    """Set each named array field of a frozen record, unless None, to a read-only copy of ``dtype``."""
    for name in names:
        if getattr(record, name) is not None:
            object.__setattr__(record, name, _read_only(np.array(getattr(record, name), dtype=dtype)))


def _whole_numbers(values, n: int | None = None, what: str = "labels") -> np.ndarray:
    """``values`` as an int array, after checking that every entry is a
    whole number that an int64 holds and, given ``n``, lies in [0, n).  A
    fraction, NaN, an infinity, None, a string or a float of magnitude
    2**63 or more raises ValueError naming the first such entry, rather
    than being truncated or wrapped; so does the first out-of-range one.
    ``values`` is a sequence or an array: an iterator, a generator, a set
    or a dict view raises TypeError naming its type, since ``np.asarray``
    would read it as one object.  Every entry point that takes class labels
    or instance ids calls this."""
    if isinstance(values, (Iterator, Set, MappingView)):
        raise TypeError(f"{what} must be a sequence or an array, got {type(values).__name__}")
    y = np.asarray(values)
    if y.dtype.kind not in "biu":
        real = (v if isinstance(v, numbers.Real) else math.nan for v in y.flat)  # None or a string reads as NaN
        f = y.ravel() if y.dtype.kind == "f" else np.fromiter(real, dtype=float, count=y.size)
        with np.errstate(invalid="ignore"):  # NaN fails both tests
            whole = (np.abs(f) < 2.0**63) & (f == np.trunc(f))
        if not whole.all():
            raise ValueError(f"{what} must be integer-valued, got {y.flat[np.argmin(whole)]}")
    y = y.astype(int, copy=False)
    if n is not None and y.size and (y.min() < 0 or y.max() >= n):
        raise ValueError(f"{what} must lie in [0, {n}), got {y[(y < 0) | (y >= n)].flat[0]}")
    return y


def _id_order(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows in ascending id order, and the ids in that order."""
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    if (sorted_ids[1:] == sorted_ids[:-1]).any():
        raise ValueError("duplicate instance ids")
    return order, sorted_ids


def _find_rows(order: np.ndarray, sorted_ids: np.ndarray, wanted) -> np.ndarray:
    """Row of each wanted id, from ``_id_order``; raises KeyError on the
    first unknown one."""
    wanted = np.asarray(wanted)
    pos = np.searchsorted(sorted_ids, wanted)
    found = pos < len(sorted_ids)
    found[found] = sorted_ids[pos[found]] == wanted[found]
    if not found.all():
        raise KeyError(f"unknown instance id {wanted[~found][0]}")
    return order[pos]


def _link_index(heads: np.ndarray, tails: np.ndarray, order: np.ndarray) -> CsrIndex:
    """CSR of the undirected links ``heads[k]``--``tails[k]`` (rows), each
    listed once at both ends with its neighbours in ascending id order;
    ``order`` lists the rows in ascending id order."""
    n = len(order)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    heads, tails = heads.astype(np.int64), tails.astype(np.int64)
    keys = np.sort(np.concatenate([heads * n + rank[tails], tails * n + rank[heads]]))
    keys = keys[np.diff(keys, prepend=-1) != 0]  # np.unique would hash, which is slower here
    rows, ranks = np.divmod(keys, n)
    return CsrIndex(_indptr(np.bincount(rows, minlength=n)), order[ranks])


def _records(instances: Sequence[Instance], m: int) -> dict:
    """The arrays of a list of records, with the records' checks and messages."""
    ids = _whole_numbers([inst.id for inst in instances], what="ids")
    d = instances[0].features.shape if instances else (0,)
    for inst in instances:
        if inst.features.shape != d or len(d) != 1:
            raise ValueError(f"instance {inst.id}: feature length {inst.features.shape} != {d}")
        for obs in inst.attribute_obs:
            if obs.shape != (m,):
                raise ValueError(f"instance {inst.id}: attribute observation has wrong length")
    stacked = [obs for inst in instances for obs in inst.attribute_obs]
    return dict(
        ids=ids,
        labels=[inst.true_label for inst in instances],
        features=[inst.features for inst in instances] if instances else np.empty((0, 0)),
        links=CsrIndex(
            _indptr([len(inst.link_ids) for inst in instances]),
            _find_rows(*_id_order(ids), [v for inst in instances for v in inst.link_ids]),
        ),
        attributes=CsrIndex(
            _indptr([len(inst.attribute_obs) for inst in instances]),
            np.array(stacked, dtype=float).reshape(len(stacked), m),
        ),
    )


@dataclass(frozen=True, eq=False, kw_only=True)
class Dataset:
    """Instances with known classes and symmetric links, as read-only arrays.

    Row r holds instance ``ids[r]`` with true class ``labels[r]`` and
    feature vector ``features[r]``; ``links`` maps a row to its neighbours'
    rows and ``attributes`` to its stacked attribute observations (each a
    distribution over the m attribute classes), both as CSR, and None for
    none.  ``class_names`` names each of the ``n_classes`` classes, held as
    a tuple whatever sequence is given.
    Rows keep their input order, and the arrays are read-only copies.
    Construction checks every invariant (at least 2 classes, labels in
    range, finite features, observations that are distributions, symmetric
    links without self-links) and raises :class:`InstanceError` naming the
    first instance, in row order, that breaks one.

    ``Dataset(instances=[Instance(...), ...], n_classes=..., ...)`` builds
    the same arrays from a list of records instead.
    """

    ids: np.ndarray = None           # (N,) int
    labels: np.ndarray = None        # (N,) int
    features: np.ndarray = None      # (N, d) float
    links: CsrIndex = None           # neighbour rows
    attributes: CsrIndex = None      # (., m) observations
    n_classes: int
    m_attribute_classes: int
    class_names: tuple[str, ...]
    seed: int = -1
    instances: InitVar[Sequence[Instance] | None] = None

    def __post_init__(self, instances: Sequence[Instance] | None) -> None:
        m = self.m_attribute_classes
        if instances is None:
            arrays = {name: getattr(self, name) for name in ("ids", "labels", "features", "links", "attributes")}
        elif self.ids is not None:
            raise TypeError("pass either instances or the arrays, not both")
        else:
            arrays = _records(instances, m)
        # labels get the whole-number check here; the range check below names the instance
        ids = arrays["ids"] = _read_only(np.array(_whole_numbers(arrays["ids"], what="ids"), dtype=np.int64))
        labels = arrays["labels"] = _read_only(np.array(_whole_numbers(arrays["labels"]), dtype=np.int64))
        features = arrays["features"] = _read_only(np.array(arrays["features"], dtype=float))
        n = len(ids)
        if arrays["links"] is None:
            arrays["links"] = CsrIndex(np.zeros(n + 1), np.empty(0, dtype=np.intp))
        if arrays["attributes"] is None:
            arrays["attributes"] = CsrIndex(np.zeros(n + 1), np.empty((0, m)))
        links, attributes = arrays["links"], arrays["attributes"]
        if not (
            ids.ndim == 1 and labels.shape == (n,) and features.ndim == 2 and len(features) == n
            and len(links.indptr) == len(attributes.indptr) == n + 1
            and links.indptr[-1] == len(links.values) and attributes.indptr[-1] == len(attributes.values)
            and attributes.values.shape[1:] == (m,) and ((links.values >= 0) & (links.values < n)).all()
        ):
            raise ValueError(f"dataset arrays do not describe {n} instances with {m} attribute classes")
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        object.__setattr__(self, "class_names", tuple(self.class_names))
        if len(self.class_names) != self.n_classes:
            raise ValueError(f"{len(self.class_names)} class names for {self.n_classes} classes")
        bad_label = (labels < 0) | (labels >= self.n_classes)
        bad_feature = ~np.isfinite(features).all(axis=1)
        obs = attributes.values
        bad_obs = ~((obs >= 0).all(axis=1) & (np.abs(obs.sum(axis=1) - 1.0) <= 1e-9))  # so that NaN fails
        owners, neighbours = links.owners(), links.values
        self_link = owners == neighbours
        forward, backward = np.sort(owners * n + neighbours), neighbours * n + owners
        # equal sorted keys prove every link has its return link; only a
        # one-way or a repeated link needs the search that finds which
        one_way = np.zeros_like(self_link)
        if not np.array_equal(forward, np.sort(backward)):
            one_way = forward[np.searchsorted(forward, backward).clip(max=len(forward) - 1)] != backward
        bad_obs_row = np.bincount(attributes.owners()[bad_obs], minlength=n) > 0
        bad_row = bad_label | bad_feature | bad_obs_row | (np.bincount(owners[self_link | one_way], minlength=n) > 0)
        if bad_row.any():
            r = int(bad_row.argmax())
            if bad_label[r]:
                raise InstanceError(f"instance {ids[r]}: true_label {labels[r]} out of range", r)
            if bad_feature[r]:
                raise InstanceError(f"instance {ids[r]}: non-finite feature", r)
            if bad_obs_row[r]:
                raise InstanceError(f"instance {ids[r]}: attribute observation is not a distribution", r)
            lo, hi = links.indptr[r], links.indptr[r + 1]
            if self_link[lo:hi].any():
                raise InstanceError(f"instance {ids[r]}: self-link", r)
            raise InstanceError(f"link {ids[r]}->{ids[neighbours[lo + one_way[lo:hi].argmax()]]} is not symmetric", r)
        for name, value in arrays.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_index", _id_order(ids))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        fields = ("ids", "labels", "features", "links.indptr", "links.values", "attributes.indptr", "attributes.values")
        return (self.n_classes, self.m_attribute_classes, self.class_names) == (
            other.n_classes, other.m_attribute_classes, other.class_names
        ) and all(np.array_equal(attrgetter(f)(self), attrgetter(f)(other)) for f in fields)

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self, instance_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Row of each id in the arrays; raises KeyError on an unknown id.
        The ids come as a sequence or an array, not as an iterator."""
        return _find_rows(*self._index, _whole_numbers(instance_ids, what="ids"))

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def feature_matrix(self, instance_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        return self.features[self.rows(instance_ids)]

    def true_labels(self, instance_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        return self.labels[self.rows(instance_ids)]


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the synthetic generator.

    ``concentration`` in [0, 1] mixes a one-hot co-occurrence row (peaked on
    the instance's own class) with the uniform distribution; 1.0 makes every
    link stay inside its class.  ``separation`` scales the class means and
    ``noise_scale`` the isotropic feature noise around them.  A value of
    the wrong type or out of range raises :class:`ConfigError` at
    construction, keyed ``synthetic.<field>``.
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

    def __post_init__(self) -> None:
        check_field_types(self, "synthetic.")
        # each check is written so that NaN fails it
        checks = (
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
        for name, ok, requirement in checks:
            if not ok:
                raise ConfigError(f"synthetic.{name} {requirement}", f"synthetic.{name}")


def synthetic_conditionals(config: SyntheticConfig) -> tuple[np.ndarray, np.ndarray | None]:
    """The generator's ground truth, which follows from the config with no
    draw: the (n, n) class co-occurrence rows that links are drawn from and
    the (n, m) class-to-attribute rows, None when m == 0."""
    n, m, c = config.n_classes, config.m_attribute_classes, config.concentration
    data_rows = c * np.eye(n) + (1.0 - c) / n
    attr_rows = None
    if m > 0:
        attr_rows = np.full((n, m), (1.0 - c) / m)
        attr_rows[np.arange(n), np.arange(n) % m] += c
    return data_rows, attr_rows


def _choice_cdfs(rows: np.ndarray) -> np.ndarray:
    """Each row's CDF as ``Generator.choice`` normalizes it."""
    cdf = rows.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return cdf


def _link_tails(rng: np.random.Generator, owners: np.ndarray, per: int, links: int, cdf: np.ndarray) -> np.ndarray:
    """The partners that ``links`` draws pick for each owner id, as the
    per-draw loop at the end of this function picks them, with the
    generator (a PCG64 ``Generator``) left as that loop leaves it.

    Draw k of owner u goes to tails[i * links + k], u being owners[i]: a
    class z bisected from ``rng.random()`` into the CDF row of u's class
    u // per, then a member of class z's id range z*per .. z*per + per - 1,
    less u itself when z is u's class, by ``rng.integers``; -1 marks a draw
    that found no partner.

    The draws are replayed from one ``random_raw`` block of words.
    ``random()`` takes a whole word w, as ``(w >> 11) * 2**-53``;
    ``integers(k)`` for 2 <= k < 2**32 takes a half-word h from the bit
    generator's buffer (the high half it saved, if it has one, else the low
    half of a fresh word, saving the high half) and returns ``(h * k) >> 32``
    by Lemire's method, unless the low 32 bits of ``h * k`` fall below
    ``2**32 % k`` and it must draw again.  The replay stops at the first
    draw it cannot reproduce: a rejection, or any draw when per is outside
    [3, 2**32), where ``integers(1)`` draws nothing or k leaves the 32-bit
    method.  The generator is set back to just before that draw, its
    buffered half and its stale ``uinteger`` included, and the loop makes
    the rest one by one.  Every array is O(owners * links), whatever per is.
    """
    owners = np.asarray(owners, dtype=np.int64)
    total = len(owners) * links
    heads = np.repeat(owners, links)
    own = heads // per
    tails = np.empty(total, dtype=np.int64)
    bitgen = rng.bit_generator
    done = 0
    if 3 <= per < 2**32 and total > 0:
        start = bitgen.state
        fresh = 1 - start["has_uint32"]
        # draw t's double is word t + (t + fresh) // 2, and it is followed
        # by a fresh word for the integer when t + fresh is odd
        t = np.arange(total)
        doubles = t + (t + fresh) // 2
        words = bitgen.random_raw(total + (total + fresh) // 2)
        u = (words[doubles] >> 11) * 2.0**-53
        ints = words[doubles[(t + fresh) % 2 == 1] + 1]
        halves = np.empty(2 * len(ints) + 1 - fresh, dtype=np.uint64)
        halves[: 1 - fresh] = start["uinteger"]  # the half the buffer holds on entry
        halves[1 - fresh :: 2] = ints & 0xFFFFFFFF
        halves[2 - fresh :: 2] = ints >> 32
        z = np.empty(total, dtype=np.int64)
        for c in range(len(cdf)):
            mine = own == c
            z[mine] = np.searchsorted(cdf[c], u[mine], side="right")
        same = z == own
        k = np.where(same, per - 1, per).astype(np.uint64)
        m = halves[:total] * k
        rejected = (m & 0xFFFFFFFF) < (np.uint64(2**32) - k) % k
        done = int(rejected.argmax()) if rejected.any() else total
        v = z * per + (m >> 32).astype(np.int64)
        tails[:done] = np.where(same, v + (v >= heads), v)[:done]
        if done < total:
            bitgen.state = start
            bitgen.random_raw(done + (done + fresh) // 2, output=False)
        if done:
            state = bitgen.state
            state["has_uint32"] = (done - 1 + fresh) % 2
            state["uinteger"] = int(halves[done - 1 + state["has_uint32"]])
            bitgen.state = state

    random, integers = rng.random, rng.integers
    link_cdf = cdf.tolist()
    rest: list[int] = []
    for u, own_class in zip(heads[done:].tolist(), own[done:].tolist()):
        z = bisect_right(link_cdf[own_class], random())
        if z != own_class:
            rest.append(z * per + int(integers(per)))
        elif per > 1:
            v = z * per + int(integers(per - 1))
            rest.append(v + (v >= u))  # skip u's own position
        else:
            rest.append(-1)
    tails[done:] = rest
    return tails


def generate_synthetic(config: SyntheticConfig) -> Dataset:
    """Sample a linked dataset whose context structure is known exactly.

    Features are drawn class-conditionally around separated class means.
    Each instance draws its neighbours' classes from the ground-truth
    co-occurrence row of its own class, and its attribute observations from
    the class-to-attribute row (both from :func:`synthetic_conditionals`),
    encoded as smoothed one-hots.  Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(config.seed)
    n, m, d = config.n_classes, config.m_attribute_classes, config.n_features
    per = config.instances_per_class
    total = n * per

    means = config.separation * rng.standard_normal((n, d))
    data_rows, attr_rows = synthetic_conditionals(config)

    labels = np.repeat(np.arange(n), per)
    features = means[labels] + config.noise_scale * rng.standard_normal((total, d))

    # The link draws keep the stream of the per-draw loop that defined it:
    # instance by instance, ``rng.choice(k, p=row)`` as one ``rng.random()``
    # bisected into the row's normalized CDF, then the partner's position in
    # its class by ``rng.integers``.  _link_tails replays that stream from
    # one block of raw PCG64 words, and only from a draw it cannot replay
    # (a Lemire rejection, about one per 2**32 / per draws, or a class of
    # fewer than 3 instances) does it make the rest one by one, as the loop did.
    heads = np.repeat(np.arange(total), config.links_per_instance)
    drawn = _link_tails(rng, np.arange(total), per, config.links_per_instance, _choice_cdfs(data_rows))
    links = _link_index(heads[drawn >= 0], drawn[drawn >= 0], np.arange(total))

    # the attribute draws follow all link draws, instance by instance
    attributes = None
    if m > 0:
        a = config.attributes_per_instance
        cdf = _choice_cdfs(attr_rows)[np.repeat(labels, a)]
        one_hots = np.full((m, m), ATTRIBUTE_SMOOTHING / m)
        one_hots[np.arange(m), np.arange(m)] += 1.0 - ATTRIBUTE_SMOOTHING
        picks = (cdf <= rng.random(total * a)[:, None]).sum(axis=1)  # bisect_right
        attributes = CsrIndex(_indptr(np.full(total, a)), one_hots[picks])

    return Dataset(
        ids=np.arange(total),
        labels=labels,
        features=features,
        links=links,
        attributes=attributes,
        n_classes=n,
        m_attribute_classes=m,
        class_names=[f"class_{c}" for c in range(n)],
        seed=config.seed,
    )


def _lines(fh, start: int = 1) -> Iterator[tuple[int, str]]:
    """Each line of ``fh`` that is not blank, numbered from ``start``, without its newline."""
    for lineno, line in enumerate(fh, start):
        if line.strip():
            yield lineno, line.rstrip("\n")


def load_cora(content_path: str | Path, cites_path: str | Path) -> Dataset:
    """Load a CORA-format content/cites file pair into a Dataset with m=0.
    A malformed file raises :class:`CoraFormatError` naming ``path:line``
    where one line is at fault."""
    content_path, cites_path = Path(content_path), Path(cites_path)
    seen: dict[int, int] = {}  # each id's line, in file order
    features: list[np.ndarray] = []  # bools until the Dataset copies them into its float matrix
    label_names: list[str] = []
    d: int | None = None
    with content_path.open() as fh:
        for lineno, line in _lines(fh):
            parts = line.split("\t")
            if len(parts) < 3:
                raise CoraFormatError(f"{content_path}:{lineno}: expected id, features and label")
            if d is None:
                d, d_line = len(parts) - 2, lineno
            elif len(parts) - 2 != d:
                raise CoraFormatError(f"{content_path}:{lineno}: expected {d} features as on line {d_line}, got {len(parts) - 2}")
            try:
                inst_id = int(parts[0])
            except ValueError:
                raise CoraFormatError(f"{content_path}:{lineno}: non-integer id {parts[0]!r}") from None
            if inst_id in seen:
                raise CoraFormatError(f"{content_path}:{lineno}: duplicate id {inst_id}, first on line {seen[inst_id]}")
            seen[inst_id] = lineno
            feats = np.empty(d, dtype=bool)
            for k, tok in enumerate(parts[1:-1]):
                if tok not in ("0", "1"):
                    raise CoraFormatError(f"{content_path}:{lineno}: feature {k} is {tok!r}, expected 0 or 1")
                feats[k] = tok == "1"
            features.append(feats)
            if not parts[-1]:
                raise CoraFormatError(f"{content_path}:{lineno}: empty label")
            label_names.append(parts[-1])
    if not seen:
        raise CoraFormatError(f"{content_path}: no instances")

    class_names = sorted(set(label_names))
    labels = np.searchsorted(class_names, label_names)
    ids_arr = np.array(list(seen), dtype=np.int64)
    order, sorted_ids = _id_order(ids_arr)

    pairs: list[tuple[int, int]] = []  # (cited, citing)
    linenos: list[int] = []
    with cites_path.open() as fh:
        for lineno, line in _lines(fh):
            parts = line.strip().split("\t")
            if len(parts) != 2:
                raise CoraFormatError(f"{cites_path}:{lineno}: expected cited_id and citing_id")
            try:
                pairs.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise CoraFormatError(f"{cites_path}:{lineno}: non-integer id") from None
            linenos.append(lineno)
    cites = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    unknown = ~np.isin(cites, ids_arr)
    if unknown.any():
        k, end = np.argwhere(unknown)[0]  # the first unknown reference, cited before citing
        raise CoraFormatError(f"{cites_path}:{linenos[k]}: unknown instance id {cites[k, end]}")
    rows = _find_rows(order, sorted_ids, cites[cites[:, 0] != cites[:, 1]])  # self-citations are dropped

    try:
        return Dataset(
            ids=ids_arr,
            labels=labels,
            features=features,
            links=_link_index(rows[:, 0], rows[:, 1], order),
            n_classes=len(class_names),
            m_attribute_classes=0,
            class_names=class_names,
        )
    except ValueError as exc:  # a broken dataset invariant, such as a single class
        raise CoraFormatError(f"{content_path}: {exc}") from None


def save_cora(dataset: Dataset, content_path: str | Path, cites_path: str | Path) -> None:
    """Write a dataset back to CORA format.

    Load/save is a semantic round trip: link direction is not preserved
    (links are undirected), each link is written once as ``min_id max_id``,
    and the output is canonical, so save(load(save(x))) is byte-identical.
    Features must all be 0 or 1, as the format stores them.
    """
    if dataset.m_attribute_classes != 0:
        raise ValueError("CORA format has no attribute observations")
    not_binary = ((dataset.features != 0) & (dataset.features != 1)).any(axis=1)
    if not_binary.any():
        raise ValueError(f"instance {dataset.ids[not_binary.argmax()]}: CORA format needs features of 0 or 1")
    names = dataset.class_names
    with Path(content_path).open("w") as fh:
        for inst_id, label, row in zip(dataset.ids.tolist(), dataset.labels.tolist(), dataset.features.astype(int).tolist()):
            fh.write(f"{inst_id}\t" + "\t".join(map(str, row)) + f"\t{names[label]}\n")
    a, b = dataset.ids[dataset.links.owners()], dataset.ids[dataset.links.values]
    pairs = np.unique(np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1), axis=0)
    with Path(cites_path).open("w") as fh:
        fh.writelines(f"{lo}\t{hi}\n" for lo, hi in pairs.tolist())


def _fmt_floats(values: Iterable[float]) -> str:
    return " ".join(map(repr, values))


def save_synthetic(dataset: Dataset, path: str | Path) -> None:
    """Serialize a dataset to the line-oriented text format (see module docs)."""
    link_ptr, obs_ptr = dataset.links.indptr.tolist(), dataset.attributes.indptr.tolist()
    link_ids = dataset.ids[dataset.links.values].tolist()
    observations = dataset.attributes.values.tolist()
    with Path(path).open("w") as fh:
        fh.write(
            f"{dataset.n_classes} {dataset.m_attribute_classes} {dataset.n_features} "
            f"{len(dataset)} {dataset.seed}\n"
        )
        rows = zip(dataset.ids.tolist(), dataset.labels.tolist(), dataset.features.tolist())
        for r, (inst_id, label, feats) in enumerate(rows):
            links = " ".join(map(str, link_ids[link_ptr[r] : link_ptr[r + 1]]))
            obs = " ; ".join(_fmt_floats(o) for o in observations[obs_ptr[r] : obs_ptr[r + 1]])
            fh.write(f"{inst_id} {label} {_fmt_floats(feats)} | {links} | {obs}\n")


def load_synthetic(path: str | Path) -> Dataset:
    """Load a dataset written by :func:`save_synthetic`; a malformed line
    raises ValueError naming ``path:line``, and so does an instance that
    breaks a :class:`Dataset` invariant, by its own line."""
    path = Path(path)
    seen: dict[int, int] = {}  # each id's line, in file order
    labels, features = [], []
    link_ids, link_counts, observations, obs_counts = [], [], [], []
    with path.open() as fh:
        header = fh.readline().split()
        try:
            n, m, d, count, seed = (int(v) for v in header)
        except ValueError:
            raise ValueError(f"{path}:1: bad header, expected 'n m d count seed'") from None
        for lineno, line in _lines(fh, start=2):
            where = f"{path}:{lineno}"
            sections = line.split("|")
            if len(sections) != 3:
                raise ValueError(f"{where}: expected '<id> <label> <features> | <links> | <observations>'")
            head, links_part, obs_part = (section.split() for section in sections)
            if len(head) != d + 2:
                raise ValueError(f"{where}: expected an id, a label and {d} features")
            try:
                inst_id = int(head[0])
                labels.append(int(head[1]))
                features.append([float(t) for t in head[2:]])
                links = [int(t) for t in links_part]
                obs = [[float(t) for t in chunk.split()] for chunk in sections[2].split(";")] if obs_part else []
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if any(len(o) != m for o in obs):
                raise ValueError(f"{where}: attribute observation length != {m}")
            if inst_id in seen:
                raise ValueError(f"{where}: duplicate id {inst_id}, first on line {seen[inst_id]}")
            seen[inst_id] = lineno
            link_ids.extend(links)
            link_counts.append(len(links))
            observations.extend(obs)
            obs_counts.append(len(obs))
    if len(seen) != count:
        raise ValueError(f"{path}: header promises {count} instances, found {len(seen)}")
    ids_arr, linenos, link_ptr = np.array(list(seen), dtype=np.int64), list(seen.values()), _indptr(link_counts)
    unknown = ~np.isin(link_ids, ids_arr)
    if unknown.any():
        k = int(unknown.argmax())
        raise ValueError(f"{path}:{linenos[np.searchsorted(link_ptr, k, 'right') - 1]}: unknown instance id {link_ids[k]}")
    try:
        return Dataset(
            ids=ids_arr,
            labels=labels,
            features=np.array(features, dtype=float).reshape(count, d),
            links=CsrIndex(link_ptr, _find_rows(*_id_order(ids_arr), link_ids)),
            attributes=CsrIndex(_indptr(obs_counts), np.array(observations, dtype=float).reshape(len(observations), m)),
            n_classes=n,
            m_attribute_classes=m,
            class_names=[f"class_{c}" for c in range(n)],
            seed=seed,
        )
    except InstanceError as exc:
        raise ValueError(f"{path}:{linenos[exc.row]}: {exc}") from None
    except ValueError as exc:  # a broken invariant of the whole dataset
        raise ValueError(f"{path}: {exc}") from None


def split_batches(
    dataset: Dataset,
    n_batches: int,
    seed: int,
    ids: Sequence[int] | None = None,
) -> list[list[int]]:
    """Shuffle and split ids into equal batches, in order; batch 0, the
    initial labeled pool, covers every class.

    Batch sizes are floor(N / n_batches), the last batch absorbing the
    remainder.  If batch 0 misses a class after the shuffle, an instance of
    that class is swapped in from a later batch, taking the first donor in
    scan order and displacing the first batch-0 member whose class appears
    at least twice.  A batch too small to hold every class raises
    :class:`ConfigError` keyed ``n_batches``.
    """
    if n_batches < 2:
        raise ValueError("n_batches must be >= 2")
    pool = np.sort(_whole_numbers(dataset.ids if ids is None else ids, what="ids"))
    if len(pool) < n_batches:
        raise ValueError("more batches than instances")

    labels = dataset.true_labels(pool)
    missing = np.flatnonzero(np.bincount(labels, minlength=dataset.n_classes) == 0).tolist()
    if missing:
        raise ValueError(f"classes absent from dataset: {missing}")

    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(pool))
    order, labels = pool[perm], labels[perm]
    base = len(order) // n_batches  # batch b holds positions b*base .. (b+1)*base - 1

    counts = np.bincount(labels[:base], minlength=dataset.n_classes)
    if base < dataset.n_classes:
        raise ConfigError(
            f"n_batches = {n_batches} gives an initial batch of size {base}, too small for "
            f"{dataset.n_classes} classes: it lacks classes {np.flatnonzero(counts == 0).tolist()}",
            "n_batches",
        )
    for c in np.flatnonzero(counts == 0).tolist():
        donor = base + int(np.argmax(labels[base:] == c))  # the class exists in pool, so in some later batch
        # with base >= n_classes, a batch that lacks a class holds another twice
        recipient = int(np.flatnonzero(counts[labels[:base]] >= 2)[0])
        counts[labels[recipient]] -= 1
        counts[c] += 1
        order[[recipient, donor]] = order[[donor, recipient]]
        labels[[recipient, donor]] = labels[[donor, recipient]]

    ids_in_order = order.tolist()
    batches = [ids_in_order[b * base : (b + 1) * base] for b in range(n_batches)]
    batches[-1].extend(ids_in_order[n_batches * base :])
    return batches
