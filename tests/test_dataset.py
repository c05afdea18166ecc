import dataclasses
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctxnoise import (
    ConfigError,
    CoraFormatError,
    CsrIndex,
    Dataset,
    Instance,
    MlrConfig,
    SyntheticConfig,
    generate_synthetic,
    load_cora,
    load_synthetic,
    save_cora,
    save_synthetic,
    split_batches,
    synthetic_conditionals,
    train_mlr,
)
from ctxnoise import dataset as dataset_module
from ctxnoise import harness
from ctxnoise.dataset import _choice_cdfs, _link_tails
from ctxnoise.metrics import accuracy

from oracles import reference_link_draws


def make_config(**overrides):
    base = dict(
        n_classes=3,
        n_features=4,
        instances_per_class=50,
        concentration=0.8,
        separation=2.0,
        noise_scale=1.0,
        links_per_instance=3,
        seed=11,
    )
    base.update(overrides)
    return SyntheticConfig(**base)


class TestSyntheticGenerator:
    def test_deterministic_given_seed(self, tmp_path):
        a = generate_synthetic(make_config())
        b = generate_synthetic(make_config())
        assert a == b
        save_synthetic(a, tmp_path / "a.txt")
        save_synthetic(b, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_one_hot_concentration_links_stay_in_class(self):
        dataset = generate_synthetic(make_config(concentration=1.0))
        assert np.allclose(synthetic_conditionals(make_config(concentration=1.0))[0], np.eye(3))
        labels = dataset.labels
        assert np.array_equal(labels[dataset.links.values], labels[dataset.links.owners()])

    def test_neighbour_frequencies_match_generator_rows(self):
        # >= 2000 links per class: 500 instances/class x 4 draws each
        config = make_config(instances_per_class=500, links_per_instance=4, concentration=0.7)
        dataset = generate_synthetic(config)
        n = config.n_classes
        hist = np.zeros((n, n))
        labels = dataset.labels
        np.add.at(hist, (labels[dataset.links.owners()], labels[dataset.links.values]), 1)
        assert hist.sum(axis=1).min() >= 2000
        rows = hist / hist.sum(axis=1, keepdims=True)
        tv = 0.5 * np.abs(rows - synthetic_conditionals(config)[0]).sum(axis=1)
        assert tv.max() < 0.05

    def test_zero_separation_gives_chance_level_classifier(self):
        config = make_config(
            n_classes=4, instances_per_class=500, separation=0.0, noise_scale=1.0, seed=3
        )
        dataset = generate_synthetic(config)
        ids = dataset.ids.tolist()
        rng = np.random.default_rng(0)
        perm = rng.permutation(ids)
        train, test = perm[:1400], perm[1400:]
        model = train_mlr(
            None,
            dataset.feature_matrix(train),
            dataset.true_labels(train),
            MlrConfig(n_classes=4, seed=0),
        )
        acc = accuracy(model, dataset.feature_matrix(test), dataset.true_labels(test))
        assert abs(acc - 0.25) <= 0.1

    def test_attribute_observations_are_smoothed_distributions(self):
        config = make_config(m_attribute_classes=5, attributes_per_instance=2)
        dataset = generate_synthetic(config)
        assert synthetic_conditionals(config)[1].shape == (3, 5)
        assert (np.diff(dataset.attributes.indptr) == 2).all()
        for obs in dataset.attributes.values:
            assert obs.min() > 0
            assert abs(obs.sum() - 1.0) < 1e-9

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(make_config(instances_per_class=0))
        with pytest.raises(ValueError):
            generate_synthetic(make_config(separation=-1.0))
        with pytest.raises(ValueError):
            generate_synthetic(make_config(attributes_per_instance=1))  # m == 0

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"instances_per_class": 0}, "synthetic.instances_per_class must be positive"),
            ({"separation": -1.0}, "synthetic.separation must be >= 0 and finite"),
            ({"noise_scale": math.nan}, "synthetic.noise_scale must be >= 0 and finite"),
            ({"attributes_per_instance": 1}, "synthetic.attributes_per_instance > 0 requires m_attribute_classes > 0"),
        ],
    )
    def test_invalid_config_names_the_key(self, overrides, message):
        # a config was checked only when generate_synthetic ran; it is now
        # checked when it is built, and by dataclasses.replace
        key = message.split()[0]
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$") as caught:
            make_config(**overrides)
        assert caught.value.key == key
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(make_config(), **overrides)
        assert ConfigError is harness.ConfigError


def link_cdf(n_classes, concentration):
    return _choice_cdfs(concentration * np.eye(n_classes) + (1.0 - concentration) / n_classes)


class CountingGenerator:
    """A Generator's bit generator and draws, counting the one-by-one calls."""

    def __init__(self, rng):
        self.rng, self.bit_generator, self.calls = rng, rng.bit_generator, 0

    def random(self):
        self.calls += 1
        return self.rng.random()

    def integers(self, high):
        self.calls += 1
        return self.rng.integers(high)


class TestLinkReplay:
    @given(
        n=st.integers(2, 8),
        per=st.integers(1, 40),
        links=st.integers(0, 7),
        concentration=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
        seed=st.integers(0, 2**64 - 1),
        buffered=st.none() | st.integers(0, 2**32 - 1),
    )
    @example(n=2, per=1, links=3, concentration=0.9, seed=0, buffered=None)
    @example(n=3, per=2, links=5, concentration=0.5, seed=1, buffered=7)
    @example(n=2, per=3, links=1, concentration=1.0, seed=2, buffered=2**32 - 1)
    @settings(max_examples=200, deadline=None)
    def test_replay_gives_the_per_draw_stream(self, n, per, links, concentration, seed, buffered):
        # the same partners, the same generator state (its buffered
        # half-word and stale uinteger included) and the same draws after;
        # `buffered` enters with a half-word held, as after an odd count of
        # 32-bit draws
        replayed, looped = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered is not None:
            for rng in (replayed, looped):
                state = rng.bit_generator.state
                state["has_uint32"], state["uinteger"] = 1, buffered
                rng.bit_generator.state = state
        owners, cdf = np.arange(n * per), link_cdf(n, concentration)
        tails = _link_tails(replayed, owners, per, links, cdf)
        assert np.array_equal(tails, reference_link_draws(looped, owners, per, links, cdf))
        assert tails.dtype == np.int64
        assert replayed.bit_generator.state == looped.bit_generator.state
        for draw in (lambda rng: rng.integers(2**31), lambda rng: rng.integers(5), lambda rng: rng.random()):
            assert draw(replayed) == draw(looped)

    @pytest.mark.parametrize("seed", range(8))
    def test_rejection_resumes_the_per_draw_loop(self, seed):
        # at per = 3e9 about 30% of integers(per) draws are Lemire
        # rejections (2**32 % per of 2**32 low words), so the replay stops
        # early in every case here and the loop makes the rest
        per, links = 3_000_000_000, 6
        owners = np.array([0, 1, per - 1, per, per + 5, 2 * per - 1])
        cdf = link_cdf(2, 0.5)
        counting = CountingGenerator(np.random.default_rng(seed))
        looped = np.random.default_rng(seed)
        tracemalloc.start()
        try:
            tails = _link_tails(counting, owners, per, links, cdf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(tails, reference_link_draws(looped, owners, per, links, cdf))
        assert counting.bit_generator.state == looped.bit_generator.state
        assert counting.rng.random() == looped.random()
        assert 0 < counting.calls
        assert peak < 64 * 1024  # nothing scales with per

    def test_some_rejection_comes_after_replayed_draws(self):
        # the cases above are not all rejections at the first draw: some
        # replay a prefix and then resume, which the state check covers
        per, links = 3_000_000_000, 6
        owners = np.array([0, 1, per - 1, per, per + 5, 2 * per - 1])
        calls = []
        for seed in range(8):
            counting = CountingGenerator(np.random.default_rng(seed))
            _link_tails(counting, owners, per, links, link_cdf(2, 0.5))
            calls.append(counting.calls)
        assert min(calls) < 2 * len(owners) * links  # two calls a draw, from the first rejection on

    @pytest.mark.parametrize("per", [1, 2, 3, 17])
    def test_generator_gives_the_per_draw_dataset(self, per):
        # the attribute draws follow the link draws, so they match only if
        # the replay leaves the generator where the loop did
        config = make_config(
            n_classes=4, instances_per_class=per, links_per_instance=5, m_attribute_classes=3, attributes_per_instance=2
        )
        with mock.patch.object(dataset_module, "_link_tails", reference_link_draws):
            expected = generate_synthetic(config)
        assert generate_synthetic(config) == expected


class TestSyntheticRoundTrip:
    def test_save_load_identity(self, tmp_path):
        dataset = generate_synthetic(make_config(m_attribute_classes=4, attributes_per_instance=2))
        path = tmp_path / "data.txt"
        save_synthetic(dataset, path)
        assert load_synthetic(path) == dataset

    def test_save_is_byte_stable(self, tmp_path):
        dataset = generate_synthetic(make_config())
        save_synthetic(dataset, tmp_path / "x.txt")
        save_synthetic(load_synthetic(tmp_path / "x.txt"), tmp_path / "y.txt")
        assert (tmp_path / "x.txt").read_bytes() == (tmp_path / "y.txt").read_bytes()

    @pytest.mark.parametrize(
        "record",
        [
            "1 0 0.5 0.5 | 0",  # a missing section
            "x1 0 0.5 0.5 | 0 | 0.5 0.5",  # a non-integer id
            "1 y 0.5 0.5 | 0 | 0.5 0.5",  # a non-integer label
            "1 0 0.5 0.5 | z | 0.5 0.5",  # a non-integer link
            "1 0 0.5 abc | 0 | 0.5 0.5",  # a non-numeric feature
            "1 0 0.5 0.5 | 0 | 0.5 zz",  # a non-numeric observation
        ],
    )
    def test_malformed_line_names_path_and_line(self, tmp_path, record):
        # these used to raise bare unpacking and int() errors with no location
        path = tmp_path / "data.txt"
        head = "2 2 2 2 0\n0 1 1.0 2.0 | 1 | 1.0 0.0\n"
        path.write_text(head + "1 0 0.5 0.5 | 0 | 0.5 0.5\n")
        assert len(load_synthetic(path)) == 2
        path.write_text(head + record + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "):
            load_synthetic(path)

    @pytest.mark.parametrize(
        "record, where, message",
        [
            # the one-way link is listed on line 2
            ("1 0 0.5 0.5 |  | 0.5 0.5", ":2", "link 0->1 is not symmetric"),
            ("1 5 0.5 0.5 | 0 | 0.5 0.5", ":3", "instance 1: true_label 5 out of range"),
            ("1 0 0.5 0.5 | 0 | 0.5 0.6", ":3", "instance 1: attribute observation is not a distribution"),
            ("1 0 nan 0.5 | 0 | 0.5 0.5", ":3", "instance 1: non-finite feature"),
            ("1 0 0.5 0.5 | 0 7 | 0.5 0.5", ":3", "unknown instance id 7"),
            ("0 0 0.5 0.5 | 0 | 0.5 0.5", ":3", "duplicate id 0, first on line 2"),
        ],
    )
    def test_dataset_error_names_the_path(self, tmp_path, record, where, message):
        # these came from the Dataset constructor with the file's name
        # alone; the unknown id escaped as a KeyError
        path = tmp_path / "data.txt"
        path.write_text("2 2 2 2 0\n0 1 1.0 2.0 | 1 | 1.0 0.0\n" + record + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path) + where)}: {re.escape(message)}$"):
            load_synthetic(path)


def write_cora(tmp_path, content_lines, cites_lines):
    content = tmp_path / "x.content"
    cites = tmp_path / "x.cites"
    content.write_text("".join(line + "\n" for line in content_lines))
    cites.write_text("".join(line + "\n" for line in cites_lines))
    return content, cites


class TestArrays:
    def arrays(self, **overrides):
        fields = dict(
            ids=[20, 10],
            labels=[1, 0],
            features=[[1.0, 0.0], [0.0, 1.0]],
            links=CsrIndex([0, 1, 2], [1, 0]),
            attributes=CsrIndex([0, 1, 1], [[0.5, 0.5]]),
            n_classes=2,
            m_attribute_classes=2,
            class_names=["a", "b"],
        )
        return Dataset(**{**fields, **overrides})

    def test_records_build_the_same_frozen_arrays(self):
        records = Dataset(
            instances=[
                Instance(id=20, features=np.array([1.0, 0.0]), true_label=1,
                         attribute_obs=[np.array([0.5, 0.5])], link_ids=[10]),
                Instance(id=10, features=np.array([0.0, 1.0]), true_label=0, link_ids=[20]),
            ],
            n_classes=2, m_attribute_classes=2, class_names=["a", "b"],
        )
        assert records == self.arrays()
        assert records.rows([10, 20]).tolist() == [1, 0]  # rows keep input order
        with pytest.raises(KeyError, match="unknown instance id 30"):
            records.rows([10, 30])
        assert records.rows([20.0]).tolist() == [0]
        # these used to raise KeyError, or a bare TypeError for None
        for bad, shown in ((2.5, "2.5"), ("a", "a"), (None, "None")):
            with pytest.raises(ValueError, match=f"^ids must be integer-valued, got {shown}$"):
                records.rows([bad])
        for a in (records.ids, records.labels, records.features, records.links.values, records.attributes.values):
            assert not a.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            records.ids = np.array([1, 2])

    def test_omitted_links_and_attributes_mean_none(self):
        # links=None used to fail with AttributeError: 'NoneType' object has no attribute 'indptr'
        dataset = Dataset(
            ids=[20, 10], labels=[1, 0], features=[[1.0], [0.0]], n_classes=2, m_attribute_classes=0, class_names=["a", "b"]
        )
        none = CsrIndex([0, 0, 0], np.empty(0, dtype=np.intp))
        assert dataset == self.arrays(features=[[1.0], [0.0]], links=none, attributes=None, m_attribute_classes=0)
        assert dataset.links.values.dtype == np.intp and not dataset.links.values.flags.writeable

    def test_inconsistent_arrays_rejected(self):
        with pytest.raises(ValueError, match="duplicate instance ids"):
            self.arrays(ids=[10, 10])
        with pytest.raises(ValueError, match="do not describe 2 instances"):
            self.arrays(labels=[1, 0, 1])
        with pytest.raises(ValueError, match="do not describe 2 instances"):
            self.arrays(links=CsrIndex([0, 1, 2], [1, 2]))  # a neighbour row past the end
        with pytest.raises(TypeError, match="either instances or the arrays"):
            self.arrays(instances=[])

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # each used to be accepted unless validate() was called
            ({"links": CsrIndex([0, 1, 1], [1])}, "link 20->10 is not symmetric"),
            ({"links": CsrIndex([0, 1, 2], [0, 0])}, "instance 20: self-link"),
            ({"labels": [1, 5]}, "instance 10: true_label 5 out of range"),
            ({"labels": [-1, 0]}, "instance 20: true_label -1 out of range"),
            ({"attributes": CsrIndex([0, 1, 1], [[0.7, 0.7]])}, "instance 20: attribute observation is not a distribution"),
            ({"attributes": CsrIndex([0, 0, 1], [[1.5, -0.5]])}, "instance 10: attribute observation is not a distribution"),
            # NaN used to pass both the sign and the sum test
            ({"attributes": CsrIndex([0, 0, 1], [[np.nan, 1.0]])}, "instance 10: attribute observation is not a distribution"),
            ({"features": [[1.0, 0.0], [np.inf, 1.0]]}, "instance 10: non-finite feature"),
            ({"features": [[np.nan, 0.0], [0.0, 1.0]]}, "instance 20: non-finite feature"),
            ({"n_classes": 1}, "need at least 2 classes"),
            # used to build, after which save_cora failed with IndexError
            ({"class_names": ["a"]}, "1 class names for 2 classes"),
            ({"class_names": ["a", "b", "c"]}, "3 class names for 2 classes"),
        ],
    )
    def test_broken_invariant_rejected_at_construction(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self.arrays(**overrides)


class TestImmutability:
    def test_class_names_are_a_tuple(self):
        # a list used to be kept as given: appending to it gave 3 names for
        # 2 classes, and a dataset built from ("a", "b") compared unequal to
        # the same one built from ["a", "b"]
        names = ["a", "b"]
        fields = dict(ids=[20, 10], labels=[1, 0], features=[[1.0], [0.0]], n_classes=2, m_attribute_classes=0)
        from_list, from_tuple = Dataset(**fields, class_names=names), Dataset(**fields, class_names=("a", "b"))
        assert from_list.class_names == ("a", "b")
        assert from_list == from_tuple
        names.append("c")
        assert from_list.class_names == ("a", "b")
        with pytest.raises(AttributeError):
            from_list.class_names.append("c")
        with pytest.raises(dataclasses.FrozenInstanceError):
            from_list.class_names = ("a", "b", "c")


class TestValidateLinks:
    def dataset(self, links):
        instances = [Instance(id=i, features=np.zeros(1), true_label=i % 2, link_ids=ids) for i, ids in enumerate(links)]
        return Dataset(instances=instances, n_classes=2, m_attribute_classes=0, class_names=["a", "b"])

    @pytest.mark.parametrize(
        "links, message",
        [
            ([[1], [0, 2], [2, 1]], "instance 2: self-link"),
            ([[1, 2], [0], []], "link 0->2 is not symmetric"),
            ([[1], [0, 2], [1], [1]], "link 3->1 is not symmetric"),
        ],
    )
    def test_first_broken_link_is_named(self, links, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            self.dataset(links)

    def test_repeated_link_with_a_return_link_passes(self):
        self.dataset([[1, 1], [0], []])

    def test_out_of_range_label_rejected(self):
        instances = [Instance(id=i, features=np.zeros(1), true_label=label) for i, label in enumerate([0, 5, 1])]
        with pytest.raises(ValueError, match="^instance 1: true_label 5 out of range$"):
            Dataset(instances=instances, n_classes=2, m_attribute_classes=0, class_names=["a", "b"])


class TestCoraLoader:
    def test_basic_load(self, tmp_path):
        content, cites = write_cora(
            tmp_path,
            [
                "10\t1\t0\t1\tGenetic_Algorithms",
                "20\t0\t1\t0\tCase_Based",
                "30\t1\t1\t0\tGenetic_Algorithms",
            ],
            ["10\t20", "30\t10"],
        )
        ds = load_cora(content, cites)
        assert len(ds) == 3
        assert ds.n_classes == 2
        assert ds.m_attribute_classes == 0
        # classes sorted lexicographically
        assert ds.class_names == ("Case_Based", "Genetic_Algorithms")
        assert ds.true_labels([20]).tolist() == [0]
        # links are symmetric and undirected
        assert ds.ids[ds.links.gather(ds.rows([10]))[0]].tolist() == [20, 30]
        assert ds.ids[ds.links.gather(ds.rows([20]))[0]].tolist() == [10]

    def test_single_instance_no_links(self, tmp_path):
        content, cites = write_cora(tmp_path, ["5\t1\t0\tOnly"], [])
        with pytest.raises(ValueError):
            load_cora(content, cites)  # a 1-class dataset is rejected
        content, cites = write_cora(tmp_path, ["5\t1\t0\tA", "6\t0\t1\tB"], [])
        ds = load_cora(content, cites)
        assert ds.links.gather(ds.rows([5]))[0].tolist() == []

    def test_dataset_error_names_the_content_file(self, tmp_path):
        # it came from the Dataset constructor without the file's name
        content, cites = write_cora(tmp_path, ["5\t1\t0\tOnly", "6\t0\t1\tOnly"], ["5\t6"])
        with pytest.raises(CoraFormatError, match=f"^{re.escape(str(content))}: need at least 2 classes$"):
            load_cora(content, cites)

    def test_unknown_cite_id_named_in_error(self, tmp_path):
        content, cites = write_cora(tmp_path, ["1\t1\tA", "2\t0\tB"], ["1\t999"])
        with pytest.raises(CoraFormatError, match="999"):
            load_cora(content, cites)

    def test_malformed_line_reports_line_number(self, tmp_path):
        content, cites = write_cora(tmp_path, ["1\t1\t0\tA", "2\t0\tB"], [])
        with pytest.raises(CoraFormatError, match=":2"):
            load_cora(content, cites)
        content, cites = write_cora(tmp_path, ["1\t1\tA", "2\t7\tB"], [])
        with pytest.raises(CoraFormatError, match="expected 0 or 1"):
            load_cora(content, cites)

    def test_round_trip(self, tmp_path):
        content, cites = write_cora(
            tmp_path,
            ["10\t1\t0\tB", "20\t0\t1\tA", "30\t1\t1\tB"],
            ["10\t20", "30\t10", "20\t30"],
        )
        ds = load_cora(content, cites)
        out_c, out_l = tmp_path / "o.content", tmp_path / "o.cites"
        save_cora(ds, out_c, out_l)
        assert load_cora(out_c, out_l) == ds
        # canonical form is byte-stable under another round trip
        out_c2, out_l2 = tmp_path / "o2.content", tmp_path / "o2.cites"
        save_cora(load_cora(out_c, out_l), out_c2, out_l2)
        assert out_c.read_bytes() == out_c2.read_bytes()
        assert out_l.read_bytes() == out_l2.read_bytes()

    def test_non_binary_features_are_not_saved(self, tmp_path):
        # save_cora used to write features.astype(int): a synthetic set's
        # real-valued features became all-zero rows that load_cora accepted
        dataset = generate_synthetic(make_config())
        content, cites = tmp_path / "o.content", tmp_path / "o.cites"
        with pytest.raises(ValueError, match=f"^instance {dataset.ids[0]}: CORA format needs features of 0 or 1$"):
            save_cora(dataset, content, cites)
        assert not content.exists() and not cites.exists()
        features = np.ones((len(dataset), dataset.n_features))
        features[7, 2] = 0.5
        binary_but_one = dataclasses.replace(dataset, features=features)
        with pytest.raises(ValueError, match=f"^instance {dataset.ids[7]}: "):
            save_cora(binary_but_one, content, cites)


class TestSplitBatches:
    def test_equal_sizes(self):
        dataset = generate_synthetic(make_config(instances_per_class=34, n_classes=3))
        ids = dataset.ids.tolist()[:100]
        batches = split_batches(dataset, 10, seed=1, ids=ids)
        assert [len(b) for b in batches] == [10] * 10

    def test_partition_property(self):
        dataset = generate_synthetic(make_config())
        flat = [i for batch in split_batches(dataset, 7, seed=5) for i in batch]
        assert sorted(flat) == sorted(dataset.ids.tolist())
        assert len(set(flat)) == len(flat)

    def test_batch0_covers_all_classes(self):
        dataset = generate_synthetic(make_config(n_classes=5, instances_per_class=20))
        for seed in range(10):
            batches = split_batches(dataset, 10, seed=seed)
            classes = set(dataset.true_labels(batches[0]).tolist())
            assert classes == set(range(5))

    def test_singleton_batches_cannot_cover(self):
        dataset = generate_synthetic(make_config(n_classes=3, instances_per_class=5))
        with pytest.raises(ValueError):
            split_batches(dataset, len(dataset), seed=0)

    def test_too_small_initial_batch_names_n_batches(self):
        # 15 ids in 8 batches leave one id for batch 0; this used to say only
        # "initial batch too small to cover every class"
        dataset = generate_synthetic(make_config(n_classes=3, instances_per_class=5))
        with pytest.raises(ConfigError) as info:
            split_batches(dataset, 8, seed=0)
        assert info.value.key == "n_batches"
        message = r"^n_batches = 8 gives an initial batch of size 1, too small for 3 classes: it lacks classes \[(\d), (\d)\]$"
        lacking = re.match(message, str(info.value))
        assert lacking is not None
        pool = np.sort(dataset.ids)
        batch0 = pool[np.random.default_rng(0).permutation(len(pool))[:1]]  # split_batches' shuffle
        assert sorted({0, 1, 2} - set(dataset.true_labels(batch0).tolist())) == [int(c) for c in lacking.groups()]

    def test_seed_determinism(self):
        dataset = generate_synthetic(make_config(instances_per_class=17))
        ids = dataset.ids.tolist()[:50]
        a = split_batches(dataset, 5, seed=3, ids=ids)
        b = split_batches(dataset, 5, seed=3, ids=ids)
        c = split_batches(dataset, 5, seed=4, ids=ids)
        assert a == b
        assert a != c
