import numpy as np
import pytest

from ctxnoise import (
    CoraFormatError,
    MlrConfig,
    SyntheticConfig,
    generate_synthetic,
    load_cora,
    load_synthetic,
    save_cora,
    save_synthetic,
    split_batches,
    train_mlr,
)
from ctxnoise.metrics import accuracy


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
        a, _ = generate_synthetic(make_config())
        b, _ = generate_synthetic(make_config())
        assert a == b
        save_synthetic(a, tmp_path / "a.txt")
        save_synthetic(b, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_one_hot_concentration_links_stay_in_class(self):
        dataset, truth = generate_synthetic(make_config(concentration=1.0))
        assert np.allclose(truth.data_conditionals, np.eye(3))
        for inst in dataset.instances:
            for v in inst.link_ids:
                assert dataset.by_id(v).true_label == inst.true_label

    def test_neighbour_frequencies_match_generator_rows(self):
        # >= 2000 links per class: 500 instances/class x 4 draws each
        config = make_config(instances_per_class=500, links_per_instance=4, concentration=0.7)
        dataset, truth = generate_synthetic(config)
        n = config.n_classes
        hist = np.zeros((n, n))
        for inst in dataset.instances:
            for v in inst.link_ids:
                hist[inst.true_label, dataset.by_id(v).true_label] += 1
        assert hist.sum(axis=1).min() >= 2000
        rows = hist / hist.sum(axis=1, keepdims=True)
        tv = 0.5 * np.abs(rows - truth.data_conditionals).sum(axis=1)
        assert tv.max() < 0.05

    def test_zero_separation_gives_chance_level_classifier(self):
        config = make_config(
            n_classes=4, instances_per_class=500, separation=0.0, noise_scale=1.0, seed=3
        )
        dataset, _ = generate_synthetic(config)
        ids = dataset.ids()
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
        dataset, truth = generate_synthetic(config)
        assert truth.attr_conditionals.shape == (3, 5)
        for inst in dataset.instances:
            assert len(inst.attribute_obs) == 2
            for obs in inst.attribute_obs:
                assert obs.min() > 0
                assert abs(obs.sum() - 1.0) < 1e-9

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(make_config(instances_per_class=0))
        with pytest.raises(ValueError):
            generate_synthetic(make_config(separation=-1.0))
        with pytest.raises(ValueError):
            generate_synthetic(make_config(attributes_per_instance=1))  # m == 0


class TestSyntheticRoundTrip:
    def test_save_load_identity(self, tmp_path):
        dataset, _ = generate_synthetic(make_config(m_attribute_classes=4, attributes_per_instance=2))
        path = tmp_path / "data.txt"
        save_synthetic(dataset, path)
        assert load_synthetic(path) == dataset

    def test_save_is_byte_stable(self, tmp_path):
        dataset, _ = generate_synthetic(make_config())
        save_synthetic(dataset, tmp_path / "x.txt")
        save_synthetic(load_synthetic(tmp_path / "x.txt"), tmp_path / "y.txt")
        assert (tmp_path / "x.txt").read_bytes() == (tmp_path / "y.txt").read_bytes()


def write_cora(tmp_path, content_lines, cites_lines):
    content = tmp_path / "x.content"
    cites = tmp_path / "x.cites"
    content.write_text("".join(line + "\n" for line in content_lines))
    cites.write_text("".join(line + "\n" for line in cites_lines))
    return content, cites


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
        assert ds.class_names == ["Case_Based", "Genetic_Algorithms"]
        assert ds.by_id(20).true_label == 0
        # links are symmetric and undirected
        assert ds.by_id(10).link_ids == [20, 30]
        assert ds.by_id(20).link_ids == [10]

    def test_single_instance_no_links(self, tmp_path):
        content, cites = write_cora(tmp_path, ["5\t1\t0\tOnly"], [])
        with pytest.raises(ValueError):
            load_cora(content, cites)  # a 1-class dataset is rejected
        content, cites = write_cora(tmp_path, ["5\t1\t0\tA", "6\t0\t1\tB"], [])
        ds = load_cora(content, cites)
        assert ds.by_id(5).link_ids == []

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


class TestSplitBatches:
    def test_equal_sizes(self):
        dataset, _ = generate_synthetic(make_config(instances_per_class=34, n_classes=3))
        ids = dataset.ids()[:100]
        plan = split_batches(dataset, 10, seed=1, ids=ids)
        assert [len(b) for b in plan.batches] == [10] * 10

    def test_partition_property(self):
        dataset, _ = generate_synthetic(make_config())
        plan = split_batches(dataset, 7, seed=5)
        flat = plan.all_ids()
        assert sorted(flat) == sorted(dataset.ids())
        assert len(set(flat)) == len(flat)

    def test_batch0_covers_all_classes(self):
        dataset, _ = generate_synthetic(make_config(n_classes=5, instances_per_class=20))
        for seed in range(10):
            plan = split_batches(dataset, 10, seed=seed)
            classes = {dataset.by_id(i).true_label for i in plan.batches[0]}
            assert classes == set(range(5))

    def test_singleton_batches_cannot_cover(self):
        dataset, _ = generate_synthetic(make_config(n_classes=3, instances_per_class=5))
        with pytest.raises(ValueError):
            split_batches(dataset, len(dataset), seed=0)

    def test_seed_determinism(self):
        dataset, _ = generate_synthetic(make_config(instances_per_class=17))
        ids = dataset.ids()[:50]
        a = split_batches(dataset, 5, seed=3, ids=ids)
        b = split_batches(dataset, 5, seed=3, ids=ids)
        c = split_batches(dataset, 5, seed=4, ids=ids)
        assert a.batches == b.batches
        assert a.batches != c.batches
