from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxnoise import (
    Dataset,
    Instance,
    RelationshipModel,
    SyntheticConfig,
    build_relationship,
    generate_synthetic,
    prior_conditionals,
    update_relationship,
)


def linked_dataset(n_classes=3, labels=(0, 1, 2), links=((0, 1),), m=0, attr_obs=None):
    """Tiny hand-built dataset: instance i has class labels[i]."""
    link_sets = [set() for _ in labels]
    for a, b in links:
        link_sets[a].add(b)
        link_sets[b].add(a)
    instances = []
    for i, label in enumerate(labels):
        obs = [np.asarray(o, dtype=float) for o in (attr_obs or {}).get(i, [])]
        instances.append(
            Instance(
                id=i,
                features=np.array([float(i)]),
                true_label=label,
                attribute_obs=obs,
                link_ids=sorted(link_sets[i]),
            )
        )
    return Dataset(
        instances=instances, n_classes=n_classes, m_attribute_classes=m,
        class_names=[f"class_{c}" for c in range(n_classes)],
    )


class TestBuildRelationship:
    def test_single_link_counts_both_cells(self):
        ds = linked_dataset(labels=(1, 2, 0), links=((0, 1),))
        model = build_relationship(ds, {0: 1, 1: 2, 2: 0})
        expected = np.zeros((3, 3))
        expected[1, 2] = expected[2, 1] = 1.0
        assert np.array_equal(model.data_counts, expected)

    def test_no_links_all_zero(self):
        ds = linked_dataset(labels=(0, 1), links=(), n_classes=2)
        model = build_relationship(ds, {0: 0, 1: 1})
        assert np.array_equal(model.data_counts, np.zeros((2, 2)))

    def test_same_class_link_adds_two_on_diagonal(self):
        ds = linked_dataset(labels=(1, 1, 0), links=((0, 1),))
        model = build_relationship(ds, {0: 1, 1: 1, 2: 0})
        assert model.data_counts[1, 1] == 2.0

    def test_link_with_unlabeled_endpoint_skipped(self):
        ds = linked_dataset(labels=(0, 1, 2), links=((0, 1), (1, 2)))
        model = build_relationship(ds, {0: 0, 1: 1})
        assert model.data_counts[1, 2] == 0.0
        assert model.data_counts[0, 1] == 1.0

    def test_soft_attribute_accumulation(self):
        obs = {0: [[0.7, 0.3]], 1: [[0.2, 0.8], [0.5, 0.5]]}
        ds = linked_dataset(labels=(0, 0, 1), m=2, attr_obs=obs)
        model = build_relationship(ds, {0: 0, 1: 0, 2: 1})
        assert np.allclose(model.attr_counts[0], [1.4, 1.6])
        assert np.allclose(model.attr_counts[1], [0.0, 0.0])

    def test_unlabeled_counted_instance_rejected(self):
        ds = linked_dataset(labels=(0, 1, 2))
        with pytest.raises(ValueError):
            build_relationship(ds, {0: None})
        with pytest.raises(KeyError):
            build_relationship(ds, {99: 0})

    def test_synthetic_rows_match_generator(self):
        config = SyntheticConfig(
            n_classes=3, n_features=4, instances_per_class=500, concentration=0.7,
            links_per_instance=4, seed=2,
        )
        dataset, truth = generate_synthetic(config)
        model = build_relationship(dataset, dict(zip(dataset.ids.tolist(), dataset.labels.tolist())))
        assert model.data_counts.sum(axis=1).min() >= 2000
        rows = prior_conditionals(model).data_rows
        tv = 0.5 * np.abs(rows - truth.data_conditionals).sum(axis=1)
        assert tv.max() < 0.05


class TestUpdateRelationship:
    def test_empty_update_is_identity(self):
        ds = linked_dataset(labels=(0, 1, 2), links=((0, 1),))
        model = build_relationship(ds, {0: 0, 1: 1})
        updated = update_relationship(model, ds, {})
        assert np.array_equal(updated.data_counts, model.data_counts)

    def test_double_submission_doubles_counts(self):
        ds = linked_dataset(labels=(0, 1, 2), links=((0, 1),))
        once = build_relationship(ds, {0: 0, 1: 1})
        twice = update_relationship(once, ds, {0: 0, 1: 1})
        assert np.array_equal(twice.data_counts, 2 * once.data_counts)

    def test_build_full_equals_build_half_plus_update(self):
        config = SyntheticConfig(
            n_classes=3, n_features=3, instances_per_class=10, concentration=0.6,
            links_per_instance=3, seed=5,
        )
        dataset, _ = generate_synthetic(config)
        labels = dict(zip(dataset.ids.tolist(), dataset.labels.tolist()))
        full = build_relationship(dataset, labels)
        ids = sorted(labels)
        first = {i: labels[i] for i in ids[:15]}
        second = {i: labels[i] for i in ids[15:]}
        stepwise = update_relationship(build_relationship(dataset, first), dataset, second)
        assert np.array_equal(full.data_counts, stepwise.data_counts)
        assert full.labels == stepwise.labels

    def test_update_does_not_mutate_input(self):
        ds = linked_dataset(labels=(0, 1, 2), links=((0, 1), (1, 2)))
        model = build_relationship(ds, {0: 0, 1: 1})
        before = model.data_counts.copy()
        update_relationship(model, ds, {2: 2})
        assert np.array_equal(model.data_counts, before)

    def test_unknown_id_rejected(self):
        ds = linked_dataset(labels=(0, 1, 2))
        model = build_relationship(ds, {})
        with pytest.raises(KeyError):
            update_relationship(model, ds, {42: 0})

    def test_labels_kept_in_the_given_order_as_ints(self):
        # the counts are folded in ascending id order; the stored labels
        # keep each id's own label, in the order given
        ds = linked_dataset(labels=(0, 1, 2), links=((0, 1), (1, 2)))
        model = update_relationship(build_relationship(ds, {1: 1}), ds, {2: 2.0, 0: True})
        assert list(model.labels.items()) == [(1, 1), (2, 2), (0, 1)]
        assert all(type(c) is int for c in model.labels.values())

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_preserved_under_any_update_sequence(self, pairs):
        ds = linked_dataset(
            n_classes=3,
            labels=(0, 1, 2, 0, 1, 2),
            links=tuple({(min(a, b), max(a, b)) for a, b in pairs if a != b}),
        )
        model = build_relationship(ds, {})
        ids = sorted(ds.ids.tolist())
        for cut in (2, 4, 6):
            chunk = dict(zip(ids[cut - 2 : cut], ds.true_labels(ids[cut - 2 : cut]).tolist()))
            model = update_relationship(model, ds, chunk)
            assert np.array_equal(model.data_counts, model.data_counts.T)


class TestPriorConditionals:
    def test_direct_normalization(self):
        model = RelationshipModel(np.array([[2.0, 2.0], [0.0, 4.0]]), None, epsilon=1e-6)
        rows = prior_conditionals(model).data_rows
        assert np.allclose(rows[0], [0.5, 0.5], atol=1e-6)
        assert np.allclose(rows[1], [0.0, 1.0], atol=1e-6)

    def test_all_zero_counts_give_uniform(self):
        rows = prior_conditionals(RelationshipModel(np.zeros((4, 4)), None)).data_rows
        assert np.allclose(rows, 0.25)

    def test_hand_normalized_three_class_row(self):
        model = RelationshipModel(np.array([[1.0, 2.0, 3.0], [0.0] * 3, [0.0] * 3]), None)
        rows = prior_conditionals(model).data_rows
        assert np.allclose(rows[0], [1 / 6, 2 / 6, 3 / 6], atol=1e-5)

    @given(
        st.lists(
            st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_always_distributions(self, counts):
        model = RelationshipModel(np.array(counts), None)
        rows = prior_conditionals(model).data_rows
        assert (rows > 0).all()
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)

    def test_smoothing_negligible_for_large_counts(self):
        counts = [[10.0, 20.0, 30.0], [5.0, 5.0, 5.0], [1.0, 2.0, 1.0]]
        model = RelationshipModel(np.array(counts), None, epsilon=1e-6)
        smoothed = prior_conditionals(model).data_rows
        raw = model.data_counts / model.data_counts.sum(axis=1, keepdims=True)
        assert np.abs(smoothed - raw).max() < 10 * model.epsilon


class TestImmutability:
    def test_nan_epsilon_rejected(self):
        # the check was written as epsilon <= 0, which NaN passes
        for bad in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(ValueError, match="epsilon must be positive and finite"):
                RelationshipModel(np.zeros((2, 2)), None, epsilon=bad)

    @pytest.mark.parametrize(
        "data, attr, message",
        [
            (np.zeros((3, 2)), None, r"data_counts must be a square matrix, got shape \(3, 2\)"),
            (np.zeros(4), None, r"data_counts must be a square matrix, got shape \(4,\)"),
            (np.zeros((3, 3)), np.zeros((2, 4)), r"attr_counts must have one row per class \(3\), got shape \(2, 4\)"),
            (np.zeros((3, 3)), np.zeros(3), r"attr_counts must have one row per class \(3\), got shape \(3,\)"),
        ],
    )
    def test_misshaped_counts_rejected(self, data, attr, message):
        # a 2-row attribute table used to build a 3-class model
        with pytest.raises(ValueError, match=message):
            RelationshipModel(data, attr)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1.0])
    @pytest.mark.parametrize("table", ["data_counts", "attr_counts"])
    def test_negative_or_non_finite_count_rejected(self, table, bad):
        # a NaN or negative count used to be accepted; pytest turns
        # RuntimeWarnings into errors, so the check must raise no warning
        counts = {"data_counts": np.ones((2, 2)), "attr_counts": np.ones((2, 3))}
        counts[table][1, 0] = bad
        with pytest.raises(ValueError, match=f"{table} hold a negative or non-finite count"):
            RelationshipModel(counts["data_counts"], counts["attr_counts"])

    def test_in_place_writes_raise(self):
        obs = {0: [[0.7, 0.3]]}
        ds = linked_dataset(labels=(0, 1, 2), links=((0, 1),), m=2, attr_obs=obs)
        model = build_relationship(ds, {0: 0, 1: 1})
        with pytest.raises(ValueError, match="read-only"):
            model.data_counts[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            model.attr_counts[0, 0] = 1.0
        with pytest.raises(TypeError):
            model.labels[2] = 2
        with pytest.raises(FrozenInstanceError):
            model.epsilon = 1.0

    @pytest.mark.parametrize(
        "labels, message",
        [
            ({0: 0.7}, r"^labels must be integer-valued, got 0\.7$"),
            ({0: 3}, r"^labels must lie in \[0, 3\), got 3$"),
            ({0.5: 1}, r"^ids must be integer-valued, got 0\.5$"),
        ],
    )
    def test_bad_labels_rejected_at_construction(self, labels, message):
        # these used to build, and raise only at the next update
        with pytest.raises(ValueError, match=message):
            RelationshipModel(np.zeros((3, 3)), None, labels=labels)

    def test_stored_id_the_dataset_lacks_raises_at_update(self):
        model = RelationshipModel(np.zeros((3, 3)), None, labels={99: 1})
        with pytest.raises(KeyError, match="unknown instance id 99"):
            update_relationship(model, linked_dataset(), {0: 0})

    def test_construction_copies(self):
        counts, labels = np.zeros((2, 2)), {0: 1}
        model = RelationshipModel(counts, None, labels=labels)
        counts[0, 0], labels[1] = 5.0, 0
        assert model.data_counts[0, 0] == 0.0
        assert dict(model.labels) == {0: 1}
