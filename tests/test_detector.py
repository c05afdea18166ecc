from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxnoise import (
    Conditionals,
    Dataset,
    Instance,
    MlrConfig,
    MlrModel,
    RelationshipModel,
    batch_weights,
    build_relationship,
    cnld_detect,
    detect_topk,
    dissimilarity,
    inject_ncar,
    prior_conditionals,
    ranking_auc,
    star_divergences,
)
from ctxnoise import detector

from oracles import (
    NoContextError,
    PosteriorConditionals,
    build_instance_graph,
    per_occurrence_star_divergences,
    posterior_conditionals,
    reference_hinge,
)

from test_relationship import linked_dataset


def conds(data_rows, attr_rows=None):
    return Conditionals(
        data_rows=np.asarray(data_rows, dtype=float),
        attr_rows=None if attr_rows is None else np.asarray(attr_rows, dtype=float),
    )


def post(data_rows=None, attr_rows=None):
    return PosteriorConditionals(
        data_rows=None if data_rows is None else np.asarray(data_rows, dtype=float),
        attr_rows=None if attr_rows is None else np.asarray(attr_rows, dtype=float),
    )


class TestDissimilarity:
    def test_posterior_equal_prior_scores_zero(self):
        rows = [[0.7, 0.2, 0.1], [0.2, 0.5, 0.3], [0.1, 0.1, 0.8]]
        for k in range(3):
            assert dissimilarity(conds(rows), post(rows), k) <= 1e-12

    def test_minimal_kl_assigned_class_scores_zero(self):
        prior = [[0.9, 0.1], [0.1, 0.9]]
        # row 0 drifted less than row 1: assigning class 0 costs nothing
        posterior = [[0.85, 0.15], [0.4, 0.6]]
        assert dissimilarity(conds(prior), post(posterior), 0) == 0.0
        assert dissimilarity(conds(prior), post(posterior), 1) > 0.0

    def test_hand_derived_two_class_value(self):
        prior = [[0.9, 0.1], [0.1, 0.9]]
        posterior = [[0.5, 0.5], [0.1, 0.9]]
        value = dissimilarity(conds(prior), post(posterior), 0)
        assert abs(value - 0.2554) < 1e-4
        assert abs(value - 0.25541281188299535) < 1e-12

    def test_attribute_part_weighted_by_attribute_count(self):
        prior_d = [[0.5, 0.5], [0.5, 0.5]]
        prior_a = [[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]]
        post_a = [[0.2, 0.4, 0.4], [0.1, 0.1, 0.8]]
        kl0 = float(np.sum(np.array(post_a[0]) * np.log(np.array(post_a[0]) / np.array(prior_a[0]))))
        got = dissimilarity(conds(prior_d, prior_a), post(attr_rows=post_a), 0)
        # hinge over both classes, attribute part scaled by 1/m = 1/3
        assert abs(got - kl0 / 3.0) < 1e-12

    def test_absent_parts_are_omitted(self):
        prior = conds([[0.9, 0.1], [0.1, 0.9]], [[0.5, 0.5], [0.5, 0.5]])
        only_data = post(data_rows=[[0.5, 0.5], [0.1, 0.9]])
        only_attr = post(attr_rows=[[0.5, 0.5], [0.5, 0.5]])
        assert dissimilarity(prior, only_data, 0) > 0
        assert dissimilarity(prior, only_attr, 0) == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dissimilarity(conds([[0.5, 0.5], [0.5, 0.5]]), post([[1 / 3] * 3] * 3), 0)
        with pytest.raises(ValueError):
            dissimilarity(conds([[0.5, 0.5], [0.5, 0.5]]), post([[0.5, 0.5], [0.5, 0.5]]), 5)

    def test_zero_posterior_entries_count_as_zero(self):
        prior = [[0.9, 0.1], [0.1, 0.9]]
        value = dissimilarity(conds(prior), post([[1.0, 0.0], [0.0, 1.0]]), 0)
        assert value == 0.0
        value = dissimilarity(conds(prior), post([[0.0, 1.0], [0.0, 1.0]]), 0)
        assert abs(value - 0.5 * np.log(9.0)) < 1e-12  # (log 10 - log(1/0.9)) / 2

    def test_non_finite_score_raises(self):
        # a zero in the prior row is infinitely surprising: fail, do not score 0
        with pytest.raises(ValueError, match="non-finite"):
            dissimilarity(conds([[1.0, 0.0], [0.0, 1.0]]), post([[0.5, 0.5], [0.5, 0.5]]), 0)
        with pytest.raises(ValueError, match="non-finite"):
            dissimilarity(conds([[0.5, 0.5], [0.5, 0.5]]), post([[np.nan, 0.5], [0.5, 0.5]]), 0)

    @given(st.integers(0, 2), st.lists(st.floats(0.05, 1.0), min_size=9, max_size=9))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_and_zero_iff_assigned_kl_minimal(self, assigned, raw):
        prior_rows = np.array([[0.6, 0.3, 0.1], [0.2, 0.6, 0.2], [0.1, 0.2, 0.7]])
        post_rows = np.array(raw).reshape(3, 3)
        post_rows /= post_rows.sum(axis=1, keepdims=True)
        value = dissimilarity(conds(prior_rows), post(post_rows), assigned)
        kls = [
            float(np.sum(post_rows[j] * np.log(post_rows[j] / prior_rows[j]))) for j in range(3)
        ]
        assert value >= 0.0
        if value <= 1e-12:
            assert kls[assigned] <= min(kls) + 1e-12
        else:
            assert kls[assigned] > min(kls)


class TestBatchWeights:
    def test_direct_example(self):
        assert np.array_equal(batch_weights([2.0, 1.0, 0.0]), [0.0, 0.5, 1.0])

    def test_all_equal_positive_scores_give_zero_weights(self):
        assert np.array_equal(batch_weights([3.0, 3.0, 3.0]), [0.0, 0.0, 0.0])

    def test_all_zero_scores_keep_everything(self):
        assert np.array_equal(batch_weights([0.0, 0.0]), [1.0, 1.0])

    def test_negative_scores_rejected(self):
        with pytest.raises(ValueError):
            batch_weights([1.0, -0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scores_rejected(self, bad):
        # NaN used to make every weight NaN, so cnld_detect removed the batch
        with pytest.raises(ValueError, match="finite"):
            batch_weights([bad, 1.0])

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20), st.floats(0.1, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_bounds_and_scale_invariance(self, scores, scale):
        w = batch_weights(scores)
        assert (w >= 0).all() and (w <= 1).all()
        # scaling keeps the ratios to the maximum only while the maximum stays
        # a normal float: [5e-324] * 0.5 underflows to the all-zero batch
        top = max(scores)
        if top == 0 or min(top, top * scale) >= np.finfo(float).tiny:
            scaled = batch_weights([s * scale for s in scores])
            assert np.allclose(w, scaled, atol=1e-9)
        if max(scores) > 0:
            assert int(np.argmin(w)) == int(np.argmax(np.asarray(scores)))


def uniform_evidence_setup():
    """Dataset + zero classifier: every leaf potential is uniform, so the
    posterior equals the prior and every score is exactly zero."""
    ds = linked_dataset(labels=(0, 1, 2, 0, 1), links=((0, 1), (0, 2), (1, 3), (2, 4)))
    rel = build_relationship(ds, dict(zip(ds.ids.tolist(), ds.labels.tolist())))
    model = MlrModel(np.zeros((3, 1)), np.zeros(3), MlrConfig(n_classes=3))
    return ds, rel, model


class TestCnldDetect:
    def test_uniform_evidence_keeps_everything(self):
        ds, rel, model = uniform_evidence_setup()
        ids = ds.ids.tolist()
        table = star_divergences(ids, ds, model, rel)
        removed, scores = cnld_detect(ids, ds.true_labels(ids), table, beta=0.85)
        assert not removed.any() and table.has_context.all()
        assert np.allclose(scores, 0.0, atol=1e-12)
        assert np.array_equal(batch_weights(scores), np.ones(len(ids)))

    def test_single_instance_batch_composition_rule(self):
        ds, rel, model = uniform_evidence_setup()
        table = star_divergences([0], ds, model, rel)
        removed, scores = cnld_detect([0], ds.true_labels([0]), table, beta=0.85)
        assert removed.tolist() == [False] and table.has_context.tolist() == [True]
        assert batch_weights(scores)[0] == 1.0

    def test_single_instance_with_positive_score_is_its_own_max(self, trained_setup):
        # a lone scored instance has weight 0 (removed) or 1 (kept), nothing between
        dataset, pool, rest, model = trained_setup
        rel = build_relationship(dataset, dict(zip(pool, dataset.true_labels(pool).tolist())))
        qid = rest[0]
        wrong = (int(dataset.true_labels([qid])[0]) + 1) % 4
        removed, scores = cnld_detect([qid], [wrong], star_divergences([qid], dataset, model, rel), beta=0.85)
        assert batch_weights(scores)[0] in (0.0, 1.0)
        if scores[0] > 0:
            assert removed.tolist() == [True]

    def test_beta_zero_removes_only_the_max(self, trained_setup):
        dataset, pool, rest, model = trained_setup
        rel = build_relationship(dataset, dict(zip(pool, dataset.true_labels(pool).tolist())))
        queried = rest[:40]
        plan = inject_ncar(dataset.true_labels(queried), 4, 0.5, seed=1)
        removed, scores = cnld_detect(queried, plan.assigned, star_divergences(queried, dataset, model, rel), beta=0.0)
        assert np.array_equal(removed, batch_weights(scores) == 0.0)
        assert removed.sum() >= 1

    def test_flipped_instances_score_higher(self, trained_setup):
        dataset, pool, rest, model = trained_setup
        rel = build_relationship(dataset, dict(zip(pool, dataset.true_labels(pool).tolist())))
        aucs, gaps = [], []
        for seed in range(5):
            plan = inject_ncar(dataset.true_labels(rest), 4, 0.4, seed=seed)
            _, scores = cnld_detect(rest, plan.assigned, star_divergences(rest, dataset, model, rel))
            flipped = plan.flipped
            gaps.append(scores[flipped].mean() - scores[~flipped].mean())
            aucs.append(ranking_auc(scores, flipped))
        assert len(rest) >= 200
        assert min(gaps) > 0
        assert np.mean(aucs) > 0.85

    def test_unfilterable_instances_kept(self):
        ds = linked_dataset(labels=(0, 1, 2), links=((0, 1),))  # instance 2 isolated
        rel = build_relationship(ds, {0: 0, 1: 1, 2: 2})
        model = MlrModel(np.zeros((3, 1)), np.zeros(3), MlrConfig(n_classes=3))
        table = star_divergences([0, 1, 2], ds, model, rel)
        removed, _ = cnld_detect([0, 1, 2], [0, 1, 2], table, beta=0.85)
        assert not table.has_context[2] and not removed[2]
        # an isolated instance's label is never scored, so it is not range-checked
        removed, _ = cnld_detect([0, 1, 2], [0, 1, 7], table, beta=0.85)
        assert not table.has_context[2] and not removed[2]

    def test_empty_query_rejected(self):
        ds, rel, model = uniform_evidence_setup()
        with pytest.raises(ValueError):
            cnld_detect([], [], star_divergences([], ds, model, rel))

    def test_invalid_beta_rejected(self):
        ds, rel, model = uniform_evidence_setup()
        with pytest.raises(ValueError):
            cnld_detect([0], [0], star_divergences([0], ds, model, rel), beta=1.0)

    def test_deterministic(self, trained_setup):
        dataset, pool, rest, model = trained_setup
        rel = build_relationship(dataset, dict(zip(pool, dataset.true_labels(pool).tolist())))
        queried = rest[:30]
        plan = inject_ncar(dataset.true_labels(queried), 4, 0.3, seed=0)
        a_removed, a_scores = cnld_detect(queried, plan.assigned, star_divergences(queried, dataset, model, rel))
        b_removed, b_scores = cnld_detect(queried, plan.assigned, star_divergences(queried, dataset, model, rel))
        assert np.array_equal(a_scores, b_scores)
        assert np.array_equal(a_removed, b_removed)

    def test_scores_are_per_instance(self, trained_setup):
        # dropping one instance from the batch must not change the others' scores
        dataset, pool, rest, model = trained_setup
        rel = build_relationship(dataset, dict(zip(pool, dataset.true_labels(pool).tolist())))
        queried = rest[:20]
        plan = inject_ncar(dataset.true_labels(queried), 4, 0.4, seed=2)
        _, full = cnld_detect(queried, plan.assigned, star_divergences(queried, dataset, model, rel))
        table = star_divergences(queried[1:], dataset, model, rel)
        _, partial = cnld_detect(queried[1:], plan.assigned[1:], table)
        assert np.allclose(full[1:], partial, atol=0)


class TestDetectTopk:
    def test_zero_budget_removes_nothing(self, trained_setup):
        dataset, pool, rest, model = trained_setup
        rel = build_relationship(dataset, dict(zip(pool, dataset.true_labels(pool).tolist())))
        queried = rest[:15]
        table = star_divergences(queried, dataset, model, rel)
        removed, _ = detect_topk(queried, dataset.true_labels(queried), table, 0)
        assert not removed.any()

    def test_full_budget_removes_everything(self, trained_setup):
        dataset, pool, rest, model = trained_setup
        rel = build_relationship(dataset, dict(zip(pool, dataset.true_labels(pool).tolist())))
        queried = rest[:15]
        plan = inject_ncar(dataset.true_labels(queried), 4, 0.4, seed=0)
        table = star_divergences(queried, dataset, model, rel)
        removed, _ = detect_topk(queried, plan.assigned, table, len(queried))
        assert removed.all()

    def test_ties_break_toward_lower_id(self):
        ds, rel, model = uniform_evidence_setup()  # all scores exactly zero
        ids = ds.ids.tolist()
        table = star_divergences(ids, ds, model, rel)
        removed, _ = detect_topk(ids, ds.true_labels(ids), table, 2)
        assert removed.tolist() == [i in (0, 1) for i in ids]

    def test_budget_validation(self):
        ds, rel, model = uniform_evidence_setup()
        with pytest.raises(ValueError):
            detect_topk([0], [0], star_divergences([0], ds, model, rel), removal_count=2)
        with pytest.raises(ValueError):
            detect_topk([0], [0], star_divergences([0], ds, model, rel), removal_count=-1)


def reference_scores(queried, assigned, dataset, model, rel):
    """Per-star route: one instance graph, its posterior conditionals and
    dissimilarity per queried instance."""
    prior = prior_conditionals(rel)
    scores, has_context = [], []
    for qid, label in zip(queried, assigned):
        try:
            graph = build_instance_graph(qid, dataset, model, rel)
        except NoContextError:
            scores.append(0.0)
            has_context.append(False)
            continue
        scores.append(dissimilarity(prior, posterior_conditionals(graph), int(label)))
        has_context.append(True)
    return np.array(scores), np.array(has_context)


@st.composite
def scoring_cases(draw, max_degree=4):
    """A small linked dataset, a model, a relationship and a labeled query.

    Features and MLR weights lie on an integer grid (weights times a scale up
    to 1e4), so the logits are exact and both routes see bit-identical
    classifier outputs; at large scales the probabilities hold exact zeros.
    Attribute observations hold exact zeros too.
    """
    n = draw(st.integers(2, 4))
    m = draw(st.integers(0, 3))
    size = draw(st.integers(2, 9))
    d = 2
    pairs = draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)), max_size=3 * size))
    links = [set() for _ in range(size)]
    for u, v in pairs:
        if u != v and len(links[u]) < max_degree and len(links[v]) < max_degree:
            links[u].add(v)
            links[v].add(u)
    grid = st.integers(-2, 2)
    instances = []
    for i in range(size):
        obs = []
        for _ in range(draw(st.integers(0, max_degree)) if m > 0 else 0):
            mass = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0]), min_size=m, max_size=m)))
            if mass.sum() == 0:
                mass[draw(st.integers(0, m - 1))] = 1.0
            obs.append(mass / mass.sum())
        instances.append(Instance(
            id=10 * i + 3,  # ids differ from rows
            features=np.array(draw(st.lists(grid, min_size=d, max_size=d)), dtype=float),
            true_label=draw(st.integers(0, n - 1)),
            attribute_obs=obs,
            link_ids=sorted(10 * v + 3 for v in links[i]),
        ))
    dataset = Dataset(instances=instances, n_classes=n, m_attribute_classes=m, class_names=[f"c{c}" for c in range(n)])
    scale = draw(st.sampled_from([1.0, 10.0, 100.0, 1e4]))
    weights = scale * np.array(draw(st.lists(st.integers(-3, 3), min_size=n * d, max_size=n * d)), dtype=float)
    bias = scale * np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
    model = MlrModel(weights.reshape(n, d), bias, MlrConfig(n_classes=n))
    labeled = draw(st.lists(st.sampled_from(dataset.ids.tolist()), unique=True))
    rel = build_relationship(
        dataset,
        {i: draw(st.integers(0, n - 1)) for i in labeled},
        epsilon=draw(st.sampled_from([1e-6, 1e-2, 1.0])),
    )
    queried = draw(st.permutations(dataset.ids.tolist()))
    assigned = [draw(st.integers(0, n - 1)) for _ in queried]
    return queried, assigned, dataset, model, rel


def assert_same_divergences(got, want):
    for name in ("ids", "has_context", "data_kl", "attr_kl"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8)), name
    assert (got.n_classes, got.m_attribute_classes) == (want.n_classes, want.m_attribute_classes)


class TestBatchKernel:
    @given(scoring_cases(), st.sampled_from([1, 400, detector.BLOCK_BYTES]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_star_reference(self, case, block_bytes, data):
        # block_bytes=1 puts every star in its own block, 400 a few leaves per block
        queried, assigned, dataset, model, rel = case
        with mock.patch.object(detector, "BLOCK_BYTES", block_bytes):
            table = star_divergences(queried, dataset, model, rel)
        # one table serves every label vector of the same stars
        label = st.integers(0, dataset.n_classes - 1)
        others = data.draw(st.lists(st.lists(label, min_size=len(queried), max_size=len(queried)), max_size=3))
        for labels in [assigned, *others]:
            _, scores = detect_topk(queried, labels, table, 0)
            want_scores, want_context = reference_scores(queried, labels, dataset, model, rel)
            assert np.array_equal(table.has_context, want_context)
            assert np.isfinite(scores).all() and (scores >= 0).all()
            assert np.abs(scores - want_scores).max() <= 1e-12

    @given(scoring_cases(), st.sampled_from([1, 400, detector.BLOCK_BYTES]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_neighbour_table_matches_the_per_occurrence_route(self, case, block_bytes, data):
        # Neighbours repeat across stars (each link joins two), some stars
        # have no leaves, some have attribute leaves, and at 400 bytes the
        # table's blocks split a star's neighbours.  The logits are exact,
        # so the bits cannot hang on the rows a classifier call holds.
        queried, _, dataset, model, rel = case
        queried = queried[: data.draw(st.integers(1, len(queried)))]
        with mock.patch.object(detector, "BLOCK_BYTES", block_bytes):
            assert_same_divergences(
                star_divergences(queried, dataset, model, rel),
                per_occurrence_star_divergences(queried, dataset, model, rel),
            )

    @pytest.mark.parametrize("block_bytes", [1 << 12, detector.BLOCK_BYTES])
    def test_neighbour_table_matches_the_per_occurrence_route_on_a_trained_model(self, trained_setup, block_bytes):
        # float logits: the bits agree because a predict_proba row does not
        # depend on its call at this d (test_classifiers pins that)
        dataset, pool, rest, model = trained_setup
        rel = build_relationship(dataset, dict(zip(pool, dataset.true_labels(pool).tolist())))
        with mock.patch.object(detector, "BLOCK_BYTES", block_bytes):
            assert_same_divergences(
                star_divergences(rest, dataset, model, rel),
                per_occurrence_star_divergences(rest, dataset, model, rel),
            )

    def test_ids_and_labels_must_match_the_table(self):
        ds, rel, model = uniform_evidence_setup()
        table = star_divergences([0, 1, 2], ds, model, rel)
        with pytest.raises(ValueError, match="differ from the ids"):
            cnld_detect([0, 2, 1], [0, 0, 0], table)
        with pytest.raises(ValueError, match="differ from the ids"):
            detect_topk([0, 1], [0, 0], table, 0)
        with pytest.raises(ValueError, match="must align"):
            detect_topk([0, 1, 2], [0, 0], table, 0)
        assert not table.data_kl.flags.writeable

    def test_corrupt_counts_raise_without_warnings(self):
        # a model built by hand with a NaN count is rejected at construction
        # rather than scored as a non-finite dissimilarity in cnld_detect.
        # pytest turns RuntimeWarnings into errors, so only the ValueError
        # may surface
        ds = linked_dataset(labels=(0, 1), links=((0, 1),), n_classes=2)
        rel = build_relationship(ds, {0: 0, 1: 1})
        counts = rel.data_counts.copy()
        counts[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            RelationshipModel(counts, None, rel.epsilon, rel.labels)

    def test_attribute_class_count_mismatch_rejected(self):
        # the kernel would broadcast a one-column relationship over m columns
        ds = linked_dataset(labels=(0, 1), links=(), n_classes=2, m=2, attr_obs={0: [[1.0, 0.0]]})
        rel = build_relationship(linked_dataset(labels=(0, 1), links=(), n_classes=2, m=1, attr_obs={0: [[1.0]]}), {0: 0})
        model = MlrModel(np.zeros((2, 1)), np.zeros(2), MlrConfig(n_classes=2))
        with pytest.raises(ValueError, match="attribute class counts differ"):
            cnld_detect([0, 1], [0, 1], star_divergences([0, 1], ds, model, rel))


class TestStarDivergencesConstruction:
    def table(self, **fields):
        arrays = dict(ids=np.array([1, 2]), has_context=np.array([True, True]), data_kl=np.array([[0.0, 2.0], [2.0, 0.0]]))
        return detector.StarDivergences(**{**arrays, **fields}, attr_kl=None, n_classes=2, m_attribute_classes=0)

    def test_hand_built_table_is_a_read_only_snapshot(self):
        # a hand-built table used to keep the caller's writable arrays, so
        # editing data_kl afterwards left dissimilarities stale
        ids, has_context, kls = np.array([1, 2]), np.array([True, True]), np.array([[0.0, 2.0], [2.0, 0.0]])
        table = self.table(ids=ids, has_context=has_context, data_kl=kls)
        ids[0], has_context[0], kls[0] = 7, False, [4.0, 0.0]
        assert table.ids.tolist() == [1, 2] and table.has_context.tolist() == [True, True]
        assert table.data_kl.tolist() == [[0.0, 2.0], [2.0, 0.0]]
        assert table.dissimilarities.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        for name in ("ids", "has_context", "data_kl", "dissimilarities"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(table, name)[0] = 0

    BAD_TABLES = {
        "2-D ids": (
            dict(ids=np.array([[1, 2]]), has_context=np.array([[True, True]])),
            r"StarDivergences needs 1-D ids, got shape \(1, 2\)",
        ),
        "int flags": (
            dict(has_context=np.array([1, 1])),
            r"StarDivergences needs one bool has_context flag per id, got int64 \(2,\) for 2 ids",
        ),
        "one flag short": (
            dict(has_context=np.array([True])),
            r"StarDivergences needs one bool has_context flag per id, got bool \(1,\) for 2 ids",
        ),
        "a class too many": (
            dict(data_kl=np.zeros((2, 3))),
            r"StarDivergences.data_kl must be None or \(2, 2\), got shape \(2, 3\)",
        ),
        "1-D table": (dict(data_kl=np.zeros(2)), r"StarDivergences.data_kl must be None or \(2, 2\), got shape \(2,\)"),
    }

    @pytest.mark.parametrize("case", BAD_TABLES)
    def test_bad_table_rejected_at_construction(self, case):
        # each used to build, and fail later inside a gather or a broadcast
        fields, message = self.BAD_TABLES[case]
        with pytest.raises(ValueError, match=f"^{message}$"):
            self.table(**fields)


def star_dissimilarities(queried, dataset, model, rel):
    """Per-star route for every label: row b holds ``dissimilarity`` of
    star b's posterior conditionals against each class, zeros without context."""
    prior = prior_conditionals(rel)
    table = np.zeros((len(queried), dataset.n_classes))
    for b, qid in enumerate(queried):
        try:
            posterior = posterior_conditionals(build_instance_graph(qid, dataset, model, rel))
        except NoContextError:
            continue
        table[b] = [dissimilarity(prior, posterior, k) for k in range(dataset.n_classes)]
    return table


class TestDissimilarityTable:
    def test_every_entry_is_the_dissimilarity_of_its_label(self):
        # star 0 has data and attribute leaves, star 2 attribute leaves only,
        # star 3 data leaves only and star 4 no context at all
        ds = linked_dataset(
            labels=(0, 1, 2, 1, 0), links=((0, 1), (0, 3), (1, 3)), m=2,
            attr_obs={0: [[0.9, 0.1], [0.2, 0.8]], 2: [[1.0, 0.0]]},
        )
        rel = build_relationship(ds, {0: 0, 1: 1, 3: 1})
        model = MlrModel(np.array([[1.0], [-0.5], [0.25]]), np.array([0.0, 0.5, -0.5]), MlrConfig(n_classes=3))
        queried = [4, 2, 0, 3, 1]
        table = star_divergences(queried, ds, model, rel)
        assert table.dissimilarities.shape == (5, 3) and not table.dissimilarities.flags.writeable
        assert table.has_context.tolist() == [False, True, True, True, True]
        assert np.array_equal(table.dissimilarities[0], np.zeros(3))
        assert (table.dissimilarities[1:] > 0).any(axis=1).all()
        want = star_dissimilarities(queried, ds, model, rel)
        assert np.abs(table.dissimilarities - want).max() <= 1e-12

    @given(scoring_cases(), st.sampled_from([1, 400, detector.BLOCK_BYTES]))
    @settings(max_examples=100, deadline=None)
    def test_every_entry_matches_the_per_star_route(self, case, block_bytes):
        queried, _, dataset, model, rel = case
        with mock.patch.object(detector, "BLOCK_BYTES", block_bytes):
            table = star_divergences(queried, dataset, model, rel)
        assert np.array_equal(table.dissimilarities[~table.has_context], np.zeros((int((~table.has_context).sum()), dataset.n_classes)))
        assert np.abs(table.dissimilarities - star_dissimilarities(queried, dataset, model, rel)).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 8, 9, 13, 16, 31])
    @pytest.mark.parametrize("block_bytes", [1, 8 * 49, detector.BLOCK_BYTES])
    def test_each_column_has_the_bits_of_the_one_label_hinge(self, n, block_bytes):
        # below 8 classes numpy adds a row left to right, from 8 on pairwise;
        # the (B, n, n) table reduces rows of the same length in the same way
        rng = np.random.default_rng(n)
        kls = rng.exponential(size=(40, n)) * rng.choice([1e-14, 1.0, 1e3], size=(40, 1))
        kls[rng.random(kls.shape) < 0.2] = 0.0  # exact ties between classes
        attr = rng.exponential(size=(40, n))
        with mock.patch.object(detector, "BLOCK_BYTES", block_bytes):
            table = detector.StarDivergences(np.arange(40), np.ones(40, dtype=bool), kls, attr, n, 3)
        for k in range(n):
            want = np.zeros(40)
            want += reference_hinge(kls, np.full(40, k), n)
            want += reference_hinge(attr, np.full(40, k), 3)
            want[want <= detector.SCORE_FLOOR] = 0.0
            assert table.dissimilarities[:, k].tobytes() == want.tobytes()

    def test_non_finite_entry_raises_only_when_its_label_is_assigned(self):
        table = detector.StarDivergences(
            ids=np.array([1, 2]),
            has_context=np.array([True, False]),
            data_kl=np.array([[0.0, np.inf], [0.0, 0.0]]),
            attr_kl=None,
            n_classes=2,
            m_attribute_classes=0,
        )
        # built without a warning; star 2 has no context, so its label is never read
        assert np.isnan(table.dissimilarities).tolist() == [[False, True], [False, False]]
        removed, scores = detect_topk([1, 2], [0, 7], table, 1)
        assert scores.tolist() == [0.0, 0.0] and removed.tolist() == [True, False]
        with pytest.raises(ValueError, match=r"^non-finite dissimilarity nan for assigned class 1$"):
            cnld_detect([1, 2], [1, 0], table)
