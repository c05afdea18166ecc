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
    NoContextError,
    batch_weights,
    build_instance_graph,
    build_relationship,
    cnld_detect,
    detect_topk,
    detection_to_csv,
    dissimilarity,
    inject_ncar,
    load_relationship,
    posterior_conditionals,
    prior_conditionals,
    ranking_auc,
    save_relationship,
)
from ctxnoise import detector
from ctxnoise.inference import PosteriorConditionals

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
    rel = build_relationship(ds, {i: ds.by_id(i).true_label for i in ds.ids()})
    model = MlrModel(np.zeros((3, 1)), np.zeros(3), MlrConfig(n_classes=3))
    return ds, rel, model


class TestCnldDetect:
    def test_uniform_evidence_keeps_everything(self):
        ds, rel, model = uniform_evidence_setup()
        ids = ds.ids()
        result = cnld_detect(ids, [ds.by_id(i).true_label for i in ids], ds, model, rel, beta=0.85)
        assert result.verdicts == ["keep"] * len(ids)
        assert np.allclose(result.scores, 0.0, atol=1e-12)
        assert np.array_equal(result.weights, np.ones(len(ids)))

    def test_single_instance_batch_composition_rule(self):
        ds, rel, model = uniform_evidence_setup()
        result = cnld_detect([0], [ds.by_id(0).true_label], ds, model, rel, beta=0.85)
        assert result.verdicts == ["keep"]
        assert result.weights[0] == 1.0

    def test_single_instance_with_positive_score_is_its_own_max(self, trained_setup):
        # a lone scored instance has weight 0 (removed) or 1 (kept), nothing between
        dataset, pool, rest, model = trained_setup
        rel = build_relationship(dataset, {i: dataset.by_id(i).true_label for i in pool})
        qid = rest[0]
        wrong = (dataset.by_id(qid).true_label + 1) % 4
        result = cnld_detect([qid], [wrong], dataset, model, rel, beta=0.85)
        assert result.weights[0] in (0.0, 1.0)
        if result.scores[0] > 0:
            assert result.verdicts == ["remove"]

    def test_beta_zero_removes_only_the_max(self, trained_setup):
        dataset, pool, rest, model = trained_setup
        rel = build_relationship(dataset, {i: dataset.by_id(i).true_label for i in pool})
        queried = rest[:40]
        plan = inject_ncar(dataset.true_labels(queried), 4, 0.5, seed=1)
        result = cnld_detect(queried, plan.assigned, dataset, model, rel, beta=0.0)
        removed = result.removed_ids()
        top = {qid for qid, w in zip(queried, result.weights) if w == 0.0}
        assert removed == top
        assert len(removed) >= 1

    def test_flipped_instances_score_higher(self, trained_setup):
        dataset, pool, rest, model = trained_setup
        rel = build_relationship(dataset, {i: dataset.by_id(i).true_label for i in pool})
        aucs, gaps = [], []
        for seed in range(5):
            plan = inject_ncar(dataset.true_labels(rest), 4, 0.4, seed=seed)
            result = cnld_detect(rest, plan.assigned, dataset, model, rel)
            flipped = plan.flipped
            gaps.append(result.scores[flipped].mean() - result.scores[~flipped].mean())
            aucs.append(ranking_auc(result.scores, flipped))
        assert len(rest) >= 200
        assert min(gaps) > 0
        assert np.mean(aucs) > 0.85

    def test_unfilterable_instances_kept(self):
        ds = linked_dataset(labels=(0, 1, 2), links=((0, 1),))  # instance 2 isolated
        rel = build_relationship(ds, {0: 0, 1: 1, 2: 2})
        model = MlrModel(np.zeros((3, 1)), np.zeros(3), MlrConfig(n_classes=3))
        result = cnld_detect([0, 1, 2], [0, 1, 2], ds, model, rel, beta=0.85)
        assert result.verdicts[2] == "unfilterable"
        assert 2 in result.kept_ids()
        # an isolated instance's label is never scored, so it is not range-checked
        result = cnld_detect([0, 1, 2], [0, 1, 7], ds, model, rel, beta=0.85)
        assert result.verdicts[2] == "unfilterable"

    def test_empty_query_rejected(self):
        ds, rel, model = uniform_evidence_setup()
        with pytest.raises(ValueError):
            cnld_detect([], [], ds, model, rel)

    def test_invalid_beta_rejected(self):
        ds, rel, model = uniform_evidence_setup()
        with pytest.raises(ValueError):
            cnld_detect([0], [0], ds, model, rel, beta=1.0)

    def test_deterministic(self, trained_setup):
        dataset, pool, rest, model = trained_setup
        rel = build_relationship(dataset, {i: dataset.by_id(i).true_label for i in pool})
        queried = rest[:30]
        plan = inject_ncar(dataset.true_labels(queried), 4, 0.3, seed=0)
        a = cnld_detect(queried, plan.assigned, dataset, model, rel)
        b = cnld_detect(queried, plan.assigned, dataset, model, rel)
        assert np.array_equal(a.scores, b.scores)
        assert a.verdicts == b.verdicts

    def test_scores_are_per_instance(self, trained_setup):
        # dropping one instance from the batch must not change the others' scores
        dataset, pool, rest, model = trained_setup
        rel = build_relationship(dataset, {i: dataset.by_id(i).true_label for i in pool})
        queried = rest[:20]
        plan = inject_ncar(dataset.true_labels(queried), 4, 0.4, seed=2)
        full = cnld_detect(queried, plan.assigned, dataset, model, rel)
        partial = cnld_detect(queried[1:], plan.assigned[1:], dataset, model, rel)
        assert np.allclose(full.scores[1:], partial.scores, atol=0)


class TestDetectTopk:
    def test_zero_budget_removes_nothing(self, trained_setup):
        dataset, pool, rest, model = trained_setup
        rel = build_relationship(dataset, {i: dataset.by_id(i).true_label for i in pool})
        queried = rest[:15]
        result = detect_topk(queried, dataset.true_labels(queried), dataset, model, rel, 0)
        assert result.removed_ids() == set()

    def test_full_budget_removes_everything(self, trained_setup):
        dataset, pool, rest, model = trained_setup
        rel = build_relationship(dataset, {i: dataset.by_id(i).true_label for i in pool})
        queried = rest[:15]
        plan = inject_ncar(dataset.true_labels(queried), 4, 0.4, seed=0)
        result = detect_topk(queried, plan.assigned, dataset, model, rel, len(queried))
        assert result.removed_ids() == set(queried)

    def test_ties_break_toward_lower_id(self):
        ds, rel, model = uniform_evidence_setup()  # all scores exactly zero
        ids = ds.ids()
        result = detect_topk(ids, [ds.by_id(i).true_label for i in ids], ds, model, rel, 2)
        assert result.removed_ids() == {0, 1}

    def test_budget_validation(self):
        ds, rel, model = uniform_evidence_setup()
        with pytest.raises(ValueError):
            detect_topk([0], [0], ds, model, rel, removal_count=2)
        with pytest.raises(ValueError):
            detect_topk([0], [0], ds, model, rel, removal_count=-1)


def test_detection_csv(tmp_path, trained_setup):
    dataset, pool, rest, model = trained_setup
    rel = build_relationship(dataset, {i: dataset.by_id(i).true_label for i in pool})
    queried = rest[:10]
    plan = inject_ncar(dataset.true_labels(queried), 4, 0.3, seed=0)
    result = cnld_detect(queried, plan.assigned, dataset, model, rel)
    path = tmp_path / "det.csv"
    detection_to_csv(result, path, flip_mask={q: bool(f) for q, f in zip(queried, plan.flipped)})
    lines = path.read_text().splitlines()
    assert lines[0] == "id,assigned,l,gamma,verdict,truly_flipped"
    assert len(lines) == 11


def reference_scores(queried, assigned, dataset, model, rel):
    """Per-star route: one instance graph, its posterior conditionals and
    dissimilarity per queried instance."""
    prior = prior_conditionals(rel)
    scores, has_context = [], []
    for qid, label in zip(queried, assigned):
        try:
            graph = build_instance_graph(dataset.by_id(qid), dataset, model, rel)
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
    dataset = Dataset(instances, n, m, [f"c{c}" for c in range(n)])
    dataset.validate()
    scale = draw(st.sampled_from([1.0, 10.0, 100.0, 1e4]))
    weights = scale * np.array(draw(st.lists(st.integers(-3, 3), min_size=n * d, max_size=n * d)), dtype=float)
    bias = scale * np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
    model = MlrModel(weights.reshape(n, d), bias, MlrConfig(n_classes=n))
    labeled = draw(st.lists(st.sampled_from(dataset.ids()), unique=True))
    rel = build_relationship(
        dataset,
        {i: draw(st.integers(0, n - 1)) for i in labeled},
        epsilon=draw(st.sampled_from([1e-6, 1e-2, 1.0])),
    )
    queried = draw(st.permutations(dataset.ids()))
    assigned = [draw(st.integers(0, n - 1)) for _ in queried]
    return queried, assigned, dataset, model, rel


class TestBatchKernel:
    @given(scoring_cases(), st.sampled_from([1, 400, detector.BLOCK_BYTES]))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_star_reference(self, case, block_bytes):
        # block_bytes=1 puts every star in its own block, 400 a few leaves per block
        queried, assigned, dataset, model, rel = case
        with mock.patch.object(detector, "BLOCK_BYTES", block_bytes):
            scores, has_context = detector._score_batch(queried, assigned, dataset, model, rel)
        want_scores, want_context = reference_scores(queried, assigned, dataset, model, rel)
        assert np.array_equal(has_context, want_context)
        assert np.isfinite(scores).all() and (scores >= 0).all()
        assert np.abs(scores - want_scores).max() <= 1e-12

    def test_corrupt_counts_raise_without_warnings(self, tmp_path):
        # a NaN count, as a damaged relationship dump holds; pytest turns
        # RuntimeWarnings into errors, so only the ValueError may surface
        ds = linked_dataset(labels=(0, 1), links=((0, 1),), n_classes=2)
        rel = build_relationship(ds, {0: 0, 1: 1})
        path = tmp_path / "rel.txt"
        save_relationship(rel, path)
        path.write_text(path.read_text().replace("1.0", "nan", 1))
        model = MlrModel(np.zeros((2, 1)), np.zeros(2), MlrConfig(n_classes=2))
        with pytest.raises(ValueError, match="non-finite"):
            cnld_detect([0, 1], [0, 1], ds, model, load_relationship(path))

    def test_attribute_class_count_mismatch_rejected(self):
        # the kernel would broadcast a one-column relationship over m columns
        ds = linked_dataset(labels=(0, 1), links=(), n_classes=2, m=2, attr_obs={0: [[1.0, 0.0]]})
        rel = build_relationship(linked_dataset(labels=(0, 1), links=(), n_classes=2, m=1, attr_obs={0: [[1.0]]}), {0: 0})
        model = MlrModel(np.zeros((2, 1)), np.zeros(2), MlrConfig(n_classes=2))
        with pytest.raises(ValueError, match="attribute class counts differ"):
            cnld_detect([0, 1], [0, 1], ds, model, rel)
