import numpy as np
import pytest

from ctxnoise import MlrConfig, MlrModel, build_relationship, prior_conditionals
from ctxnoise.inference import batch_posterior_rows, leaf_marginals, star_posterior_rows

from oracles import (
    InstanceGraph,
    NoContextError,
    brute_clamped_leaf_marginal,
    brute_edge_beliefs,
    brute_marginals,
    build_instance_graph,
    clamped_leaf_marginals,
    posterior_conditionals,
    random_tree,
    star_as_tree,
    sum_product,
)
from test_relationship import linked_dataset


def make_graph(data_pots=None, attr_pots=None, data_edge=None, attr_edge=None, center=None, n=2):
    data_pots = np.asarray(data_pots, dtype=float) if data_pots is not None else np.empty((0, n))
    attr_pots = (
        np.asarray(attr_pots, dtype=float)
        if attr_pots is not None
        else np.empty((0, attr_edge.shape[1] if attr_edge is not None else 0))
    )
    if data_edge is None:
        data_edge = np.ones((n, n))
    return InstanceGraph(
        instance_id=0,
        center_potential=np.asarray(center, dtype=float) if center is not None else np.full(n, 1.0 / n),
        data_potentials=data_pots,
        attr_potentials=attr_pots,
        data_edge_potential=np.asarray(data_edge, dtype=float),
        attr_edge_potential=None if attr_edge is None else np.asarray(attr_edge, dtype=float),
    )


class TestBuildInstanceGraph:
    def test_citation_star_shape(self):
        ds = linked_dataset(labels=(0, 1, 2, 1), links=((0, 1), (0, 2), (0, 3)))
        rel = build_relationship(ds, dict(zip(ds.ids.tolist(), ds.labels.tolist())))
        model = MlrModel(np.zeros((3, 1)), np.zeros(3), MlrConfig(n_classes=3))
        graph = build_instance_graph(0, ds, model, rel)
        assert graph.e1 == 3
        assert graph.e2 == 0

    def test_attribute_only_star_shape(self):
        obs = {0: [[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]]}
        ds = linked_dataset(labels=(0, 1), n_classes=2, links=(), m=3, attr_obs=obs)
        rel = build_relationship(ds, {0: 0, 1: 1})
        model = MlrModel(np.zeros((2, 1)), np.zeros(2), MlrConfig(n_classes=2))
        graph = build_instance_graph(0, ds, model, rel)
        assert graph.e1 == 0
        assert graph.e2 == 3

    def test_zero_weight_classifier_gives_uniform_leaf_potentials(self):
        ds = linked_dataset(labels=(0, 1, 2), links=((0, 1), (0, 2)))
        rel = build_relationship(ds, dict(zip(ds.ids.tolist(), ds.labels.tolist())))
        model = MlrModel(np.zeros((3, 1)), np.zeros(3), MlrConfig(n_classes=3))
        graph = build_instance_graph(0, ds, model, rel)
        assert np.allclose(graph.data_potentials, 1.0 / 3)
        assert np.allclose(graph.center_potential, 1.0 / 3)

    def test_isolated_instance_raises_no_context(self):
        ds = linked_dataset(labels=(0, 1), n_classes=2, links=())
        rel = build_relationship(ds, {0: 0, 1: 1})
        model = MlrModel(np.zeros((2, 1)), np.zeros(2), MlrConfig(n_classes=2))
        with pytest.raises(NoContextError):
            build_instance_graph(0, ds, model, rel)


class TestClampedLeafMarginals:
    def test_uniform_leaf_passes_edge_row_through(self):
        graph = make_graph(data_pots=[[0.5, 0.5]], data_edge=[[0.2, 0.8], [0.6, 0.4]])
        marg = clamped_leaf_marginals(graph, 0)[0]
        assert np.allclose(marg, [0.2, 0.8])

    def test_matches_two_node_enumeration(self):
        edge = np.array([[1.0, 3.0], [2.0, 2.0]])
        leaf = np.array([0.5, 0.5])
        center = np.array([0.3, 0.7])
        graph = make_graph(data_pots=[leaf], data_edge=edge, center=center)
        got = clamped_leaf_marginals(graph, 0)[0]
        want = brute_clamped_leaf_marginal(center, leaf, edge, 0)
        assert np.allclose(got, [0.25, 0.75])
        assert np.allclose(got, want, atol=1e-12)

    def test_one_hot_leaf_dominates_edge_row(self):
        eps = 1e-6
        graph = make_graph(
            data_pots=[[eps, 1.0 - eps, eps]],
            data_edge=np.full((3, 3), 1.0) + np.eye(3) * 5.0,
            n=3,
        )
        for j in range(3):
            marg = clamped_leaf_marginals(graph, j)[0]
            assert marg[1] >= 1.0 - 1e-4

    def test_out_of_range_class_rejected(self):
        graph = make_graph(data_pots=[[0.5, 0.5]])
        with pytest.raises(ValueError):
            clamped_leaf_marginals(graph, 2)


class TestSumProduct:
    def test_single_node(self):
        marginals, beliefs = sum_product([np.array([2.0, 6.0])], [])
        assert np.allclose(marginals[0], [0.25, 0.75])
        assert beliefs == []

    def test_uniform_potentials_give_uniform_marginals(self):
        pots = [np.ones(3) for _ in range(4)]
        edges = [(0, 1, np.ones((3, 3))), (1, 2, np.ones((3, 3))), (1, 3, np.ones((3, 3)))]
        marginals, _ = sum_product(pots, edges)
        for m in marginals:
            assert np.allclose(m, 1.0 / 3)

    def test_random_five_node_tree_matches_enumeration(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            pots = [rng.uniform(0.1, 1.0, size=3) for _ in range(5)]
            edges = []
            for v in range(1, 5):
                u = int(rng.integers(0, v))
                edges.append((u, v, rng.uniform(0.1, 1.0, size=(3, 3))))
            marginals, beliefs = sum_product(pots, edges)
            want_m = brute_marginals(pots, edges)
            want_b = brute_edge_beliefs(pots, edges)
            for got, want in zip(marginals, want_m):
                assert np.abs(got - want).max() < 1e-10
            for got, want in zip(beliefs, want_b):
                assert np.abs(got - want).max() < 1e-10

    def test_mixed_cardinality_tree(self):
        rng = np.random.default_rng(9)
        pots, edges = random_tree(rng, max_nodes=6, max_card=5)
        marginals, beliefs = sum_product(pots, edges)
        for got, want in zip(marginals, brute_marginals(pots, edges)):
            assert np.abs(got - want).max() < 1e-10
        for got, want in zip(beliefs, brute_edge_beliefs(pots, edges)):
            assert np.abs(got - want).max() < 1e-10

    def test_cycle_rejected(self):
        pots = [np.ones(2) for _ in range(3)]
        psi = np.ones((2, 2))
        with pytest.raises(ValueError, match="cycle"):
            sum_product(pots, [(0, 1, psi), (1, 2, psi), (2, 0, psi)])

    def test_disconnected_rejected(self):
        pots = [np.ones(2) for _ in range(3)]
        with pytest.raises(ValueError, match="disconnected"):
            sum_product(pots, [(0, 1, np.ones((2, 2)))])

    def test_pairwise_beliefs_row_normalized_equal_clamped_marginals_on_stars(self):
        rng = np.random.default_rng(77)
        n, m = 4, 3
        graph = make_graph(
            center=rng.uniform(0.1, 1, size=n),
            data_pots=rng.uniform(0.1, 1, size=(3, n)),
            attr_pots=rng.uniform(0.1, 1, size=(2, m)),
            data_edge=rng.uniform(0.1, 1, size=(n, n)),
            attr_edge=rng.uniform(0.1, 1, size=(n, m)),
            n=n,
        )
        pots, edges = star_as_tree(graph)
        _, beliefs = sum_product(pots, edges)
        for j in range(n):
            marginals = clamped_leaf_marginals(graph, j)
            for belief, marg in zip(beliefs, marginals):
                row = belief[j] / belief[j].sum()
                assert np.abs(row - marg).max() < 1e-10


class TestPosteriorConditionals:
    def test_uniform_leaves_recover_prior(self):
        ds = linked_dataset(labels=(0, 1, 2, 0), links=((0, 1), (0, 2), (0, 3), (1, 2)))
        rel = build_relationship(ds, dict(zip(ds.ids.tolist(), ds.labels.tolist())))
        model = MlrModel(np.zeros((3, 1)), np.zeros(3), MlrConfig(n_classes=3))
        graph = build_instance_graph(0, ds, model, rel)
        post = posterior_conditionals(graph)
        prior = prior_conditionals(rel)
        assert np.abs(post.data_rows - prior.data_rows).max() < 1e-9

    def test_single_leaf_equal_to_prior_row_squares_it(self):
        edge = np.array([[3.0, 1.0], [1.0, 1.0]])
        prior_row0 = edge[0] / edge[0].sum()
        graph = make_graph(data_pots=[prior_row0], data_edge=edge)
        post = posterior_conditionals(graph)
        want = prior_row0**2 / (prior_row0**2).sum()
        assert np.allclose(post.data_rows[0], want, atol=1e-12)
        # cross-check against the 2-node enumeration
        brute = brute_clamped_leaf_marginal(np.array([0.5, 0.5]), prior_row0, edge, 0)
        assert np.allclose(post.data_rows[0], brute, atol=1e-12)

    def test_attribute_only_graph_has_no_data_rows(self):
        attr_edge = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        graph = make_graph(attr_pots=[[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]], attr_edge=attr_edge)
        post = posterior_conditionals(graph)
        assert post.data_rows is None
        assert post.attr_rows.shape == (2, 3)
        assert np.allclose(post.attr_rows.sum(axis=1), 1.0, atol=1e-12)

    def test_leaf_order_irrelevant(self):
        rng = np.random.default_rng(3)
        pots = rng.uniform(0.1, 1, size=(4, 3))
        edge = rng.uniform(0.1, 1, size=(3, 3))
        a = posterior_conditionals(make_graph(data_pots=pots, data_edge=edge, n=3))
        b = posterior_conditionals(make_graph(data_pots=pots[::-1], data_edge=edge, n=3))
        assert np.allclose(a.data_rows, b.data_rows, atol=1e-12)

    def test_rows_are_strictly_positive_distributions(self):
        rng = np.random.default_rng(8)
        graph = make_graph(
            data_pots=rng.uniform(0.01, 1, size=(5, 4)),
            data_edge=rng.uniform(0.01, 1, size=(4, 4)),
            n=4,
        )
        post = posterior_conditionals(graph)
        assert (post.data_rows > 0).all()
        assert np.allclose(post.data_rows.sum(axis=1), 1.0, atol=1e-9)



class TestBatchHalves:
    """``batch_posterior_rows`` is ``star_posterior_rows`` of
    ``leaf_marginals``; star scoring computes the first half once per
    distinct neighbour and gathers it for every star."""

    def setup(self, seed, n=3, c=4, leaves=9):
        rng = np.random.default_rng(seed)
        # exact zeros in the potentials, as a saturated classifier gives
        pots = rng.uniform(0.0, 1.0, (leaves, c)) * (rng.random((leaves, c)) < 0.8)
        pots[:, 0] += 0.01
        return rng, rng.uniform(0.01, 1.0, (n, c)), pots

    @pytest.mark.parametrize("seed", range(5))
    def test_leaf_marginals_depend_on_the_leaf_alone(self, seed):
        rng, edge, pots = self.setup(seed)
        rows = leaf_marginals(edge, pots)
        assert rows.shape == (len(pots), *edge.shape)
        order = rng.permutation(len(pots))
        assert np.array_equal(leaf_marginals(edge, pots[order]), rows[order])
        for v in range(len(pots)):
            assert np.array_equal(leaf_marginals(edge, pots[v : v + 1])[0], rows[v])

    @pytest.mark.parametrize("seed", range(5))
    def test_gathered_table_gives_the_batch_rows(self, seed):
        # stars that repeat leaves, share them, or have none
        rng, edge, pots = self.setup(seed)
        degree = rng.integers(0, 4, 6)
        indptr = np.concatenate([[0], np.cumsum(degree)])
        leaf = rng.integers(0, len(pots), indptr[-1])
        want = batch_posterior_rows(edge, pots[leaf], indptr)
        got = star_posterior_rows(leaf_marginals(edge, pots)[leaf], indptr)
        assert np.array_equal(got, want)
        assert not got[degree == 0].any()
        assert np.allclose(got[degree > 0].sum(axis=2), 1.0, atol=1e-12)

    def test_no_leaves(self):
        edge = np.ones((2, 3))
        rows = star_posterior_rows(leaf_marginals(edge, np.empty((0, 3))), np.zeros(3, dtype=int))
        assert rows.shape == (2, 2, 3) and not rows.any()
