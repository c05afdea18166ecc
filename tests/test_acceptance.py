"""Acceptance suite.

Each test exercises one release criterion at its stated tolerance and prints
a single pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they happen).
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from ctxnoise import (
    Conditionals,
    ExperimentConfig,
    MlrConfig,
    MlrModel,
    SyntheticConfig,
    batch_weights,
    dissimilarity,
    estimate_transition,
    inject_ncar,
    inject_nar,
    detection_metrics,
    load_cora,
    run_active_learning,
    run_detection_suite,
    run_pseudo,
    summarize_detection,
    train_mlr,
)
from ctxnoise.cli import main
from ctxnoise.inference import batch_posterior_rows

from oracles import (
    InstanceGraph,
    PosteriorConditionals,
    brute_edge_beliefs,
    brute_marginals,
    clamped_leaf_marginals,
    mlr_gradient,
    mlr_loss,
    random_tree,
    star_as_tree,
    sum_product,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    print(f"[criterion {number:2d}] PASS  {description}")


def test_c01_inference_matches_exhaustive_enumeration():
    with criterion(1, "sum-product equals enumeration; clamping equals row-normalized beliefs"):
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(200):
            pots, edges = random_tree(rng, max_nodes=6, max_card=5)
            marginals, beliefs = sum_product(pots, edges)
            for got, want in zip(marginals, brute_marginals(pots, edges)):
                assert np.abs(got - want).max() < 1e-10
            for got, want in zip(beliefs, brute_edge_beliefs(pots, edges)):
                assert np.abs(got - want).max() < 1e-10

        for _ in range(50):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 6))
            e1, e2 = int(rng.integers(1, 4)), int(rng.integers(0, 4))
            graph = InstanceGraph(
                instance_id=0,
                center_potential=rng.uniform(0.1, 1.0, size=n),
                data_potentials=rng.uniform(0.1, 1.0, size=(e1, n)),
                attr_potentials=rng.uniform(0.1, 1.0, size=(e2, m)),
                data_edge_potential=rng.uniform(0.1, 1.0, size=(n, n)),
                attr_edge_potential=rng.uniform(0.1, 1.0, size=(n, m)),
            )
            pots, edges = star_as_tree(graph)
            _, beliefs = sum_product(pots, edges)
            for j in range(n):
                for belief, marginal in zip(beliefs, clamped_leaf_marginals(graph, j)):
                    row = belief[j] / belief[j].sum()
                    assert np.abs(row - marginal).max() < 1e-10

        # the detector's kernel on a block of random stars: row j of each star
        # is its edge beliefs' row j, row-normalized, averaged over its leaves
        for _ in range(20):
            n, c = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            degrees = rng.integers(0, 4, size=int(rng.integers(1, 5)))
            indptr = np.concatenate([[0], np.cumsum(degrees)])
            edge = rng.uniform(0.1, 1.0, size=(n, c))
            leaves = rng.uniform(0.1, 1.0, size=(indptr[-1], c))
            got = batch_posterior_rows(edge, leaves, indptr)
            for b, degree in enumerate(degrees):
                if degree == 0:
                    assert not got[b].any()
                    continue
                pots = [rng.uniform(0.1, 1.0, size=n), *leaves[indptr[b] : indptr[b + 1]]]
                beliefs = brute_edge_beliefs(pots, [(0, k, edge) for k in range(1, degree + 1)])
                want = np.mean([B / B.sum(axis=1, keepdims=True) for B in beliefs], axis=0)
                want /= want.sum(axis=1, keepdims=True)
                assert np.abs(got[b] - want).max() < 1e-10
        assert time.perf_counter() - started < 10.0


def test_c02_dissimilarity_anchors():
    with criterion(2, "dissimilarity zero anchors and the hand-derived 0.2554 value"):
        rows = np.array([[0.7, 0.2, 0.1], [0.25, 0.5, 0.25], [0.1, 0.3, 0.6]])
        prior = Conditionals(data_rows=rows, attr_rows=None)
        same = PosteriorConditionals(data_rows=rows.copy(), attr_rows=None)
        for k in range(3):
            assert dissimilarity(prior, same, k) <= 1e-12

        drifted = rows.copy()
        drifted[1] = [0.4, 0.3, 0.3]
        drifted[2] = [0.3, 0.3, 0.4]
        posterior = PosteriorConditionals(data_rows=drifted, attr_rows=None)
        assert dissimilarity(prior, posterior, 0) <= 1e-12  # row 0 undrifted: minimal KL

        prior2 = Conditionals(data_rows=np.array([[0.9, 0.1], [0.1, 0.9]]), attr_rows=None)
        post2 = PosteriorConditionals(data_rows=np.array([[0.5, 0.5], [0.1, 0.9]]), attr_rows=None)
        value = dissimilarity(prior2, post2, 0)
        assert abs(value - 0.2554) < 1e-4


def test_c03_weight_anchors():
    with criterion(3, "weights [2,1,0] -> [0,0.5,1] exactly; verdicts scale-invariant"):
        assert np.array_equal(batch_weights([2.0, 1.0, 0.0]), [0.0, 0.5, 1.0])
        rng = np.random.default_rng(7)
        scores = rng.uniform(0.0, 5.0, size=40)
        for beta in (0.0, 0.5, 0.85, 0.99):
            base_verdicts = batch_weights(scores) > beta
            for scale in (1e-3, 0.5, 7.0, 1e4):
                scaled_verdicts = batch_weights(scores * scale) > beta
                assert np.array_equal(base_verdicts, scaled_verdicts)


def test_c04_gradient_check():
    with criterion(4, "analytic gradient within 1e-6 of central finite differences"):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, size=8)
        W = rng.normal(size=(3, 4)) * 0.3
        b = rng.normal(size=3) * 0.3
        l2 = 1e-3
        dW, db = mlr_gradient(W, b, X, y, l2)
        h = 1e-5
        worst = 0.0
        for i in range(3):
            for j in range(4):
                up, down = W.copy(), W.copy()
                up[i, j] += h
                down[i, j] -= h
                fd = (mlr_loss(up, b, X, y, l2) - mlr_loss(down, b, X, y, l2)) / (2 * h)
                worst = max(worst, abs(fd - dW[i, j]))
        for i in range(3):
            up, down = b.copy(), b.copy()
            up[i] += h
            down[i] -= h
            fd = (mlr_loss(W, up, X, y, l2) - mlr_loss(W, down, X, y, l2)) / (2 * h)
            worst = max(worst, abs(fd - db[i]))
        assert worst < 1e-6

        # train_mlr descends that gradient: one full-batch step is W - lr * grad
        config = MlrConfig(n_classes=3, learning_rate=0.3, l2=l2, epochs=1, batch_size=None)
        step = train_mlr(MlrModel(W, b, config), X, y, config)
        assert np.abs(step.weights - (W - 0.3 * dW)).max() < 1e-12
        assert np.abs(step.bias - (b - 0.3 * db)).max() < 1e-12


def test_c05_noise_models():
    with criterion(5, "exact NCAR counts, NAR convergence, exact k-means transition"):
        y = np.repeat(np.arange(5), 12)
        plan = inject_ncar(y, 5, 0.25, seed=3)
        for c in range(5):
            assert plan.flipped[y == c].sum() == 3  # round(0.25 * 12)
        assert (plan.assigned[plan.flipped] != y[plan.flipped]).all()

        probs = np.array([[0.7, 0.2, 0.1], [0.05, 0.9, 0.05], [0.15, 0.15, 0.7]])
        big = np.repeat(np.arange(3), 10_000)
        nar = inject_nar(big, probs, seed=4)
        emp = np.stack([np.bincount(nar.assigned[big == c], minlength=3) / 10_000 for c in range(3)])
        assert np.abs(emp - probs).max() < 0.02

        X = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0], [1.0], [0.0]])
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        trans = estimate_transition(X, labels, 2)
        assert np.array_equal(trans.probs, np.array([[0.75, 0.25], [0.25, 0.75]]))


def test_c06_metric_identities():
    with criterion(6, "worked detection-metric example exact; degenerate ratios absent"):
        flipped = np.arange(10) < 4
        m = detection_metrics(np.isin(np.arange(10), [0, 1, 2, 5]), flipped)
        assert m.er1 == 1 / 6
        assert m.er2 == 1 / 4
        assert m.nep == 3 / 4

        nothing = detection_metrics(np.zeros(10, dtype=bool), flipped)
        assert nothing.nep is None
        all_clean = detection_metrics(np.arange(5) == 0, np.zeros(5, dtype=bool))
        assert all_clean.er2 is None
        all_noisy = detection_metrics(np.zeros(5, dtype=bool), np.ones(5, dtype=bool))
        assert all_noisy.er1 is None


def detection_config():
    return ExperimentConfig(
        dataset_kind="synthetic",
        synthetic=SyntheticConfig(
            n_classes=7,
            n_features=16,
            instances_per_class=450,
            concentration=0.9,
            separation=0.5,
            noise_scale=1.0,
            links_per_instance=6,
            seed=100,
        ),
        n_batches=5,
        noise="ncar",
        omegas=[0.1, 0.3, 0.5],
        seeds=[0, 1, 2, 3, 4],
    )


def test_c07_detection_ordering():
    with criterion(7, "mean NEP ordering cnld >= prob >= consensus >= majority (0.05 slack), AUC > 0.85"):
        started = time.perf_counter()
        config = detection_config()
        assert config.synthetic.n_classes == 7 and config.synthetic.m_attribute_classes == 0
        total = config.synthetic.n_classes * config.synthetic.instances_per_class
        assert round((1 - config.test_fraction) * total) >= 2000
        summary = summarize_detection(run_detection_suite(config))
        for omega in (0.1, 0.3, 0.5):
            nep = {m: summary[f"{m}@omega={omega}"]["nep"] for m in ("cnld", "probabilistic", "consensus", "majority")}
            assert nep["cnld"] >= nep["probabilistic"] - 0.05
            assert nep["probabilistic"] >= nep["consensus"] - 0.05
            assert nep["consensus"] >= nep["majority"] - 0.05
            assert summary[f"cnld@omega={omega}"]["auc"] > 0.85
        assert time.perf_counter() - started < 300.0


def test_c08_robustness_ordering():
    with criterion(8, "mean final accuracy cl >= cnld >= sn and cnld - sn >= 2 points"):
        started = time.perf_counter()
        base = dict(
            dataset_kind="synthetic",
            synthetic=SyntheticConfig(
                n_classes=7,
                n_features=16,
                instances_per_class=150,
                concentration=0.9,
                separation=1.2,
                noise_scale=1.0,
                links_per_instance=4,
                seed=100,
            ),
            n_batches=10,
            query_fraction=0.3,
            omega=0.4,
            beta=0.85,
            seeds=[0],
        )
        means = {}
        for mode in ("sn", "cnld", "cl"):
            config = ExperimentConfig(mode=mode, **base)
            logs = [run_active_learning(config, seed) for seed in range(5)]
            assert all(len(log.records) == 9 for log in logs)
            means[mode] = float(np.mean([log.final_accuracy for log in logs]))
        assert means["cl"] >= means["cnld"] >= means["sn"]
        assert means["cnld"] - means["sn"] >= 0.02
        assert time.perf_counter() - started < 600.0


def test_c09_pseudo_labeling_pattern():
    with criterion(9, "filtered pseudo labels at least match unfiltered in mean final accuracy"):
        base = dict(
            dataset_kind="synthetic",
            synthetic=SyntheticConfig(
                n_classes=7,
                n_features=16,
                instances_per_class=300,
                concentration=0.9,
                separation=0.45,
                noise_scale=1.0,
                links_per_instance=8,
                seed=100,
            ),
            n_batches=10,
            query_fraction=0.2,
            beta=0.9,
            seeds=[0],
        )
        means = {}
        for mode in ("manual_pseudo", "manual_pseudo_cnld"):
            config = ExperimentConfig(mode=mode, **base)
            means[mode] = float(np.mean([run_pseudo(config, seed).final_accuracy for seed in range(5)]))
        # the plain-pseudo arm sits near 60% accuracy: the intended noisy regime
        assert 0.45 <= means["manual_pseudo"] <= 0.75
        assert means["manual_pseudo_cnld"] >= means["manual_pseudo"]


CORA_DIR = os.environ.get("CTXNOISE_CORA_DIR", "")
_cora_present = CORA_DIR and (Path(CORA_DIR) / "cora.content").exists() and (Path(CORA_DIR) / "cora.cites").exists()


@pytest.mark.skipif(not _cora_present, reason="CORA files absent (set CTXNOISE_CORA_DIR)")
def test_c10_cora_informational():
    with criterion(10, "CORA 10-fold NEP at omega 0.30 (informational, not gating)"):
        dataset = load_cora(Path(CORA_DIR) / "cora.content", Path(CORA_DIR) / "cora.cites")
        assert len(dataset) == 2708
        assert dataset.n_features == 1433
        assert dataset.n_classes == 7
        neps = []
        for fold in range(10):
            config = ExperimentConfig(
                dataset_kind="cora",
                cora_content=str(Path(CORA_DIR) / "cora.content"),
                cora_cites=str(Path(CORA_DIR) / "cora.cites"),
                cora_fold=fold,
                n_batches=10,
                noise="ncar",
                omegas=[0.3],
                seeds=[0],
            )
            rows = run_detection_suite(config)
            neps.extend(r.metrics.nep for r in rows if r.method == "cnld")
        mean_nep = float(np.mean(neps))
        print(f"CORA NEP at omega 0.30: {mean_nep:.3f} (reference band 0.73 +/- 0.10)")


def test_c11_cli_determinism(tmp_path):
    with criterion(11, "identical config+seed gives byte-identical CLI outputs"):
        config = tmp_path / "tiny.cfg"
        config.write_text(
            "dataset = synthetic\n"
            "synthetic.n_classes = 3\n"
            "synthetic.n_features = 6\n"
            "synthetic.instances_per_class = 70\n"
            "synthetic.concentration = 0.9\n"
            "synthetic.separation = 2.0\n"
            "synthetic.seed = 5\n"
            "n_batches = 4\n"
            "omega = 0.4\n"
            "omegas = 0.2, 0.4\n"
            "betas = 0.8, 0.9\n"
            "seeds = 0\n"
            "mode = cnld\n"
            "mlr_epochs = 60\n"
        )
        snapshots = []
        for run in range(2):
            for sub, out in (("detect", "d"), ("active-learn", "a"), ("gen-data", "g")):
                out_dir = tmp_path / f"{out}{run}"
                assert main([sub, "--config", str(config), "--out", str(out_dir)]) == 0
            snapshots.append(
                {
                    p.relative_to(tmp_path / f"{o}{run}").name: p.read_bytes()
                    for o in ("d", "a", "g")
                    for p in (tmp_path / f"{o}{run}").iterdir()
                }
            )
        assert snapshots[0] == snapshots[1]
