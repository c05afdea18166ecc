"""Benchmark workloads: experiment configs and generated inputs.

Each workload is one ``ctxnoise`` subcommand on one config.  The benchmark
seed ``n`` becomes ``synthetic.seed`` and the run seeds ``n, n+1, ...``; the
program receives only the config file and, for ``detect-cora``, the
CORA-format files written here with ``save_cora``.  The configs are kept in
this file rather than read from ``configs/`` so that editing a shipped
config cannot change what the benchmark measures.

``full`` is the measured scale; ``smoke`` is a tiny scale that runs every
workload in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0

DETECT_LINKED = """\
dataset = synthetic
synthetic.n_classes = 7
synthetic.n_features = 16
synthetic.instances_per_class = {per_class}
synthetic.m_attribute_classes = 0
synthetic.concentration = 0.9
synthetic.separation = 0.5
synthetic.noise_scale = 1.0
synthetic.links_per_instance = 6
synthetic.seed = {seed}
n_batches = 5
noise = ncar
omegas = {omegas}
seeds = {seeds}
mlr_epochs = {epochs}
"""

DETECT_CORA = """\
dataset = cora
cora_content = {content}
cora_cites = {cites}
n_batches = 5
noise = ncar
omegas = 0.1, 0.2, 0.3, 0.4, 0.5
seeds = {seeds}
mlr_epochs = {epochs}
"""

ACTIVE_40K = """\
dataset = synthetic
synthetic.n_classes = 7
synthetic.n_features = 16
synthetic.instances_per_class = {per_class}
synthetic.m_attribute_classes = 0
synthetic.concentration = 0.9
synthetic.separation = 1.2
synthetic.noise_scale = 1.0
synthetic.links_per_instance = 4
synthetic.seed = {seed}
n_batches = 10
query_fraction = 0.3
selection = entropy
mode = cnld
noise = ncar
omega = 0.4
beta = 0.85
seeds = {seeds}
mlr_epochs = {epochs}
"""

# the shape of configs/synthetic_sweep.cfg
SWEEP_GRID = """\
dataset = synthetic
synthetic.n_classes = 5
synthetic.n_features = 12
synthetic.instances_per_class = {per_class}
synthetic.m_attribute_classes = 0
synthetic.concentration = 0.9
synthetic.separation = 1.6
synthetic.noise_scale = 1.0
synthetic.links_per_instance = 4
synthetic.seed = {seed}
n_batches = 8
query_fraction = 0.3
omegas = 0.2, 0.4
betas = {betas}
seeds = {seeds}
mlr_epochs = {epochs}
"""

# CORA's seven classes with their real sizes (2,708 papers in all)
CORA_CLASSES = (
    ("Case_Based", 298),
    ("Genetic_Algorithms", 418),
    ("Neural_Networks", 818),
    ("Probabilistic_Methods", 426),
    ("Reinforcement_Learning", 217),
    ("Rule_Learning", 180),
    ("Theory", 351),
)
CORA_WORDS_PER_PAPER = 18  # CORA averages about 18 of 1,433 words per paper
CORA_TOPIC_SHARE = 0.25    # share of a paper's words drawn from its class topic
CORA_TOPIC_WORDS = 120
CORA_LINKS_PER_PAPER = 2   # about 5.4k undirected links at full scale
CORA_HOMOPHILY = 0.8       # share of links that stay inside the class


@dataclass(frozen=True)
class Scale:
    template: str
    params: dict
    n_seeds: int


@dataclass(frozen=True)
class Workload:
    name: str
    command: str           # ctxnoise subcommand
    prefix: str            # output files are <prefix>_results.csv and <prefix>_summary.json
    why: str
    scales: dict           # "full" / "smoke" -> Scale
    cora: dict | None = None  # scale -> (class size factor, n_features)

    def config_text(self, seed: int, scale: str, cora_paths: tuple[str, str] | None = None) -> str:
        s = self.scales[scale]
        seeds = ", ".join(str(seed + k) for k in range(s.n_seeds))
        params = dict(s.params, seed=seed, seeds=seeds)
        if cora_paths is not None:
            params["content"], params["cites"] = cora_paths
        return s.template.format(**params)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="detect-linked",
            command="detect",
            prefix="detection",
            why="star scoring of a whole evaluation split at 5 noise levels, plus the kNN-heavy voting baselines",
            scales={
                "full": Scale(DETECT_LINKED, dict(per_class=450, omegas="0.1, 0.2, 0.3, 0.4, 0.5", epochs=200), 5),
                "smoke": Scale(DETECT_LINKED, dict(per_class=30, omegas="0.2, 0.4", epochs=20), 2),
            },
        ),
        Workload(
            name="detect-cora",
            command="detect",
            prefix="detection",
            why="CORA-shaped files: load_cora parsing and high-dimensional training and kNN; little star scoring",
            scales={
                "full": Scale(DETECT_CORA, dict(epochs=200), 1),
                "smoke": Scale(DETECT_CORA, dict(epochs=20), 1),
            },
            cora={"full": (1.0, 1433), "smoke": (0.1, 143)},
        ),
        Workload(
            name="active-40k",
            command="active-learn",
            prefix="learning",
            why="40.6k nodes: small query batches scored against a large graph, both models updated every batch",
            scales={
                "full": Scale(ACTIVE_40K, dict(per_class=5800, epochs=50), 1),
                "smoke": Scale(ACTIVE_40K, dict(per_class=60, epochs=10), 1),
            },
        ),
        Workload(
            name="sweep-grid",
            command="sweep",
            prefix="sweep",
            why="36 short runs on one small dataset: orchestration, repeated generation and train_mlr; scoring minor",
            scales={
                "full": Scale(SWEEP_GRID, dict(per_class=120, betas="0.80, 0.85, 0.90", epochs=120), 3),
                "smoke": Scale(SWEEP_GRID, dict(per_class=20, betas="0.80, 0.90", epochs=10), 2),
            },
        ),
    )
}


def cora_shaped_dataset(ctx, seed: int, size_factor: float, n_features: int):
    """A CORA-shaped Dataset: CORA's class sizes, sparse binary word features
    and homophilous citation links.  ``ctx`` is the imported ctxnoise package."""
    rng = np.random.default_rng(seed)
    sizes = [max(3, round(size * size_factor)) for _, size in CORA_CLASSES]
    n = len(sizes)
    labels = rng.permutation(np.repeat(np.arange(n), sizes))
    total = len(labels)
    ids = np.sort(rng.choice(1_200_000, size=total, replace=False)) + 1

    # word probabilities: a shared Zipf-like background plus a per-class topic
    background = 1.0 / np.arange(1, n_features + 1) ** 0.8
    background = rng.permutation(background / background.sum())
    topics = np.zeros((n, n_features))
    for c in range(n):
        words = rng.choice(n_features, size=min(CORA_TOPIC_WORDS, n_features), replace=False)
        topics[c, words] = rng.dirichlet(np.ones(len(words)))
    word_p = CORA_WORDS_PER_PAPER * (CORA_TOPIC_SHARE * topics + (1.0 - CORA_TOPIC_SHARE) * background)
    features = (rng.random((total, n_features)) < np.minimum(word_p, 1.0)[labels]).astype(float)

    members = [np.flatnonzero(labels == c) for c in range(n)]
    links: list[set[int]] = [set() for _ in range(total)]
    for u in range(total):
        for _ in range(CORA_LINKS_PER_PAPER):
            if rng.random() < CORA_HOMOPHILY:
                pool = members[labels[u]]
            else:
                pool = members[rng.choice([c for c in range(n) if c != labels[u]])]
            v = int(pool[rng.integers(len(pool))])
            if v != u:
                links[u].add(v)
                links[v].add(u)

    instances = [
        ctx.Instance(
            id=int(ids[u]),
            features=features[u],
            true_label=int(labels[u]),
            link_ids=sorted(int(ids[v]) for v in links[u]),
        )
        for u in range(total)
    ]
    return ctx.Dataset(
        instances=instances,
        n_classes=n,
        m_attribute_classes=0,
        class_names=[name for name, _ in CORA_CLASSES],
    )


def prepare(ctx, workload: Workload, seed: int, scale: str, out_dir: Path) -> Path:
    """Write the workload's inputs into ``out_dir``; returns the config path.

    The config is parsed back with the program's own loader so that a bad
    input fails here, at set-up, not inside a timed experiment.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    cora_paths = None
    if workload.cora is not None:
        size_factor, n_features = workload.cora[scale]
        content, cites = out_dir / "cora.content", out_dir / "cora.cites"
        ctx.save_cora(cora_shaped_dataset(ctx, seed, size_factor, n_features), content, cites)
        cora_paths = (str(content.resolve()), str(cites.resolve()))
    config_path = out_dir / f"{workload.name}.cfg"
    config_path.write_text(workload.config_text(seed, scale, cora_paths))
    ctx.load_config(config_path)
    return config_path
