"""Spans and counts at the public boundaries of the ctxnoise modules.

The program is not edited: a boundary is timed by replacing the function in
the namespaces that call it.  ``harness`` imports its collaborators by name,
so patching the defining module alone would miss those calls; every
boundary is therefore patched where ``cli``, ``harness``, ``detector`` and
``baselines`` look it up, and ``predict_proba`` in every module, so that it
is counted at all of its call sites.

Each span adds its wall time to the boundary's busy time (inclusive) and
its busy time minus its child spans to the self time.  The wrappers' own
bookkeeping and counters are timed as a child of the calling span, under
``trace.wrappers``, so no program layer's self time includes them.
Everything runs in one thread, so there is no waiting to record.  Spans
are aggregated in memory per name and per (parent, child) edge.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import time
from dataclasses import dataclass, field

import numpy as np

CALLER_MODULES = ("cli", "harness", "detector", "baselines")
ALL_MODULES = (
    "cli", "harness", "dataset", "classifiers", "relationship",
    "inference", "detector", "baselines", "noise", "metrics",
)
TRACER_SPAN = "trace.wrappers"  # the wrappers' bookkeeping and counters


@dataclass(frozen=True)
class Boundary:
    module: str          # defining module
    function: str
    span: str            # "<layer>.<name>"; several functions may share one
    required: bool = True
    everywhere: bool = False  # patch in every module, not only the callers


# Optional boundaries may disappear when the code behind them is refactored
# away; they are then reported as absent.  A missing required boundary is an
# error, since the per-layer metrics built on it would silently read zero.
BOUNDARIES = (
    Boundary("cli", "main", "cli.main"),
    Boundary("harness", "load_config", "harness.load_config", required=False),
    Boundary("harness", "run_detection_suite", "harness.run_detection_suite"),
    Boundary("harness", "run_active_learning", "harness.run_active_learning"),
    Boundary("harness", "select_informative", "harness.select_informative"),
    Boundary("harness", "split_train_test", "harness.split_train_test", required=False),
    Boundary("harness", "write_results_csv", "harness.write_results", required=False),
    Boundary("harness", "write_summary_json", "harness.write_results", required=False),
    Boundary("dataset", "generate_synthetic", "dataset.generate_synthetic"),
    Boundary("dataset", "load_cora", "dataset.load_cora"),
    Boundary("dataset", "split_batches", "dataset.split_batches", required=False),
    Boundary("classifiers", "train_mlr", "classifiers.train_mlr"),
    Boundary("classifiers", "train_aux", "classifiers.train_aux"),
    Boundary("classifiers", "predict_proba", "classifiers.predict_proba", everywhere=True),
    Boundary("classifiers", "aux_predictions", "classifiers.aux_predictions"),
    Boundary("relationship", "build_relationship", "relationship.build"),
    Boundary("relationship", "update_relationship", "relationship.update"),
    Boundary("relationship", "prior_conditionals", "relationship.prior_conditionals", required=False),
    Boundary("inference", "build_instance_graph", "inference.build_instance_graph", required=False),
    Boundary("inference", "posterior_conditionals", "inference.posterior_conditionals", required=False),
    Boundary("detector", "cnld_detect", "detector.score"),
    Boundary("detector", "detect_topk", "detector.score"),
    Boundary("detector", "dissimilarity", "detector.dissimilarity", required=False),
    Boundary("baselines", "probabilistic_detect", "baselines.probabilistic"),
    Boundary("baselines", "consensus_detect", "baselines.voting"),
    Boundary("baselines", "majority_detect", "baselines.voting"),
    Boundary("noise", "inject_ncar", "noise.inject", required=False),
    Boundary("noise", "inject_nar", "noise.inject", required=False),
    Boundary("noise", "estimate_transition", "noise.estimate_transition", required=False),
    Boundary("metrics", "accuracy", "metrics.accuracy"),
    Boundary("metrics", "detection_metrics", "metrics.detection_metrics", required=False),
    Boundary("metrics", "ranking_auc", "metrics.ranking_auc", required=False),
)


class BoundaryMissing(RuntimeError):
    """A required boundary no longer exists where the benchmark wraps it."""


@dataclass
class SpanStat:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    counts: dict = field(default_factory=dict)  # extra counters, e.g. rows

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


class Patches:
    """Attribute replacements on modules, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, module, name: str, value) -> None:
        self._undo.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def restore(self) -> None:
        while self._undo:
            module, name, old = self._undo.pop()
            setattr(module, name, old)


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        if a is not None:
            h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


def _rows(features) -> int:
    return 1 if np.ndim(features) == 1 else len(features)


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Aggregated spans plus the redundancy counters the benchmark reports."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStat] = {}
        self.edges: dict[tuple[str, str], float] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span name, child time]
        self._stars: set = set()
        self._aux_inputs: set = set()
        self._runs: set = set()
        self._model_digests: dict = {}
        self._alive: dict = {}  # objects whose id() is a key above; kept so no id is reused

    # -- spans ---------------------------------------------------------------

    def wrap(self, fn, span: str, count=None):
        stats, edges, stack = self.stats, self.edges, self._stack
        own = stats.setdefault(TRACER_SPAN, SpanStat())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [span, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                st = stats.setdefault(span, SpanStat())
                st.calls += 1
                st.busy += elapsed
                st.self_time += elapsed - frame[1]
                key = (parent[0] if parent else "", span)
                edges[key] = edges.get(key, 0.0) + elapsed
            if count is not None:
                count(st, args, kwargs, result)
            # the wrapper's own work is a child of the parent span too, so
            # that it lands in no program layer's self time
            extra = time.perf_counter() - start - elapsed
            own.busy += extra
            own.self_time += extra
            if parent is not None:
                parent[1] += extra
            return result

        return traced

    def install(self, package, patches: Patches) -> None:
        """Wrap every boundary; raises BoundaryMissing for a required one."""
        modules = {name: importlib.import_module(f"{package.__name__}.{name}") for name in ALL_MODULES}
        for b in BOUNDARIES:
            original = getattr(modules[b.module], b.function, None)
            sites = ALL_MODULES if b.everywhere else CALLER_MODULES
            bound = [m for m in sites if original is not None and getattr(modules[m], b.function, None) is original]
            if not bound:
                if b.required:
                    raise BoundaryMissing(
                        f"{b.module}.{b.function} is not bound in any of {', '.join(sites)}; "
                        f"span {b.span} cannot be measured"
                    )
                self.absent.append(f"{b.module}.{b.function}")
                continue
            wrapped = self.wrap(original, b.span, getattr(self, f"_count_{b.function}", None))
            for m in bound:
                patches.set(modules[m], b.function, wrapped)

    # -- counters, run after the call returns, under TRACER_SPAN --------------

    def _model_key(self, classifier, relationship) -> bytes:
        key = (id(classifier), id(relationship))
        if key not in self._model_digests:
            self._alive[id(classifier)], self._alive[id(relationship)] = classifier, relationship
            self._model_digests[key] = _digest(
                classifier.weights, classifier.bias, relationship.data_counts,
                relationship.attr_counts, np.float64(relationship.epsilon),
            )
        return self._model_digests[key]

    def _count_build_instance_graph(self, st, args, kwargs, result) -> None:
        # a star depends on the instance and the two models, not on its label
        instance = _arg(args, kwargs, 0, "instance")
        model = self._model_key(_arg(args, kwargs, 2, "classifier"), _arg(args, kwargs, 3, "relationship"))
        st.add("stars", 1)
        self._stars.add((model, instance.id))

    def _count_predict_proba(self, st, args, kwargs, result) -> None:
        st.add("rows", _rows(_arg(args, kwargs, 1, "features")))

    def _count_aux_predictions(self, st, args, kwargs, result) -> None:
        ensemble, features = _arg(args, kwargs, 0, "ensemble"), _arg(args, kwargs, 1, "features")
        st.add("queries", _rows(features))
        self._alive[id(ensemble)] = ensemble
        self._aux_inputs.add((id(ensemble), _digest(np.asarray(features, dtype=float))))

    def _count_train_mlr(self, st, args, kwargs, result) -> None:
        features = _arg(args, kwargs, 1, "features")
        config = _arg(args, kwargs, 3, "config") or _arg(args, kwargs, 0, "model").config
        st.add("sample_epochs", _rows(features) * config.epochs)

    def _count_cnld_detect(self, st, args, kwargs, result) -> None:
        st.add("labels", len(_arg(args, kwargs, 0, "queried_ids")))

    _count_detect_topk = _count_cnld_detect

    def _count_update_relationship(self, st, args, kwargs, result) -> None:
        st.add("labels", len(_arg(args, kwargs, 2, "new_labels")))

    def _count_load_cora(self, st, args, kwargs, result) -> None:
        st.add("cells", len(result) * result.n_features)

    def _count_run_active_learning(self, st, args, kwargs, result) -> None:
        config, seed = _arg(args, kwargs, 0, "config"), _arg(args, kwargs, 1, "seed")
        seed = config.seeds[0] if seed is None else seed
        # beta only changes the outcome when the context filter runs
        beta = config.beta if config.mode == "cnld" else None
        st.add("runs", 1)
        self._runs.add((config.mode, config.omega, beta, seed))

    def _count_run_detection_suite(self, st, args, kwargs, result) -> None:
        config = _arg(args, kwargs, 0, "config")
        st.add("runs", 1)
        self._runs.add(("detect", tuple(config.omegas), tuple(config.seeds)))

    # -- report --------------------------------------------------------------

    def stat(self, span: str) -> SpanStat:
        return self.stats.get(span, SpanStat())

    def counts(self) -> dict[str, int]:
        """Work counts; they repeat exactly from one experiment to the next."""
        stars = self.stat("inference.build_instance_graph").counts.get("stars", 0)
        runs = sum(
            self.stat(s).counts.get("runs", 0)
            for s in ("harness.run_detection_suite", "harness.run_active_learning")
        )
        return {
            "detector.score.labels": self.stat("detector.score").counts.get("labels", 0),
            "inference.stars": stars,
            "inference.distinct_stars": len(self._stars),
            "classifiers.aux_predictions.calls": self.stat("classifiers.aux_predictions").calls,
            "classifiers.aux_predictions.distinct_inputs": len(self._aux_inputs),
            "classifiers.train_mlr.calls": self.stat("classifiers.train_mlr").calls,
            "classifiers.train_mlr.sample_epochs": self.stat("classifiers.train_mlr").counts.get("sample_epochs", 0),
            "classifiers.predict_proba.rows": self.stat("classifiers.predict_proba").counts.get("rows", 0),
            "dataset.generate_synthetic.calls": self.stat("dataset.generate_synthetic").calls,
            "dataset.load_cora.calls": self.stat("dataset.load_cora").calls,
            "relationship.update.labels": self.stat("relationship.update").counts.get("labels", 0),
            "harness.runs": runs,
            "harness.distinct_runs": len(self._runs),
        }

    def timings(self) -> dict[str, float]:
        """Busy and self seconds of the spans the benchmark reports."""
        out = {}
        for span in (
            "detector.score", "classifiers.aux_predictions", "classifiers.train_mlr",
            "classifiers.train_aux", "classifiers.predict_proba", "dataset.generate_synthetic",
            "dataset.load_cora", "relationship.update", "relationship.build",
            "harness.select_informative", "metrics.accuracy", "baselines.probabilistic",
            "baselines.voting",
        ):
            out[f"{span}.busy_s"] = self.stat(span).busy
        for span in (
            "detector.score", "inference.build_instance_graph",
            "inference.posterior_conditionals", "detector.dissimilarity",
        ):
            out[f"{span}.self_s"] = self.stat(span).self_time
        out["trace.wrapper_s"] = self.stat(TRACER_SPAN).busy
        for layer in ALL_MODULES:
            out[f"{layer}.self_s"] = sum(st.self_time for name, st in self.stats.items() if name.split(".")[0] == layer)
        return out

    def tree(self) -> list[dict]:
        """Busy seconds per (parent, child) span edge, largest first."""
        return [
            {"parent": p, "span": s, "busy_s": t}
            for (p, s), t in sorted(self.edges.items(), key=lambda kv: -kv[1])
        ]
