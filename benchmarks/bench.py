"""End-to-end and per-layer benchmark of the ctxnoise CLI.

Run from the root of a checkout:

    python3 benchmarks/bench.py --workload detect-linked --seed 0 --seconds 55 --trace 0
    python3 benchmarks/bench.py --smoke

One run sets the workload up several times in fresh interpreters (the
import plus the input preparation, timed as ``setup_s``), then runs whole
experiments in this process, one after another (a closed loop with one
client), until the next one would end after ``--seconds``.  Each
experiment is one in-process ``ctxnoise`` CLI invocation; its output files
are checked (see outputs.py).  A fixed calibration workload runs around
the set-ups and after every experiment; the time metrics are scaled by it
to the reference machine's speed, so that the shared machine's drift
cancels.  With ``--trace 1`` untraced and traced
experiments alternate: the traced ones give the per-layer metrics, the
difference of the two medians the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller report, with the
environment and the span tree, goes to ``.bench_work/reports/``.
See README.md beside this file for every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import outputs
import workloads
from tracer import BoundaryMissing, Patches, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 120

END_TO_END = {
    "run_s": "s",
    "cpu_s": "s",
    "batch_ms_p50": "ms",
    "batch_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "detector.score.labels": "count",
    "detector.score.busy_s": "s",
    "detector.score.self_s": "s",
    "detector.us_per_label": "us",
    "inference.stars": "count",
    "inference.distinct_stars": "count",
    "inference.distinct_star_frac": "ratio",
    "inference.build_instance_graph.self_s": "s",
    "inference.posterior_conditionals.self_s": "s",
    "detector.dissimilarity.self_s": "s",
    "classifiers.aux_predictions.calls": "count",
    "classifiers.aux_predictions.busy_s": "s",
    "classifiers.aux_predictions.us_per_query": "us",
    "classifiers.aux_predictions.distinct_frac": "ratio",
    "classifiers.train_mlr.calls": "count",
    "classifiers.train_mlr.busy_s": "s",
    "classifiers.train_mlr.sample_epochs": "count",
    "classifiers.train_aux.busy_s": "s",
    "classifiers.predict_proba.rows": "count",
    "classifiers.predict_proba.busy_s": "s",
    "dataset.generate_synthetic.calls": "count",
    "dataset.generate_synthetic.busy_s": "s",
    "dataset.load_cora.busy_s": "s",
    "dataset.load_cora.cells_per_s": "1/s",
    "relationship.update.labels": "count",
    "relationship.update.busy_s": "s",
    "relationship.build.busy_s": "s",
    "harness.select_informative.busy_s": "s",
    "metrics.accuracy.busy_s": "s",
    "harness.runs": "count",
    "harness.distinct_runs": "count",
    "harness.distinct_run_frac": "ratio",
    "baselines.probabilistic.busy_s": "s",
    "baselines.voting.busy_s": "s",
    "cli.self_s": "s",
    "harness.self_s": "s",
    "dataset.self_s": "s",
    "classifiers.self_s": "s",
    "relationship.self_s": "s",
    "inference.self_s": "s",
    "detector.self_s": "s",
    "baselines.self_s": "s",
    "noise.self_s": "s",
    "metrics.self_s": "s",
    "trace.wrapper_s": "s",
    "trace.overhead_s": "s",
}

# Call counts each workload must show ("nonzero", 0, or an exact count at
# full scale).  A traced run reports every contradiction; the smoke run fails
# on one.
PREDICTIONS = {
    "detect-linked": {
        "dataset.load_cora.calls": 0, "dataset.generate_synthetic.calls": "nonzero",
        "classifiers.aux_predictions.calls": "nonzero", "relationship.update.labels": 0,
        "detector.score.labels": "nonzero", "inference.stars": "nonzero",
    },
    "detect-cora": {
        "dataset.load_cora.calls": "nonzero", "dataset.generate_synthetic.calls": 0,
        "classifiers.aux_predictions.calls": "nonzero", "relationship.update.labels": 0,
        "detector.score.labels": "nonzero", "inference.stars": "nonzero",
    },
    "active-40k": {
        "dataset.load_cora.calls": 0, "dataset.generate_synthetic.calls": "nonzero",
        "classifiers.aux_predictions.calls": 0, "relationship.update.labels": "nonzero",
        "detector.score.labels": "nonzero", "inference.stars": "nonzero",
    },
    "sweep-grid": {
        "dataset.load_cora.calls": 0, "dataset.generate_synthetic.calls": "nonzero",
        "classifiers.aux_predictions.calls": 0, "relationship.update.labels": "nonzero",
        "detector.score.labels": "nonzero", "inference.stars": "nonzero",
    },
}
FULL_SCALE_COUNTS = {
    # 5 seeds x 5 omegas x 945 labels; the star ignores the label, so 5 x 945 are distinct
    "detect-linked": {
        "inference.stars": 23625, "inference.distinct_stars": 4725,
        "classifiers.aux_predictions.calls": 50, "classifiers.aux_predictions.distinct_inputs": 5,
    },
    # 2 omegas x 3 betas x 3 seeds, cnld and sn; sn ignores beta, so 18 + 6 are distinct
    "sweep-grid": {
        "harness.runs": 36, "harness.distinct_runs": 24,
        "dataset.generate_synthetic.calls": 36, "classifiers.train_mlr.calls": 288,
    },
}


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# machine speed

# The reference machine's median time for calibrate().  The time metrics are
# scaled to that speed: value x CALIBRATION_REF_S / calibration time.
CALIBRATION_REF_S = 0.35
_CAL_RNG = np.random.default_rng(20201018)
_CAL_STORE = _CAL_RNG.random((2000, 16))
_CAL_WEIGHTS = _CAL_RNG.random((16, 7))
_CAL_EDGES = _CAL_RNG.random((7, 7)) + 0.1
_CAL_LEAVES = _CAL_RNG.random((6, 7))


def calibrate() -> float:
    """Wall time of a fixed piece of work shaped like the program's: a
    Python dict loop, small per-star array operations and softmax
    regression steps, all on small arrays so that it adds nothing to the
    peak memory.  It reads how fast the shared machine runs this process at
    the moment, independently of the program.  (A per-query kNN sort was
    left out: its speed flipped between two levels from one process to the
    next, which the program's speed did not.)"""
    start = time.perf_counter()
    acc: dict[int, float] = {}
    for i in range(520_000):
        acc[i % 97] = acc.get(i % 97, 0.0) + (i % 7) * 0.5
    for i in range(15_000):
        rows = _CAL_EDGES[i % 7] * _CAL_LEAVES
        rows /= rows.sum(1, keepdims=True)
        np.log(rows + 1e-12).sum()
    for _ in range(400):
        z = _CAL_STORE @ _CAL_WEIGHTS
        z -= z.max(1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(1, keepdims=True)
        _CAL_STORE.T @ p
    return time.perf_counter() - start


class Speedometer:
    """Calibrates before and after each timed piece of work.  A piece's
    slowdown is the mean of the two calibration times over
    CALIBRATION_REF_S; its scaled time is its time divided by that."""

    def __init__(self) -> None:
        self.last = calibrate()

    def slowdown(self) -> float:
        cal = calibrate()
        slow, self.last = (self.last + cal) / 2 / CALIBRATION_REF_S, cal
        return slow


# ---------------------------------------------------------------------------
# environment


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def environment(workload: str, seed: int, scale: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "calibration_ref_s": CALIBRATION_REF_S,
    }


# ---------------------------------------------------------------------------
# set-up


def _check_sources() -> None:
    if not (SRC / "ctxnoise" / "__init__.py").is_file():
        raise SetupError(f"no ctxnoise sources under {SRC}; run from the root of a checkout")


def _import_program():
    _check_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    ctx = importlib.import_module("ctxnoise")
    return ctx, importlib.import_module("ctxnoise.cli")


def set_up(workload: workloads.Workload, seed: int, scale: str, run_dir: Path,
           speed: Speedometer) -> tuple[list[tuple[float, float]], Path]:
    """Import and prepare in fresh interpreters, SETUP_REPEATS times; returns
    the (wall time, slowdown) of each and the prepared config."""
    _check_sources()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--prepare", workload.name,
           "--seed", str(seed), "--scale", scale, "--dir", str(run_dir / "input")]
    times = []
    for _ in range(SETUP_REPEATS if scale == "full" else 1):
        start = time.perf_counter()
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append((time.perf_counter() - start, speed.slowdown()))
        if done.returncode != 0:
            raise SetupError(f"set-up of {workload.name} failed:\n{done.stderr.strip()}")
    return times, Path(done.stdout.strip().splitlines()[-1])


def _prepare_main(args: argparse.Namespace) -> int:
    ctx, _ = _import_program()
    path = workloads.prepare(ctx, workloads.WORKLOADS[args.prepare], args.seed, args.scale, Path(args.dir))
    print(path.resolve())
    return 0


# ---------------------------------------------------------------------------
# experiments


@dataclass
class Experiment:
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    slowdown: float = 1.0  # calibration time beside it / CALIBRATION_REF_S
    batches: list[float] = field(default_factory=list)  # seconds per scored batch
    errors: list[str] = field(default_factory=list)
    files: tuple[bytes, bytes] | None = None  # results CSV, summary JSON
    tracer: Tracer | None = None


def _install_probes(cli, harness, patches: Patches, logs: list, cells: list) -> None:
    """Record what the end-to-end metrics need even when untraced: the
    active-learning logs (their per-batch ``elapsed``) and the duration of
    each detection cell, from ``detect_topk`` to the end of ``majority_detect``."""
    for name, module in (("run_active_learning", cli), ("detect_topk", harness), ("majority_detect", harness)):
        if not callable(getattr(module, name, None)):
            raise BoundaryMissing(f"{module.__name__}.{name} is gone; the batch metrics cannot be measured")
    run, topk, majority = cli.run_active_learning, harness.detect_topk, harness.majority_detect
    starts: list[float] = []

    def run_probe(*args, **kwargs):
        log = run(*args, **kwargs)
        logs.append(log)
        return log

    def topk_probe(*args, **kwargs):
        starts.append(time.perf_counter())
        return topk(*args, **kwargs)

    def majority_probe(*args, **kwargs):
        result = majority(*args, **kwargs)
        cells.append(time.perf_counter() - starts.pop())
        return result

    patches.set(cli, "run_active_learning", run_probe)
    patches.set(harness, "detect_topk", topk_probe)
    patches.set(harness, "majority_detect", majority_probe)


def run_experiment(ctx, cli, workload, config_path: Path, out_dir: Path, traced: bool) -> tuple[Experiment, list]:
    exp = Experiment(traced)
    patches = Patches()
    logs: list = []
    cells: list[float] = []
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        if traced:
            exp.tracer = Tracer()
            exp.tracer.install(ctx, patches)
        _install_probes(cli, ctx.harness, patches, logs, cells)
        gc.collect()
        start, cpu_start = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main([workload.command, "--config", str(config_path), "--out", str(out_dir)])
        exp.wall, exp.cpu = time.perf_counter() - start, time.process_time() - cpu_start
    except BoundaryMissing:
        raise
    except Exception:  # the program raised: a failed experiment, not a benchmark crash
        exp.errors.append("raised:\n" + traceback.format_exc(limit=5))
        return exp, logs
    finally:
        patches.restore()
    if code != 0:
        exp.errors.append(f"exit code {code}: {err.getvalue().strip()}")
        return exp, logs
    exp.batches = [r.elapsed for log in logs for r in log.records] + cells
    try:
        exp.files = (
            (out_dir / f"{workload.prefix}_results.csv").read_bytes(),
            (out_dir / f"{workload.prefix}_summary.json").read_bytes(),
        )
        json.loads(exp.files[1])
    except (OSError, ValueError) as exc:
        exp.errors.append(f"output files: {exc}")
    return exp, logs


def check_experiment(exp: Experiment, logs: list, first: Experiment | None, workload, expect, reference: bool) -> None:
    """Fill exp.errors.  The first experiment of a run gets the full check;
    later ones must reproduce its files byte for byte."""
    if exp.errors:
        return
    if first is not None and first.files is not None:
        if exp.files != first.files:
            exp.errors.append("output files differ from the first experiment of this run")
        return
    exp.errors += expect.check_rows(workload.command, exp.files[0].decode())
    exp.errors += expect.check_logs(logs)
    if reference:
        exp.errors += outputs.check_reference(workload.name, workload.prefix, *exp.files)


# ---------------------------------------------------------------------------
# metrics


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    c, t = tracer.counts(), tracer.timings()
    aux = tracer.stat("classifiers.aux_predictions")
    out = {**c, **t}
    out["detector.us_per_label"] = _ratio(t["detector.score.busy_s"], c["detector.score.labels"], 1e6)
    out["inference.distinct_star_frac"] = _ratio(c["inference.distinct_stars"], c["inference.stars"])
    out["classifiers.aux_predictions.busy_s"] = aux.busy
    out["classifiers.aux_predictions.us_per_query"] = _ratio(aux.busy, aux.counts.get("queries", 0), 1e6)
    out["classifiers.aux_predictions.distinct_frac"] = _ratio(c["classifiers.aux_predictions.distinct_inputs"], aux.calls)
    load = tracer.stat("dataset.load_cora")
    out["dataset.load_cora.cells_per_s"] = _ratio(load.counts.get("cells", 0), load.busy)
    out["harness.distinct_run_frac"] = _ratio(c["harness.distinct_runs"], c["harness.runs"])
    return out


def self_check(name: str, counts: dict, scale: str, absent: list[str]) -> list[str]:
    """Contradictions between the measured call counts and PREDICTIONS."""
    notes = []
    expected = dict(PREDICTIONS[name])
    if scale == "full":
        expected.update(FULL_SCALE_COUNTS.get(name, {}))
    for key, want in expected.items():
        if key.startswith("inference.") and "inference.build_instance_graph" in absent:
            continue
        got = counts[key]
        if (want == "nonzero" and got == 0) or (want != "nonzero" and got != want):
            notes.append(f"{key} = {got}, predicted {want}")
    return notes


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    workload = workloads.WORKLOADS[name]
    run_dir = WORK / f"{name}-seed{seed}-{scale}-{os.getpid()}"
    try:
        speed = Speedometer()
        setups, config_path = set_up(workload, seed, scale, run_dir, speed)
        ctx, cli = _import_program()
        config = ctx.load_config(config_path)
        if config.dataset_kind == "cora":
            with open(config.cora_content) as fh:
                n_instances = sum(1 for _ in fh)
        else:
            n_instances = config.synthetic.n_classes * config.synthetic.instances_per_class
        expect = outputs.Expectations(config, n_instances)
        reference = scale == "full" and seed == workloads.DEFAULT_SEED

        exps: list[Experiment] = []
        rounds: list[float] = []
        loop_start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for traced in ((False, True) if trace else (False,)):
                exp, logs = run_experiment(ctx, cli, workload, config_path, run_dir / "out", traced)
                exp.slowdown = speed.slowdown()
                check_experiment(exp, logs, exps[0] if exps else None, workload, expect, reference)
                exps.append(exp)
            rounds.append(time.perf_counter() - round_start)
            if time.perf_counter() - loop_start + _median(rounds) > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    plain = [e for e in exps if not e.traced]
    traced_exps = [e for e in exps if e.traced]
    failed = sum(1 for e in exps if e.errors)

    def time_metrics(scaled: bool) -> dict[str, float]:
        """Medians over the experiments of their times, each divided by the
        experiment's slowdown, or as measured."""
        def median_of(times) -> float:
            return _median([t / (e.slowdown if scaled else 1.0) for e, t in times])

        batched = [e for e in plain if e.batches]
        return {
            "run_s": median_of((e, e.wall) for e in plain),
            "cpu_s": median_of((e, e.cpu) for e in plain),
            "batch_ms_p50": 1e3 * median_of((e, float(np.percentile(e.batches, 50))) for e in batched),
            "batch_ms_p90": 1e3 * median_of((e, float(np.percentile(e.batches, 90))) for e in batched),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": _median([wall / (slow if scaled else 1.0) for wall, slow in setups]),
        }

    e2e, unscaled = time_metrics(True), time_metrics(False)
    report = {
        "env": environment(name, seed, scale),
        "seconds": seconds,
        "attempted": len(exps),
        "failed": failed,
        "error_rate": failed / len(exps),
        "errors": [err for e in exps for err in e.errors][:10],
        "end_to_end": e2e,
        "unscaled": unscaled,
        "samples": {"experiments": len(plain), "batches": sum(len(e.batches) for e in plain),
                    "setups": len(setups)},
        "run_s_each": [e.wall for e in plain],
        "slowdown_each": [e.slowdown for e in plain],
        "setup_s_each": [wall for wall, _ in setups],
        "setup_slowdown_each": [slow for _, slow in setups],
    }
    if trace:
        per_exp = [layer_metrics(e.tracer) for e in traced_exps]
        counts = traced_exps[0].tracer.counts()
        layer = {k: counts[k] if k in counts else _median([m[k] for m in per_exp]) for k in per_exp[0]}
        layer["trace.overhead_s"] = _median([e.wall for e in traced_exps]) - unscaled["run_s"]
        notes = self_check(name, counts, scale, traced_exps[0].tracer.absent)
        if any(e.tracer.counts() != counts for e in traced_exps[1:]):
            notes.append("call counts differ between traced experiments")
        report.update(
            per_layer=layer,
            absent_boundaries=traced_exps[0].tracer.absent,
            self_check=notes,
            span_tree=traced_exps[0].tracer.tree(),
        )
    return report


# ---------------------------------------------------------------------------
# output


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_report(report: dict, trace: bool) -> None:
    env = report["env"]
    print(f"# {env['workload']} seed={env['seed']} scale={env['scale']} sha={env['git_sha'][:12]} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas']} "
          f"blas_threads={env['blas_threads']} nproc={env['nproc']}")
    s = report["samples"]
    print(f"# {report['attempted']} experiments ({s['experiments']} untraced), {s['batches']} batches, "
          f"{s['setups']} set-ups; error_rate {_fmt(report['error_rate'])} "
          f"({report['failed']}/{report['attempted']})")
    for err in report["errors"]:
        print(f"# error: {err}")
    if not trace:
        print(f"# times scaled by the calibration: median slowdown "
              f"{_fmt(_median(report['slowdown_each']))}; unscaled in the report")
        for key, unit in END_TO_END.items():
            print(f"{key:<20} {_fmt(report['end_to_end'][key]):>14} {unit}")
        return
    layer = report["per_layer"]
    for key, unit in PER_LAYER.items():
        print(f"{key:<44} {_fmt(layer[key]):>14} {unit}")
    print(f"# inference.distinct_star_frac = {layer['inference.distinct_stars']:g}/{layer['inference.stars']:g}; "
          f"harness.distinct_run_frac = {layer['harness.distinct_runs']:g}/{layer['harness.runs']:g}")
    if report["absent_boundaries"]:
        print(f"# absent boundaries: {', '.join(report['absent_boundaries'])}")
    for note in report["self_check"]:
        print(f"# self-check: {note}")


def save_report(report: dict, trace: bool) -> Path:
    env = report["env"]
    out = WORK / "reports" / f"{env['workload']}-seed{env['seed']}-trace{int(trace)}-{time.time_ns()}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return out


def result_line(report: dict, trace: bool) -> str:
    names = PER_LAYER if trace else END_TO_END
    values = report["per_layer"] if trace else report["end_to_end"]
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in names.items()},
    })


def smoke() -> int:
    """Every workload once at tiny scale, untraced then traced."""
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            report = run_workload(name, workloads.DEFAULT_SEED, 0, trace, "smoke")
            notes = report.get("self_check", [])
            ok = ok and report["failed"] == 0 and not notes
            print(f"{name:<14} trace={int(trace)} experiments={report['attempted']} failed={report['failed']} "
                  f"run_s={_fmt(report['end_to_end']['run_s'])} {'; '.join(notes + report['errors'])}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload once at tiny scale")
    parser.add_argument("--prepare", choices=sorted(workloads.WORKLOADS), help=argparse.SUPPRESS)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full", help=argparse.SUPPRESS)  # --prepare only
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        if args.prepare:
            return _prepare_main(args)
        if args.smoke:
            return smoke()
        if not args.workload:
            parser.error("--workload is required")
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), "full")
    except (SetupError, BoundaryMissing, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(report, bool(args.trace))
    print(f"# report: {save_report(report, bool(args.trace)).relative_to(ROOT)}")
    print(result_line(report, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
