"""Tests of the benchmark itself: python3 -m pytest -q benchmarks"""

import json
import subprocess
import sys
import time

import pytest

import bench
import workloads
from tracer import BoundaryMissing, Patches, Tracer


def test_smoke_runs_every_workload_untraced_and_traced():
    done = subprocess.run(
        [sys.executable, str(bench.HERE / "bench.py"), "--smoke"],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert len(done.stdout.splitlines()) == 2 * len(workloads.WORKLOADS)


def test_benchmark_json_names_the_metrics_the_benchmark_prints():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_time_metrics_are_scaled_by_the_calibration_beside_them():
    report = bench.run_workload("sweep-grid", workloads.DEFAULT_SEED, 0, False, "smoke")
    (wall,), (slowdown,) = report["run_s_each"], report["slowdown_each"]
    assert slowdown > 0
    assert report["unscaled"]["run_s"] == wall
    assert report["end_to_end"]["run_s"] == pytest.approx(wall / slowdown)
    (setup,), (setup_slowdown,) = report["setup_s_each"], report["setup_slowdown_each"]
    assert report["end_to_end"]["setup_s"] == pytest.approx(setup / setup_slowdown)
    assert report["end_to_end"]["peak_rss_mb"] == report["unscaled"]["peak_rss_mb"]


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.02), "m.inner")
    outer = tracer.wrap(lambda: (inner(), time.sleep(0.01)), "m.outer")
    outer()
    o, i = tracer.stat("m.outer"), tracer.stat("m.inner")
    assert o.calls == i.calls == 1
    assert o.self_time == pytest.approx(o.busy - i.busy, abs=1e-3)  # less the wrapper's bookkeeping
    assert tracer.edges[("m.outer", "m.inner")] == i.busy


def test_counter_time_falls_in_no_program_span():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "m.inner", count=lambda *_: time.sleep(0.05))
    outer = tracer.wrap(inner, "m.outer")
    outer()
    assert tracer.stat("m.outer").self_time < 0.01
    assert tracer.stat("trace.wrappers").busy >= 0.05


def test_missing_required_boundary_fails_and_optional_one_is_absent(monkeypatch):
    ctx, _ = bench._import_program()
    monkeypatch.delattr(ctx.detector, "build_instance_graph")
    tracer, patches = Tracer(), Patches()
    try:
        tracer.install(ctx, patches)
    finally:
        patches.restore()
    assert tracer.absent == ["inference.build_instance_graph"]

    monkeypatch.delattr(ctx.harness, "train_mlr")
    patches = Patches()
    with pytest.raises(BoundaryMissing, match="train_mlr"):
        try:
            Tracer().install(ctx, patches)
        finally:
            patches.restore()
