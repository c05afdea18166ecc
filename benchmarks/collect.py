"""Summarize saved benchmark reports into one results file.

    python3 benchmarks/collect.py .bench_work/reports/*.json > benchmarks/results/BENCH_<change>.json

Groups the reports by workload and trace mode and gives, for every metric,
the median and quartiles across runs (``statistics.quantiles(n=4)``), the
interquartile spread as a share of the median, and the number of runs.
End-to-end groups also summarize the times as measured, before scaling by
the calibration, under ``unscaled``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def collect(paths: list[Path]) -> dict:
    groups: dict[tuple[str, str], list[dict]] = {}
    for path in paths:
        report = json.loads(path.read_text())
        mode = "per_layer" if "per_layer" in report else "end_to_end"
        groups.setdefault((report["env"]["workload"], mode), []).append(report)
    out: dict = {}
    for (workload, mode), reports in sorted(groups.items()):
        metrics = {k: summarize([r[mode][k] for r in reports]) for k in reports[0][mode]}
        if mode == "end_to_end":
            metrics["error_rate"] = summarize([r["error_rate"] for r in reports])
            if all("unscaled" in r for r in reports):
                metrics["unscaled"] = {k: summarize([r["unscaled"][k] for r in reports]) for k in reports[0]["unscaled"]}
        env = {k: v for k, v in reports[0]["env"].items() if k != "seed"}
        out.setdefault(workload, {})[mode] = {
            "env": env,
            "seeds": sorted(r["env"]["seed"] for r in reports),
            "run_seconds": sorted({r["seconds"] for r in reports}),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "metrics": metrics,
        }
    return out


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: collect.py REPORT.json ...")
    print(json.dumps(collect([Path(p) for p in sys.argv[1:]]), indent=1, sort_keys=True))
