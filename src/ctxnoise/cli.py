"""Command-line entry point.

Subcommands: ``gen-data``, ``detect``, ``active-learn``, ``pseudo``,
``sweep``.  Experiments are defined by a key=value config file; flags only
override seeds and paths.  Exit codes: 0 success, 1 runtime error, 2 usage
error.  The default output directory comes from ``CTXNOISE_OUT`` (falling
back to ``./out``); it is made when a command writes its first file, so a
command that fails leaves none.  Machine-readable data goes to files, stdout
carries progress only.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .dataset import generate_synthetic, save_synthetic
from .harness import (
    _KEY_TYPES,
    ConfigError,
    ExperimentConfig,
    config_lines,
    detection_result_rows,
    learning_result_rows,
    load_config,
    load_experiment_dataset,
    result_row,
    run_active_learning,
    run_detection_suite,
    run_pseudo,
    run_starts,
    summarize_detection,
    summarize_learning,
    write_results_csv,
    write_summary_json,
)

OUT_ENV_VAR = "CTXNOISE_OUT"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxnoise",
        description="Context-based noisy-label detection and noise-robust active learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("gen-data", "generate and save a synthetic dataset"),
        ("detect", "run the fixed-budget detection benchmark"),
        ("active-learn", "run noisy-annotation active learning"),
        ("pseudo", "run the pseudo-labeling protocol"),
        ("sweep", "sweep omega x beta x seeds and aggregate"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="key=value experiment config file")
        p.add_argument("--out", default=None, help=f"output directory (default ${OUT_ENV_VAR} or ./out)")
        p.add_argument("--seeds", default=None, help="override config seeds, e.g. 0,1,2")
        p.add_argument("-v", "--verbose", action="store_true", help="per-batch progress on stdout")
    return parser


def _prepare(args: argparse.Namespace) -> tuple[ExperimentConfig, Path]:
    config = load_config(args.config)
    if args.seeds is not None:
        try:
            seeds = _KEY_TYPES["seeds"](args.seeds)
            # each seed once, so that replace reports no seeds or a negative one
            # and a repeat is left to the count below
            config = replace(config, seeds=tuple(dict.fromkeys(seeds)))
        except ValueError:  # a malformed seed, or a ConfigError from the config's own checks
            raise ConfigError(f"--seeds expects comma-separated non-negative integers, got {args.seeds!r}") from None
        if len(config.seeds) < len(seeds):
            raise ConfigError(f"--seeds expects distinct seeds, got {args.seeds!r}")
    return config, Path(args.out or os.environ.get(OUT_ENV_VAR, "out"))


def _cmd_gen_data(args: argparse.Namespace, config: ExperimentConfig, out_dir: Path) -> None:
    if config.dataset_kind != "synthetic":
        raise ConfigError("gen-data needs a synthetic dataset config", "dataset")
    dataset = generate_synthetic(config.synthetic)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "dataset.txt"
    save_synthetic(dataset, path)
    n_links = len(dataset.links.values) // 2
    print(
        f"wrote {path}: {len(dataset)} instances, {dataset.n_classes} classes, "
        f"{dataset.n_features} features, {n_links} links"
    )


def _cmd_detect(args: argparse.Namespace, config: ExperimentConfig, out_dir: Path) -> None:
    rows = run_detection_suite(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_results_csv(out_dir / "detection_results.csv", detection_result_rows(rows))
    write_summary_json(out_dir / "detection_summary.json", summarize_detection(rows))
    print(f"wrote {out_dir / 'detection_results.csv'} ({len(rows)} rows)")


def _cmd_learn(args: argparse.Namespace, config: ExperimentConfig, out_dir: Path) -> None:
    runner, prefix = (run_active_learning, "learning") if args.command == "active-learn" else (run_pseudo, "pseudo")
    starts = run_starts(config, load_experiment_dataset(config), config.seeds)
    logs = []
    for seed in config.seeds:
        log = runner(config, seed, start=starts[seed])
        logs.append(log)
        if args.verbose:
            for r in log.records:
                print(f"seed {seed} batch {r.batch}: accuracy {r.accuracy:.4f} kept {r.kept} removed {r.removed}")
        print(f"seed {seed}: final accuracy {log.final_accuracy:.4f}")
    rows = [row for log in logs for row in learning_result_rows(log)]
    out_dir.mkdir(parents=True, exist_ok=True)
    write_results_csv(out_dir / f"{prefix}_results.csv", rows)
    write_summary_json(out_dir / f"{prefix}_summary.json", summarize_learning(logs))
    print(f"wrote {out_dir / (prefix + '_results.csv')}")


def _sum_in_order(values: list[float]) -> float:
    """Left to right, as the builtin ``sum`` adds floats before CPython 3.12,
    which compensates them, so a summary's bytes do not depend on it."""
    total = 0.0
    for v in values:
        total += v
    return total


def _cmd_sweep(args: argparse.Namespace, config: ExperimentConfig, out_dir: Path) -> None:
    """One summary row per (omega, beta): accuracy gain of the context filter
    over learning on unfiltered noisy labels, mean +/- std across seeds.

    Every run of a seed starts from one shared start (``run_starts``), and
    ``sn``, which ignores beta, runs once per (omega, seed).  NAR noise
    reads no omega, so with ``noise = nar`` ``omegas`` must hold one value."""
    if config.noise == "nar" and len(config.omegas) > 1:
        raise ConfigError("omegas must hold one value under noise = nar, which reads no omega", "omegas")
    starts = run_starts(config, load_experiment_dataset(config), config.seeds)
    rows = []
    summary = {}
    for omega in config.omegas:
        unfiltered = {
            seed: run_active_learning(replace(config, mode="sn", omega=omega), seed, start=starts[seed])
            for seed in config.seeds
        }
        for beta in config.betas:
            gains = []
            for seed in config.seeds:
                filtered = run_active_learning(
                    replace(config, mode="cnld", omega=omega, beta=beta), seed, start=starts[seed]
                )
                gains.append(100.0 * (filtered.final_accuracy - unfiltered[seed].final_accuracy))
                rows.append(
                    result_row(
                        run_id=f"sweep-omega{omega:g}-beta{beta:g}-seed{seed}", seed=seed, mode="cnld_vs_sn",
                        omega=omega, accuracy=filtered.final_accuracy,
                    )
                )
            mean = _sum_in_order(gains) / len(gains)
            var = _sum_in_order([(g - mean) ** 2 for g in gains]) / len(gains)
            summary[f"omega={omega:g},beta={beta:g}"] = {
                "accuracy_gain_over_sn": mean,
                "accuracy_gain_std": var**0.5,
                "seeds": len(gains),
            }
            print(f"omega={omega:g} beta={beta:g}: gain {mean:+.2f} ± {var ** 0.5:.2f} points")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_results_csv(out_dir / "sweep_results.csv", rows)
    write_summary_json(out_dir / "sweep_summary.json", summary)
    print(f"wrote {out_dir / 'sweep_results.csv'}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    commands = {
        "gen-data": _cmd_gen_data,
        "detect": _cmd_detect,
        "active-learn": _cmd_learn,
        "pseudo": _cmd_learn,
        "sweep": _cmd_sweep,
    }
    try:
        config, out_dir = _prepare(args)
        try:
            commands[args.command](args, config, out_dir)
        except ConfigError as exc:
            if exc.key is None:
                raise
            # raised after parsing: name the line that sets the key, or the
            # file alone where the key keeps its default
            where = config_lines(Path(args.config).read_text(), args.config).get(exc.key, (None, args.config))[1]
            raise ConfigError(f"{where}: {exc}", exc.key) from None
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
