"""End-to-end config fuzz: small variants of configs/tiny_detect.cfg run
through the four experiment subcommands of the CLI.

Every outcome must be either exit 0 with result rows that keep the row
invariants of ``benchmarks/outputs.py`` (``Expectations``), or exit 1 with a
one-line ``error:`` and no output directory.  A traceback fails the test, and
so does a numpy ``RuntimeWarning``, which the pytest configuration turns
into an error.
"""

import importlib.util
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ctxnoise import load_config
from ctxnoise.cli import main
from ctxnoise.harness import LEARNING_MODES, PSEUDO_MODES

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_outputs", ROOT / "benchmarks" / "outputs.py")
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)

PREFIXES = {"detect": "detection", "active-learn": "learning", "pseudo": "pseudo", "sweep": "sweep"}


@st.composite
def variants(draw):
    """A command and the config lines that replace or extend tiny_detect.cfg's.

    Each key is either left as the file has it (or at its default) or drawn
    from a few small, edge or extreme values, so that one variant may fail
    in several places at once.  ``detect`` runs NCAR noise only: the row
    invariants read the noise levels from ``omegas``, which NAR ignores.
    """
    command = draw(st.sampled_from(sorted(PREFIXES)))
    own_modes = PSEUDO_MODES if command == "pseudo" else LEARNING_MODES
    choices = {
        "synthetic.instances_per_class": st.sampled_from([3, 5, 12, 30]),
        "synthetic.n_classes": st.sampled_from([2, 3, 4]),
        "synthetic.n_features": st.integers(1, 6),
        "synthetic.links_per_instance": st.integers(0, 4),
        "synthetic.concentration": st.sampled_from([0.0, 0.5, 1.0]),
        "synthetic.noise_scale": st.sampled_from([0.0, 1.0, 100.0]),
        "n_batches": st.integers(2, 6),
        "test_fraction": st.sampled_from([0.001, 0.2, 0.5, 0.95]),
        "query_fraction": st.sampled_from([0.01, 0.3, 1.0]),
        "mode": st.one_of(st.sampled_from(own_modes), st.sampled_from(LEARNING_MODES + PSEUDO_MODES)),
        "noise": st.just("ncar") if command == "detect" else st.sampled_from(["ncar", "nar"]),
        "omegas": st.sampled_from(["0.2", "0.2, 0.4", "0, 1"]),
        "betas": st.sampled_from(["0", "0.5, 0.9"]),
        "seeds": st.sampled_from(["0", "0, 1"]),
        "selection": st.sampled_from(["entropy", "random"]),
        "replay": st.sampled_from(["true", "false"]),
        "mlr_epochs": st.sampled_from([1, 5, 20]),
        "mlr_batch_size": st.sampled_from(["none", "1", "32"]),
        "mlr_learning_rate": st.sampled_from([0.1, 10.0, 1e6, 1e30]),
        "knn_k": st.sampled_from([1, 3, 5]),
        "epsilon": st.sampled_from([1e-6, 0.01, 1.0]),
    }
    lines = {key: draw(values) for key, values in choices.items() if draw(st.booleans())}
    if command == "pseudo":  # the file's mode is a learning mode
        lines.setdefault("mode", draw(st.sampled_from(PSEUDO_MODES)))
    if command == "sweep" and lines.get("noise") == "nar":
        lines.setdefault("omegas", draw(st.sampled_from(["0.2", "0.2, 0.4"])))
    return command, lines


def config_text(lines: dict) -> str:
    """tiny_detect.cfg with every key of ``lines`` set to its value, in place
    where the file sets the key, at the end otherwise."""
    out, rest = [], dict(lines)
    for line in (ROOT / "configs" / "tiny_detect.cfg").read_text().splitlines():
        key = line.split("=", 1)[0].strip()
        out.append(f"{key} = {rest.pop(key)}" if key in rest else line)
    return "\n".join(out + [f"{key} = {value}" for key, value in rest.items()]) + "\n"


def expectations(config, command: str):
    """``Expectations`` of the config.  Its learning-row rule counts the
    queried labels of each batch; a pseudo-labeling mode other than
    ``manual`` also keeps or removes the rest of the batch, so there the
    rule counts the whole batch."""
    n_instances = config.synthetic.n_classes * config.synthetic.instances_per_class
    expect = outputs.Expectations(config, n_instances)
    if command == "pseudo" and config.mode != "manual":
        n_train = n_instances - expect.n_test
        sizes = [n_train // config.n_batches] * config.n_batches
        sizes[-1] += n_train % config.n_batches
        expect.queried = sizes[1:]
    return expect


@given(variants())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_config_variant_runs_or_fails_by_name(tmp_path_factory, capsys, variant):
    command, lines = variant
    work = tmp_path_factory.mktemp("fuzz")
    path, out = work / "variant.cfg", work / "out"
    path.write_text(config_text(lines))
    capsys.readouterr()
    code = main([command, "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    if code != 0:
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert not out.exists()
        return
    assert err == ""
    config = load_config(path)
    csv = (out / f"{PREFIXES[command]}_results.csv").read_text()
    assert expectations(config, command).check_rows(command, csv) == []
    assert (out / f"{PREFIXES[command]}_summary.json").exists()


@pytest.mark.parametrize("command", sorted(PREFIXES))
def test_the_unchanged_config_runs(tmp_path, capsys, command):
    # the variants start from a config that every command runs
    path, out = tmp_path / "tiny.cfg", tmp_path / "out"
    path.write_text(config_text({"mode": "manual_pseudo_cnld"} if command == "pseudo" else {}))
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    csv = (out / f"{PREFIXES[command]}_results.csv").read_text()
    assert expectations(load_config(path), command).check_rows(command, csv) == []
