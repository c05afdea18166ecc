"""Mutation catalogue: each entry breaks one check of the program, and the
tests it lists must catch the break.

An entry names a file under ``src/``, an exact text found once in it, the
text to put in its place, and the test node ids (from the repository root)
of which at least one must fail on the broken copy.  ``run_mutants.py``
runs the catalogue; a test edit that lets a mutant survive, or a source
edit that removes a mutant's text, fails that run.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str
    text: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "bool field admits a string",
        "ctxnoise/dataset.py",
        "lambda v: isinstance(v, (bool, np.bool_))",
        "lambda v: isinstance(v, (bool, np.bool_, str))",
        ("tests/test_harness.py::TestConfigFiles::test_value_of_the_wrong_type_names_its_key",),
    ),
    Mutant(
        "int field admits a float",
        "ctxnoise/dataset.py",
        "return isinstance(value, numbers.Integral) and not isinstance(value, bool)",
        "return isinstance(value, numbers.Real) and not isinstance(value, bool)",
        (
            "tests/test_harness.py::TestConfigFiles::test_value_of_the_wrong_type_names_its_key",
            "tests/test_harness.py::TestConfigFiles::test_synthetic_value_of_the_wrong_type_names_its_key",
        ),
    ),
    Mutant(
        "result_row keeps an unknown column",
        "ctxnoise/harness.py",
        '    if unknown:\n        raise ValueError(f"unknown results column(s) {sorted(unknown)}")\n',
        "",
        ("tests/test_harness.py::TestResultFiles::test_result_row_fills_every_column_and_rejects_an_unknown_one",),
    ),
    Mutant(
        "--seeds keeps a repeated seed",
        "ctxnoise/cli.py",
        '        if len(config.seeds) < len(seeds):\n            raise ConfigError(f"--seeds expects distinct seeds, got {args.seeds!r}")\n',
        "",
        ("tests/test_cli.py::test_repeated_seed_override_rejected",),
    ),
    Mutant(
        "int | None converter reads no none",
        "ctxnoise/dataset.py",
        '"int | None": (lambda v: None if v.lower() == "none" else int(v),',
        '"int | None": (int,',
        (
            "tests/test_harness.py::TestConfigFiles::test_key_tables_follow_the_config_fields",
            "tests/test_harness.py::TestConfigFiles::test_parse_fields",
        ),
    ),
)
