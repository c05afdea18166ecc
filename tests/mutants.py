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
    Mutant(
        "remove_first admits a negative budget",
        "ctxnoise/metrics.py",
        "if not 0 <= removal_count <= len(ids):",
        "if not removal_count <= len(ids):",
        (
            "tests/test_argument_checks.py::test_bad_argument_named[budget below 0]",
            "tests/test_baselines.py::TestVotingDetectors::test_exact_removal_count_and_determinism",
        ),
    ),
    Mutant(
        "remove_first admits a budget past the batch",
        "ctxnoise/metrics.py",
        "if not 0 <= removal_count <= len(ids):",
        "if not 0 <= removal_count:",
        (
            "tests/test_argument_checks.py::test_bad_argument_named[budget above the batch]",
            "tests/test_baselines.py::TestVotingDetectors::test_exact_removal_count_and_determinism",
        ),
    ),
    Mutant(
        "remove_first ranks by a NaN key",
        "ctxnoise/metrics.py",
        'if key.dtype.kind == "f" and not np.isfinite(key).all():',
        "if False:",
        ("tests/test_baselines.py::test_non_finite_ranking_key_named",),
    ),
    Mutant(
        "first_k drops the id tie-break",
        "ctxnoise/metrics.py",
        "np.lexsort((ids, *reversed(keys)))",
        "np.lexsort(tuple(reversed(keys)))",
        (
            "tests/test_baselines.py::TestProbabilisticDetector::test_tie_breaks_toward_lower_id",
            "tests/test_detector.py::TestDetectTopk::test_ties_break_toward_lower_id",
        ),
    ),
    Mutant(
        "assigned labels need not align with the ids",
        "ctxnoise/metrics.py",
        '    if len(assigned) != len(ids):\n        raise ValueError("ids and assigned labels must align")\n',
        "",
        ("tests/test_detector.py::TestBatchKernel::test_ids_and_labels_must_match_the_table",),
    ),
    Mutant(
        "assigned labels need not be classes",
        "ctxnoise/metrics.py",
        "assigned = _whole_numbers(labels, n_classes)",
        "assigned = _whole_numbers(labels)",
        ("tests/test_baseline_labels.py::test_label_outside_the_classes_rejected",),
    ),
    Mutant(
        "a misaligned label vector is masked instead of named",
        "ctxnoise/detector.py",
        "if assigned.shape == divergences.has_context.shape:",
        "if True:",
        ("tests/test_detector.py::TestBatchKernel::test_ids_and_labels_must_match_the_table",),
    ),
    Mutant(
        "table arrays of two shapes",
        "ctxnoise/baselines.py",
        "if first.ndim != 2 or first.shape != second.shape:",
        "if first.ndim != 2:",
        ("tests/test_baselines.py::test_bad_table_rejected_at_construction",),
    ),
    Mutant(
        "table arrays that are not 2-D",
        "ctxnoise/baselines.py",
        "if first.ndim != 2 or first.shape != second.shape:",
        "if first.shape != second.shape:",
        (
            "tests/test_baselines.py::test_bad_table_rejected_at_construction",
            "tests/test_baselines.py::test_tables_need_one_row_per_instance",
        ),
    ),
    Mutant(
        "a table of one class",
        "ctxnoise/baselines.py",
        "if first.shape[1] < 2:",
        "if first.shape[1] < 1:",
        (
            "tests/test_baselines.py::test_bad_table_rejected_at_construction",
            "tests/test_label_contract.py::test_table_builders_need_two_classes",
        ),
    ),
    Mutant(
        "a table keeps its caller's writable arrays",
        "ctxnoise/baselines.py",
        "        object.__setattr__(table, name, _read_only(array))\n",
        "        pass\n",
        (
            "tests/test_baselines.py::test_hand_built_tables_are_read_only_copies",
            "tests/test_baselines.py::test_tables_are_read_only_snapshots",
        ),
    ),
    Mutant(
        "a mismatch table that is not bool",
        "ctxnoise/baselines.py",
        "if mismatch.dtype != bool:",
        "if False:",
        ("tests/test_baselines.py::test_bad_table_rejected_at_construction",),
    ),
    Mutant(
        "disagreement counts past 3",
        "ctxnoise/baselines.py",
        '4, what="disagreements")',
        'None, what="disagreements")',
        ("tests/test_baselines.py::test_bad_table_rejected_at_construction",),
    ),
    Mutant(
        "disagreement counts that are not whole",
        "ctxnoise/baselines.py",
        '_whole_numbers(_freeze(self, ("disagreements", "confidence")), 4, what="disagreements")',
        '_freeze(self, ("disagreements", "confidence"))',
        ("tests/test_baselines.py::test_bad_table_rejected_at_construction",),
    ),
    Mutant(
        "synthetic admits another type",
        "ctxnoise/harness.py",
        "if not (self.synthetic is None or isinstance(self.synthetic, SyntheticConfig)):",
        "if False:",
        ("tests/test_harness.py::TestConfigFiles::test_value_of_the_wrong_type_names_its_key",),
    ),
    Mutant(
        "a generator config on cora is ignored",
        "ctxnoise/harness.py",
        'if self.dataset_kind == "cora" and self.synthetic is not None:',
        "if False:",
        ("tests/test_harness.py::TestConfigFiles::test_generator_config_on_cora_rejected",),
    ),
    Mutant(
        "lock-step trainers accept no members",
        "ctxnoise/classifiers.py",
        '    if not keys:\n        raise ValueError("need at least one member")\n',
        "",
        (
            "tests/test_classifiers.py::TestLockstepChecks::test_no_members_rejected",
            "tests/test_classifiers.py::TestAuxEnsemble::test_every_member_is_checked_before_any_trains",
        ),
    ),
    Mutant(
        "a warm-start model of another feature count",
        "ctxnoise/classifiers.py",
        '_checked_pool(features, labels, cfg.n_classes, model, "model")',
        '_checked_pool(features, labels, cfg.n_classes, None, "model")',
        ("tests/test_classifiers.py::TestLockstepChecks::test_warm_start_model_must_fit_the_member",),
    ),
    Mutant(
        "a logistic member of another feature count",
        "ctxnoise/classifiers.py",
        '_checked_pool(features, labels, mlr.n_classes, mlr, "logistic member")',
        '_checked_pool(features, labels, mlr.n_classes, None, "logistic member")',
        (
            "tests/test_classifiers.py::TestAuxEnsemble::test_pretrained_logistic_member_is_used",
            "tests/test_classifiers.py::TestAuxEnsemble::test_every_member_is_checked_before_any_trains",
        ),
    ),
    Mutant(
        "a warm-start model of another class count",
        "ctxnoise/classifiers.py",
        "if model is not None and model.n_classes != n_classes:",
        "if False:",
        ("tests/test_classifiers.py::TestLockstepChecks::test_warm_start_model_must_fit_the_member",),
    ),
    Mutant(
        "lock-step chunks divide by a zero feature count",
        "ctxnoise/classifiers.py",
        "LOCKSTEP_BYTES // (8 * N * max(1, d))",
        "LOCKSTEP_BYTES // (8 * N * d)",
        ("tests/test_classifiers.py::TestLockstepChecks::test_featureless_pool_trains_the_bias",),
    ),
    Mutant(
        "one-feature members stack in the interleaved loop",
        "ctxnoise/classifiers.py",
        "size = 1 if interleaved and d == 1 else max(",
        "size = max(",
        ("tests/test_classifiers.py::test_one_feature_members_train_one_per_stacked_loop",),
    ),
    Mutant(
        "remove_first admits a fractional budget",
        "ctxnoise/metrics.py",
        "if not isinstance(removal_count, numbers.Integral) or isinstance(removal_count, bool):",
        "if isinstance(removal_count, bool):",
        ("tests/test_argument_checks.py::test_bad_argument_named[budget a fraction]",),
    ),
    Mutant(
        "remove_first admits a bool budget",
        "ctxnoise/metrics.py",
        "if not isinstance(removal_count, numbers.Integral) or isinstance(removal_count, bool):",
        "if not isinstance(removal_count, numbers.Integral):",
        ("tests/test_argument_checks.py::test_bad_argument_named[budget a bool]",),
    ),
    Mutant(
        "assigned labels need not be 1-D",
        "ctxnoise/metrics.py",
        "if assigned.ndim != 1:",
        "if False:",
        (
            "tests/test_label_contract.py::test_a_column_of_labels_named[probabilistic_detect]",
            "tests/test_label_contract.py::test_a_column_of_labels_named[cnld_detect]",
        ),
    ),
    Mutant(
        "star divergences of ids that are not 1-D",
        "ctxnoise/detector.py",
        "if ids.ndim != 1:",
        "if False:",
        ("tests/test_detector.py::TestStarDivergencesConstruction::test_bad_table_rejected_at_construction",),
    ),
    Mutant(
        "star divergences of context flags that are not bool",
        "ctxnoise/detector.py",
        "if has_context.dtype != bool or has_context.shape != ids.shape:",
        "if has_context.shape != ids.shape:",
        ("tests/test_detector.py::TestStarDivergencesConstruction::test_bad_table_rejected_at_construction",),
    ),
    Mutant(
        "star divergences of one context flag too few",
        "ctxnoise/detector.py",
        "if has_context.dtype != bool or has_context.shape != ids.shape:",
        "if has_context.dtype != bool:",
        ("tests/test_detector.py::TestStarDivergencesConstruction::test_bad_table_rejected_at_construction",),
    ),
    Mutant(
        "star divergences of a KL table of another shape",
        "ctxnoise/detector.py",
        "if kl.shape != (len(ids), n):",
        "if False:",
        ("tests/test_detector.py::TestStarDivergencesConstruction::test_bad_table_rejected_at_construction",),
    ),
    Mutant(
        "star divergences keep the caller's KL table",
        "ctxnoise/detector.py",
        "object.__setattr__(self, name, _read_only(kl))",
        "pass",
        ("tests/test_detector.py::TestStarDivergencesConstruction::test_hand_built_table_is_a_read_only_snapshot",),
    ),
    Mutant(
        "star divergences keep the caller's ids",
        "ctxnoise/detector.py",
        'object.__setattr__(self, "ids", _read_only(ids))',
        "pass",
        ("tests/test_detector.py::TestStarDivergencesConstruction::test_hand_built_table_is_a_read_only_snapshot",),
    ),
)
