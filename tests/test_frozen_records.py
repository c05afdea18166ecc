"""The result records that carry a run from stage to stage are frozen
values: no field can be assigned, their arrays are read-only copies and
their sequences are tuples, so no result changes after it is built."""

import dataclasses

import numpy as np
import pytest

from ctxnoise import (
    build_relationship,
    detection_metrics,
    inject_ncar,
    prior_conditionals,
    run_active_learning,
    run_detection_suite,
)

from test_harness import small_config
from test_relationship import linked_dataset


def noise_plan():
    return inject_ncar(np.array([0, 1, 2, 0, 1, 2]), 3, 0.5, seed=0)


def conditionals():
    dataset = linked_dataset(labels=(0, 1, 2), links=((0, 1),), m=2, attr_obs={0: [[0.7, 0.3]]})
    return prior_conditionals(build_relationship(dataset, {0: 0, 1: 1}))


def experiment_log():
    return run_active_learning(small_config(mode="cnld", n_batches=3))


RECORDS = {
    "NoisePlan": noise_plan,
    "Conditionals": conditionals,
    "DetectionMetrics": lambda: detection_metrics(np.array([True, False, False]), np.array([True, True, False])),
    "BatchRecord": lambda: experiment_log().records[0],
    "ExperimentLog": experiment_log,
    "DetectionSuiteRow": lambda: run_detection_suite(small_config(omegas=[0.2]))[0],
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_frozen(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field.name, value)
        if isinstance(value, np.ndarray):
            with pytest.raises(ValueError, match="read-only"):
                value[0] = value[0]
        assert not isinstance(value, (list, dict, set))


def test_arrays_are_copies_of_the_given_ones():
    plan = noise_plan()
    assigned, flipped = plan.assigned.copy(), plan.flipped.copy()
    copy = type(plan)(assigned, flipped)
    assigned[:], flipped[:] = 7, True
    assert np.array_equal(copy.assigned, plan.assigned) and np.array_equal(copy.flipped, plan.flipped)
    rows = conditionals()
    data = rows.data_rows.copy()
    copy = type(rows)(data, None)
    data[0, 0] = 5.0
    assert np.array_equal(copy.data_rows, rows.data_rows) and copy.attr_rows is None
