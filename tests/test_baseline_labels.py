"""Assigned labels outside the classifier's classes fail by name in every
baseline, as they do in the context detector, instead of reading another
class's column (-1 wraps to class n - 1) or raising IndexError (n)."""

import numpy as np
import pytest

from ctxnoise import consensus_detect, majority_detect, probabilistic_detect, suspicion_table, voting_table

PROBA = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])
SUSPICION = suspicion_table(PROBA)
VOTES = voting_table(np.array([[0, 0, 1], [1, 2, 1], [2, 2, 2]]), PROBA)
IDS = [1, 2, 3]

DETECTORS = {
    "probabilistic": lambda assigned: probabilistic_detect(SUSPICION, IDS, assigned, 1),
    "consensus": lambda assigned: consensus_detect(VOTES, IDS, assigned, 1),
    "majority": lambda assigned: majority_detect(VOTES, IDS, assigned, 1),
}


@pytest.mark.parametrize("name", DETECTORS)
@pytest.mark.parametrize("bad", [-1, 3])
def test_label_outside_the_classes_rejected(name, bad):
    with pytest.raises(ValueError, match=rf"^labels must lie in \[0, 3\), got {bad}$"):
        DETECTORS[name]([0, bad, 2])


@pytest.mark.parametrize("name", DETECTORS)
def test_first_bad_label_is_named(name):
    with pytest.raises(ValueError, match=r"^labels must lie in \[0, 3\), got 5$"):
        DETECTORS[name]([5, 0, -1])


@pytest.mark.parametrize("name", DETECTORS)
def test_labels_at_both_ends_accepted(name):
    assert DETECTORS[name]([0, 1, 2]).sum() == 1
    assert DETECTORS[name]([2, 0, 0]).sum() == 1
