"""The numpy behaviours that the package's outputs rest on, one named test
per assumption.

Each test runs numpy primitives alone, with the dtypes the package passes
them, and imports nothing from the package, so that a numpy release that
breaks an assumption fails here by its name rather than as a changed
result elsewhere.  The ``numpy-floor`` CI job runs this file first, on the
oldest numpy the package admits.

Ranking: ``metrics.first_k`` is one ``np.lexsort`` over the ids and the
keys, and ``metrics.remove_first`` removes its first ``removal_count``.
It rejects a NaN key, but entropy selection ranks by ``first_k`` directly,
and an all-zero score batch negates to -0.0 keys.  Each probe runs at a
batch of 7, below numpy's small-sort cutoff, and at one of 1,000, the
size of an evaluation split.
"""

import numpy as np
import pytest

SIZES = [7, 1000]


def ranks(size: int, *keys: np.ndarray) -> list[int]:
    """``np.lexsort`` as ``first_k`` calls it: ascending int64 ids, the least
    significant key, then ``keys`` with the most significant first."""
    return np.lexsort((np.arange(size, dtype=np.int64), *reversed(keys))).tolist()


@pytest.mark.parametrize("size", SIZES)
def test_lexsort_sorts_nan_last(size):
    # NaNs tie with each other, so the ids order them
    rng = np.random.default_rng(0)
    key = rng.choice(np.array([np.nan, -np.inf, -1.0, 0.0, 0.5, np.inf]), size)
    nan = np.isnan(key)
    assert nan.any() and not nan.all()
    expected = sorted(range(size), key=lambda i: (nan[i], 0.0 if nan[i] else key[i], i))
    assert ranks(size, key) == expected


@pytest.mark.parametrize("size", SIZES)
def test_lexsort_ties_negative_zero_with_zero(size):
    # so the next key decides, here the ids
    key = np.where(np.arange(size) % 3 == 0, -0.0, 0.0)
    assert np.signbit(key).any() and not np.signbit(key).all()
    assert ranks(size, key) == list(range(size))
    assert ranks(size, -key) == list(range(size))


@pytest.mark.parametrize("size", SIZES)
def test_lexsort_orders_equal_keys_by_the_less_significant_key(size):
    # the detectors' keys: a bool flag, then a float with heavy ties, then the ids
    rng = np.random.default_rng(1)
    flag = rng.integers(0, 2, size).astype(bool)
    value = rng.choice(np.array([0.25, 0.5, 0.75]), size)
    expected = sorted(range(size), key=lambda i: (flag[i], value[i], i))
    assert ranks(size, flag, value) == expected
