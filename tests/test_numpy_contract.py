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

Training: both stacked trainers, the logistic SGD loop and the SVM hinge
loop, give each member the bits of its plain 2-D loop.  Their products are
stacked matmuls over (R, N, d) slices of a buffer, member-major (the hinge
loop's pools) or interleaved with the member axis beside the innermost one
(the SGD loop's rows), and over their transposed views.  The SGD loop
draws a block of epochs' row orders with one ``Generator.permuted`` call per
member, into its column of one interleaved index.  The matmul probe runs
at the shape of a detect-linked seed's pools (N = 441, d = 16, n = 7),
with the five or ten members of one detection suite call; the permuted
probe at N = 441 and at the small and one-row pools of the sweeps.

Class-major softmax: the lock-step trainer writes W X_b^T, which must give
the bits of (X_b W^T)^T, and reduces it over its outer class axis, whose
max and sum must match a contiguous row's below 8 classes, where numpy
adds a row left to right.  The hinge loop's class-major form rests on the
same product at its shapes.

Ragged steps: a lock-step loop over members with different row counts
pads each member's step with zero rows, which must leave each member's
G^T X_b and W X_b^T with the bits of its unpadded products.
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


@pytest.mark.parametrize("R", [5, 10])
@pytest.mark.parametrize("interleaved", [False, True])
def test_stacked_matmul_gives_each_2d_product_its_bits(R, interleaved):
    # Z = X W^T and G = A^T X, with X's slices and the transposed views of
    # W and A as the operands, into preallocated outputs
    N, d, n = 441, 16, 7
    rng = np.random.default_rng(R)
    rows = rng.standard_normal((N, R, d) if interleaved else (R, N, d))
    X = rows.swapaxes(0, 1) if interleaved else rows  # an (R, N, d) view
    W = rng.standard_normal((R, n, d))
    A = rng.standard_normal((R, N, n)) * 10.0 ** rng.integers(-3, 4, (R, N, n))
    Z, G = np.empty((R, N, n)), np.empty((R, n, d))
    np.matmul(X, W.swapaxes(1, 2), Z)
    np.matmul(A.swapaxes(1, 2), X, G)
    for r in range(R):
        Xr = np.ascontiguousarray(X[r])  # as a gather or a lone pool holds it
        assert Z[r].tobytes() == (Xr @ W[r].T).tobytes()
        assert G[r].tobytes() == (A[r].T @ Xr).tobytes()


@pytest.mark.parametrize("N", [1, 2, 7, 33, 441])
@pytest.mark.parametrize("strided", [False, True])
def test_permuted_out_draws_the_permutations_of_as_many_permutation_calls(N, strided):
    # E epochs' orders in one call over broadcast ranks, into a contiguous
    # out or into one member's column of an (E, N, R) index, give the
    # orders and the final generator state of E permutation(N) calls
    E, R = 3, 4
    index = np.empty((E, N, R), dtype=np.intp)
    out = index[..., R - 1] if strided else np.empty((E, N), dtype=np.intp)
    for seed in range(3):
        sequential, blocked = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = np.stack([sequential.permutation(N) for _ in range(E)])
        blocked.permuted(np.broadcast_to(np.arange(N), (E, N)), axis=1, out=out)
        assert out.tolist() == expected.tolist()
        assert blocked.bit_generator.state == sequential.bit_generator.state


@pytest.mark.parametrize("interleaved", [False, True])
def test_zero_padded_rows_give_each_member_its_unpadded_bits(interleaved):
    # members of k = 7..17 rows padded with zero rows to K = 17, as a ragged
    # lock-step step would hold them: G^T X_b and W X_b^T of the padded
    # stack give each member the bits of its own unpadded products
    R, K, d, n = 20, 17, 12, 5
    rng = np.random.default_rng(K)
    for _ in range(5):
        k = rng.integers(7, K + 1, R)
        pad = np.arange(K)[None, :] >= k[:, None]  # (R, K): the padded rows
        rows = rng.standard_normal((K, R, d) if interleaved else (R, K, d))
        X = rows.swapaxes(0, 1) if interleaved else rows
        X[pad] = 0.0
        G = rng.standard_normal((R, K, n)) * 10.0 ** rng.integers(-3, 4, (R, K, n))
        G[pad] = 0.0
        W = rng.standard_normal((R, n, d))
        GTX, WXT = np.empty((R, n, d)), np.empty((R, n, K))
        np.matmul(G.swapaxes(1, 2), X, GTX)
        np.matmul(W, X.swapaxes(1, 2), WXT)
        for r in range(R):
            Xr = np.ascontiguousarray(X[r, : k[r]])
            assert GTX[r].tobytes() == (G[r, : k[r]].T @ Xr).tobytes()
            assert WXT[r, :, : k[r]].tobytes() == np.ascontiguousarray(W[r] @ Xr.T).tobytes()


def test_class_major_product_gives_the_transposed_row_major_bits():
    # W X^T against (X W^T)^T at the hinge loop's shape: a detect-linked
    # seed's pools (N = 441, d = 16, n = 7), five members stacked
    R, N, d, n = 5, 441, 16, 7
    rng = np.random.default_rng(3)
    X, W = rng.standard_normal((R, N, d)), rng.standard_normal((R, n, d))
    Zc, Z = np.empty((R, n, N)), np.empty((R, N, n))
    np.matmul(W, X.swapaxes(1, 2), Zc)
    np.matmul(X, W.swapaxes(1, 2), Z)
    assert Zc.tobytes() == np.ascontiguousarray(Z.swapaxes(1, 2)).tobytes()
    for r in range(R):
        assert Zc[r].tobytes() == np.ascontiguousarray((X[r] @ W[r].T).T).tobytes()


@pytest.mark.parametrize("n", range(2, 8))
def test_outer_axis_reductions_add_left_to_right_below_8_classes(n):
    # a class-major (n, M) block reduced over its outer axis gives the max
    # and the left-to-right sum of each column, which are the bits of the
    # contiguous row max and sum of its row-major copy below 8 classes
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, 300)) * 10.0 ** rng.integers(-8, 9, (n, 300))
    total, top = np.empty((1, 300)), np.empty((1, 300))
    np.add.reduce(a, -2, None, total, True)
    np.maximum.reduce(a, -2, None, top, True)
    left_to_right = a[0].copy()
    for row in a[1:]:
        left_to_right += row
    rows = np.ascontiguousarray(a.T)
    assert total[0].tobytes() == left_to_right.tobytes() == rows.sum(axis=-1).tobytes()
    assert top[0].tobytes() == rows.max(axis=-1).tobytes()
