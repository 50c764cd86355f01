import numpy as np
import pytest

from bergpoly import _backend


def reference_fill(adj_rows, lo, hi):
    """Tiny big-int reference, independent of the production fill."""
    import itertools

    n = len(adj_rows)
    shape = tuple(h - l + 1 for l, h in zip(lo, hi))
    out = np.empty(shape, dtype=object).reshape(-1)
    for idx, m in enumerate(itertools.product(*[range(l, h + 1) for l, h in zip(lo, hi)])):
        y = [sum((m[i] + 1) * adj_rows[i][j] for i in range(n)) for j in range(n)]
        p = 1
        for v in y:
            if v < 1:
                p = 0
                break
            p *= v
        out[idx] = p
    return out.reshape(shape)


ADJ_CASES = [
    ([[1, 1], [0, 1]], (-4, -4), (5, 5)),
    ([[1, 1], [0, 2]], (-3, -2), (6, 4)),
    ([[2, 1, 0], [1, 1, 1], [0, 0, 3]], (-3, -3, -3), (3, 3, 3)),
]


def assert_matches_reference(adj, lo, hi):
    out = _backend.fill_products(adj, lo, hi)
    ref = reference_fill(adj, lo, hi)
    assert out.dtype == np.int64
    assert out.shape == ref.shape
    assert all(int(a) == int(b) for a, b in zip(out.reshape(-1), ref.reshape(-1)))


@pytest.mark.parametrize("adj,lo,hi", ADJ_CASES)
def test_python_matches_reference(adj, lo, hi):
    assert_matches_reference(adj, lo, hi)


def test_41_cubed_box_matches_reference():
    adj, lo, hi = [[2, 1, 0], [1, 1, 1], [0, 0, 3]], (-20, -20, -20), (20, 20, 20)
    assert_matches_reference(adj, lo, hi)


def test_2_by_257_by_257_box_matches_reference():
    # 257^2 points behind each of the two first-axis values
    adj, lo, hi = [[2, 1, 0], [1, 1, 1], [0, 0, 3]], (-1, -128, -128), (0, 128, 128)
    ref = reference_fill(adj, lo, hi)
    out = _backend.fill_products(adj, lo, hi)
    assert out.dtype == np.int64 and out.shape == ref.shape == (2, 257, 257)
    assert np.array_equal(out, ref)


def test_int64_bound_edge():
    below = _backend.fill_products([[2**62 - 1]], (0,), (0,))
    assert below.dtype == np.int64
    assert int(below[0]) == 2**62 - 1
    at = _backend.fill_products([[2**62]], (0,), (0,))
    assert at.dtype == object
    assert at[0] == 2**62


def test_object_path_on_huge_entries():
    big = 2**40
    adj = [[big, 1], [0, big]]
    out = _backend.fill_products(adj, (0, 0), (2, 2))
    assert out.dtype == object
    # m = (1, 2): y = (2 big, 2 + 3 big)
    assert out[1, 2] == (2 * big) * (2 + 3 * big)

