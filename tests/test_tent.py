import itertools
import types

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from bergpoly import InvalidKError, NumeratorTooLargeError
from bergpoly.tent import _dtype, tent, tent_product_over_box

from _reference import tent_coefficients


def test_package_attribute_is_the_module():
    import bergpoly.tent

    assert isinstance(bergpoly.tent, types.ModuleType)
    assert bergpoly.tent.tent_product_over_box is tent_product_over_box


class TestTent:
    @pytest.mark.parametrize(
        "k,r,expected",
        [
            (3, 2, 3),
            (1, 0, 1),
            (5, -1, 0),
            (5, 9, 0),
            (4, 5, 2),
        ],
    )
    def test_examples(self, k, r, expected):
        assert tent(k, r) == expected

    def test_invalid_k(self):
        with pytest.raises(InvalidKError):
            tent(0, 1)
        with pytest.raises(InvalidKError):
            tent_coefficients(-2)

    def test_expansion_small(self):
        assert tent_coefficients(1) == [1]
        assert tent_coefficients(2) == [1, 2, 1]
        assert tent_coefficients(3) == [1, 2, 3, 2, 1]

    def test_matches_expansion_oracle(self):
        for k in range(1, 65):
            coeffs = tent_coefficients(k)
            for r in range(-3, 2 * k + 3):
                expected = coeffs[r] if 0 <= r <= 2 * k - 2 else 0
                assert tent(k, r) == expected

    def test_support(self):
        for k in (1, 2, 5, 9):
            for r in range(-4, 2 * k + 4):
                assert (tent(k, r) == 0) == (r < 0 or r > 2 * k - 2)

    def test_symmetry(self):
        for k in range(1, 65):
            for r in range(-k, 3 * k):
                assert tent(k, r) == tent(k, 2 * k - 2 - r)

    def test_scaling(self):
        # tent(k1*k2, k2*(r+1) - 1) == k2 * tent(k1, r)
        for k1 in range(1, 17):
            for k2 in range(1, 17):
                for r in range(-2 * k1, 4 * k1 + 1):
                    assert tent(k1 * k2, k2 * (r + 1) - 1) == k2 * tent(k1, r)

    def test_peak_and_sum(self):
        for k in range(1, 40):
            assert tent(k, k - 1) == k
            assert sum(tent(k, r) for r in range(0, 2 * k - 1)) == k * k

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10**6), st.integers(-10**7, 10**7))
    def test_nonnegative(self, k, r):
        assert tent(k, r) >= 0


def scalar_products(lower, upper, ks, weights, offsets):
    """Reference: every box point in lexicographic order, evaluated by tent()
    in Python integers, zeros dropped."""
    out = {}
    for v in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(lower, upper))):
        val = 1
        for j, (k, off) in enumerate(zip(ks, offsets)):
            val *= tent(k, off + sum(x * w[j] for x, w in zip(v, weights)))
        if val:
            out[v] = val
    return out


@st.composite
def box_products(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    lower = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    # widths from -1 (an empty box) to 5
    upper = [lo + draw(st.integers(-1, 5)) for lo in lower]
    ks = draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
    weight = st.integers(-3, 3)  # zero and negative weights included
    weights = draw(st.lists(st.lists(weight, min_size=m, max_size=m), min_size=n, max_size=n))
    offsets = draw(st.lists(st.integers(-10, 10), min_size=m, max_size=m))
    # a common scale of ks and offsets keeps the support and pushes the
    # dtype bound past 2**62
    scale = draw(st.sampled_from([1, 2**58, 2**61, 2**64]))
    return lower, upper, [k * scale for k in ks], weights, [o * scale for o in offsets]


class TestBoxProduct:
    @settings(max_examples=400, deadline=None)
    @given(box_products())
    @example(((-1, 0), (2, 3), [3, 2**62], [[1, -2], [0, 1]], [1, 2**62 - 3]))
    @example(((-1, 0), (2, 3), [3, 2], [[1, 0], [-2, 1]], [1, -1]))
    def test_matches_scalar_loop(self, case):
        event(f"dtype {_dtype(*case).__name__}")
        got = tent_product_over_box(*case)
        want = scalar_products(*case)
        assert list(got.items()) == list(want.items())  # order included
        assert all(type(c) is int for v in got for c in v)
        assert all(type(val) is int for val in got.values())

    @pytest.mark.parametrize("c, dtype", [(1, np.int64), (0, object)])
    def test_dtype_edge_argument_bound(self, c, dtype):
        # box R - 2..R + 2 with R = 2**60 - 1, k = 2**60, off = c - R: the
        # argument bound |off| + 2k + (R + 2) |w| is 2**62 - c
        r_mid = 2**60 - 1
        case = ((r_mid - 2,), (r_mid + 2,), [2**60], [[1]], [-(r_mid - c)])
        assert _dtype(*case) is dtype
        assert tent_product_over_box(*case) == {
            (r_mid + d,): d + c + 1 for d in range(-2, 3) if d + c >= 0
        }

    @pytest.mark.parametrize(
        "ks, dtype", [([2**31 - 1, 2**31 + 1], np.int64), ([2**31, 2**31], object)]
    )
    def test_dtype_edge_product_bound(self, ks, dtype):
        # at v = 0 both factors peak at k, and the product is prod k
        case = ((-1,), (1,), ks, [[1, 1]], [k - 1 for k in ks])
        assert _dtype(*case) is dtype
        out = tent_product_over_box(*case)
        assert out[(0,)] == ks[0] * ks[1] and out[(0,)] in (2**62 - 1, 2**62)
        assert out[(1,)] == (ks[0] - 1) * (ks[1] - 1)

    def test_bigint_path(self):
        # k too large for int64 forces the exact scalar path
        k = 2**70
        out = tent_product_over_box((0, 0), (1, 1), [k, k], [[1, 0], [0, 1]], [0, 0])
        assert out[(0, 0)] == 1
        assert out[(1, 1)] == 4

    def test_empty_box(self):
        assert tent_product_over_box((2,), (1,), [3], [[1]], [0]) == {}

    def test_zero_pruning(self):
        out = tent_product_over_box((0,), (10,), [2], [[1]], [-5])
        # only arguments in [0, 2] survive: v in [5, 7]
        assert set(out) == {(5,), (6,), (7,)}

    def test_row_count_past_int64(self):
        # int64 arguments, but four prefixes of 2**61 + 1 points each: the
        # row count passes 2**63, so it is counted exactly and refused
        rows = 4 * (2**61 + 1)
        with pytest.raises(NumeratorTooLargeError, match=f"level 2 of 2, which has {rows} rows"):
            tent_product_over_box((0, 0), (3, 2**61), [3], [[1], [0]], [0])

    def test_weight_of_coordinate_fixed_at_zero(self):
        # the weight moves nothing, however large
        assert tent_product_over_box((0,), (0,), [3], [[2**70]], [1]) == {(0,): 2}
