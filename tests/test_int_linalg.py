import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bergpoly import (
    AllZeroRowError,
    IntMatrix,
    MatrixTooLargeError,
    SingularMatrixError,
    UnboundedDomainError,
    adjugate,
    determinant,
    normalize,
    parse_matrix,
    prepare,
    row_gcd,
)

from bergpoly.int_linalg import hermite_rows

from _reference import identity, matmul
from families import normalized_family


def small_matrix(n_values=(2, 3), span=5):
    return st.integers(min_value=min(n_values), max_value=max(n_values)).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-span, span), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ).map(IntMatrix)


class TestDeterminant:
    def test_identity(self):
        assert determinant(identity(2)) == 1

    def test_triangular(self):
        assert determinant(IntMatrix(((1, -1), (0, 1)))) == 1
        assert determinant(IntMatrix(((2, -1), (0, 1)))) == 2

    @settings(max_examples=150, deadline=None)
    @given(small_matrix())
    def test_adjugate_identity(self, m):
        det = determinant(m)
        if not det:
            with pytest.raises(SingularMatrixError):
                adjugate(m)
            return
        prod = matmul(m, adjugate(m))
        assert prod.rows == tuple(tuple(det * (i == j) for j in range(m.n)) for i in range(m.n))

    def test_bareiss_matches_cofactor_on_4x4(self):
        # cofactor expansion as an independent check
        def cofactor_det(rows):
            if len(rows) == 1:
                return rows[0][0]
            total = 0
            for k, x in enumerate(rows[0]):
                minor = [r[:k] + r[k + 1 :] for r in rows[1:]]
                total += (-1) ** k * x * cofactor_det(minor)
            return total

        import random

        rng = random.Random(3)
        for _ in range(25):
            rows = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(4)]
            assert determinant(IntMatrix(rows)) == cofactor_det(rows)


class TestAdjugate:
    def test_identity(self):
        for n in (2, 3, 4):
            assert adjugate(identity(n)) == identity(n)

    def test_2x2(self):
        assert adjugate(IntMatrix(((1, -1), (0, 1)))) == IntMatrix(((1, 1), (0, 1)))

    def test_double_adjugate_3x3(self):
        for m in normalized_family(3, 40, seed=5):
            det = determinant(m)
            twice = adjugate(adjugate(m))
            assert twice.rows == tuple(tuple(det * x for x in r) for r in m.rows)  # (det B)^(n-2) B

    def test_double_adjugate_row_gcd(self):
        for m in normalized_family(3, 25, seed=6):
            det = determinant(m)
            twice = adjugate(adjugate(m))
            for j in range(3):
                assert row_gcd(twice.rows[j]) == det


def cofactor_adjugate(rows):
    """adj(M)[j][k] = (-1)^(j+k) det(M minus row k, col j), each minor by
    Laplace expansion along its first row."""

    def det(a):
        if len(a) == 1:
            return a[0][0]
        return sum(
            (-1) ** k * x * det([r[:k] + r[k + 1 :] for r in a[1:]])
            for k, x in enumerate(a[0])
            if x
        )

    n = len(rows)
    return tuple(
        tuple(
            (-1) ** (j + k) * det([r[:j] + r[j + 1 :] for i, r in enumerate(rows) if i != k])
            for k in range(n)
        )
        for j in range(n)
    )


@st.composite
def adjugate_inputs(draw, min_n=3):
    """n = min_n..6 matrices with entries beyond 2^64, some with zero
    leading entries, which force row swaps."""
    n = draw(st.integers(min_n, 6))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        # a zero top-left block: the first pivots must come from lower rows
        z = draw(st.integers(1, n - 1))
        for i in range(z):
            for j in range(z):
                rows[i][j] = 0
    return rows


class TestAdjugateAgainstCofactors:
    @settings(max_examples=300, deadline=None)
    @given(adjugate_inputs())
    def test_matches_cofactor_expansion(self, rows):
        m = IntMatrix(rows)
        if not determinant(m):
            with pytest.raises(SingularMatrixError):
                adjugate(m)
            return
        adj = adjugate(m)
        assert adj.rows == cofactor_adjugate(rows)
        assert all(type(x) is int for r in adj.rows for x in r)

    def test_pivot_swaps(self):
        rows = [[0, 0, 1], [0, 2, 0], [3, 0, 0]]
        assert adjugate(IntMatrix(rows)).rows == cofactor_adjugate(rows)
        rows = [[0, 1, 2, 3], [0, 0, 1, 5], [4, 0, 0, 1], [1, 1, 1, 0]]
        assert adjugate(IntMatrix(rows)).rows == cofactor_adjugate(rows)

    def test_singular(self):
        # rank 2 of 3: the adjugate is nonzero, but only a regular matrix's
        # is computed
        rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        assert any(x for r in cofactor_adjugate(rows) for x in r)
        with pytest.raises(SingularMatrixError, match="det = 0"):
            adjugate(IntMatrix(rows))


class TestNormalize:
    def test_row_gcd_divided(self):
        nm = normalize(IntMatrix(((2, -2), (0, 1))))
        assert nm.matrix == IntMatrix(((1, -1), (0, 1)))
        assert nm.det == 1

    def test_row_swap_fixes_sign(self):
        nm = normalize(IntMatrix(((0, 1), (1, -1))))
        assert nm.matrix == IntMatrix(((1, -1), (0, 1)))

    def test_already_normalized(self):
        m = IntMatrix(((1, -1), (0, 1)))
        assert normalize(m).matrix == m

    def test_idempotent(self):
        for m in normalized_family(3, 20, seed=8):
            once = normalize(m)
            again = normalize(once.matrix)
            assert once.matrix == again.matrix and once.det == again.det

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            normalize(IntMatrix(((1, 1), (2, 2))))
        with pytest.raises(SingularMatrixError):
            normalize(IntMatrix(((0, 0), (1, 2))))

    def test_carries_adjugate(self):
        for m in normalized_family(4, 20, seed=9):
            assert normalize(m).adj == adjugate(m)

    @settings(max_examples=150, deadline=None)
    @given(adjugate_inputs(min_n=2))
    def test_sign_fix_adjugate(self, rows):
        # det < 0: normalize swaps the last two rows and derives adj of the
        # swapped matrix from adj of the reduced one, adj(PM) = -adj(M) P
        assume(all(any(r) for r in rows))
        det = determinant(IntMatrix(rows))
        assume(det != 0)
        if det > 0:
            rows[0], rows[1] = rows[1], rows[0]
        reduced = [[x // row_gcd(r) for x in r] for r in rows]
        swapped = IntMatrix(reduced[:-2] + [reduced[-1], reduced[-2]])
        nm = normalize(IntMatrix(rows))
        assert nm.matrix == swapped
        assert nm.det == determinant(swapped) > 0
        assert nm.adj == adjugate(swapped)


class TestValidate:
    def test_hartogs_accepted(self):
        vm = prepare(IntMatrix(((1, -1), (0, 1))))
        assert vm.det == 1
        assert vm.adj == IntMatrix(((1, 1), (0, 1)))

    def test_unbounded(self):
        with pytest.raises(UnboundedDomainError, match=r"adjugate entry \(0,1\) is negative"):
            prepare(IntMatrix(((1, 1), (0, 1))))
        # the first negative entry in row-major order is named
        with pytest.raises(UnboundedDomainError, match=r"\(1,2\)"):
            prepare(IntMatrix(((1, 0, 0), (0, 1, 1), (0, 0, 1))))

    def test_polydisc_accepted(self):
        for n in (2, 3, 4):
            vm = prepare(identity(n))
            assert vm.det == 1 and vm.adj == identity(n)


class TestRowGcd:
    @pytest.mark.parametrize(
        "vec,expected", [((2, -4, 6), 2), ((1, -1), 1), ((0, 5), 5)]
    )
    def test_examples(self, vec, expected):
        assert row_gcd(vec) == expected

    def test_all_zero(self):
        with pytest.raises(AllZeroRowError):
            row_gcd((0, 0, 0))


class TestParsing:
    def test_inline(self):
        assert parse_matrix("1 -1 / 0 1") == IntMatrix(((1, -1), (0, 1)))

    def test_lines(self):
        assert parse_matrix("1 -1\n0 1\n") == IntMatrix(((1, -1), (0, 1)))

    def test_json(self):
        assert parse_matrix("[[1, -1], [0, 1]]") == IntMatrix(((1, -1), (0, 1)))

    def test_dimension_cap(self):
        with pytest.raises(MatrixTooLargeError):
            IntMatrix([[1] * 17 for _ in range(17)])

    def test_cap_override(self, monkeypatch):
        # the cap is fixed; the environment variable that once raised it is
        # not read
        monkeypatch.setenv("BERGPOLY_MAX_N", "20")
        with pytest.raises(MatrixTooLargeError, match="n=17 exceeds the cap 16"):
            identity(17)

    def test_cap_holds_for_user_matrices_not_for_derived_ones(self):
        # the 16x16 cyclic (2, -1) matrix sits at the cap and is accepted
        cyclic = [[2 if j == i else -1 if j == (i + 1) % 16 else 0 for j in range(16)]
                  for i in range(16)]
        vm = prepare(parse_matrix("\n".join(" ".join(map(str, r)) for r in cyclic)))
        eye17 = [[int(i == j) for j in range(17)] for i in range(17)]
        for text in (
            " / ".join(" ".join(map(str, r)) for r in eye17),
            "".join(" ".join(map(str, r)) + "\n" for r in eye17),
            str(eye17),
        ):
            with pytest.raises(MatrixTooLargeError):
                parse_matrix(text)
        with pytest.raises(MatrixTooLargeError):
            IntMatrix(eye17)
        # matrices the package derives from an accepted one are not re-capped
        assert prepare(vm.matrix).adj == vm.adj

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            parse_matrix("1 2 3 / 4 5 6")

    def test_rejects_1x1(self):
        with pytest.raises(ValueError):
            IntMatrix(((5,),))


def _det(rows) -> int:
    return rows[0][0] if len(rows) == 1 else determinant(IntMatrix(rows))


def _coordinates(h, v) -> list[int] | None:
    """Integer c with v = c H, for upper triangular H with a nonzero
    diagonal, or None when v is not in the lattice of H's rows."""
    v = list(v)
    c = []
    for k, row in enumerate(h):
        q, r = divmod(v[k], row[k])
        if r:
            return None
        c.append(q)
        v = [x - q * y for x, y in zip(v, row)]
    return c if not any(v) else None


@st.composite
def full_rank_inputs(draw):
    """An m x n integer matrix, n = 1..8, square or with one or two extra
    rows, with entries small or up to 2^70, and its lattice's covolume:
    |det M| or the gcd of its n x n minors."""
    n = draw(st.integers(1, 8))
    m = n + draw(st.sampled_from((0, 0, 1, 2)))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    covolume = math.gcd(*(_det([rows[i] for i in pick])
                          for pick in itertools.combinations(range(m), n)))
    assume(covolume)
    return rows, covolume


class TestHermiteRows:
    @settings(max_examples=60, deadline=None)
    @given(full_rank_inputs())
    def test_same_lattice_triangular_positive_diagonal(self, case):
        rows, covolume = case
        h = hermite_rows(rows)
        n = len(rows[0])
        assert len(h) == n and all(len(r) == n for r in h)
        for i, r in enumerate(h):
            assert r[i] > 0
            assert all(x == 0 for x in r[:i])
            # the entries above each pivot are reduced modulo it
            assert all(0 <= h[k][i] < r[i] for k in range(i))
        # M = V H with V integral: every row of M is in the lattice of H
        assert all(_coordinates(h, r) is not None for r in rows)
        # H = U M with U integral.  For square M, U = H adj(M) / det M; in
        # general the lattice of H contains that of M and has the same
        # covolume (the gcd of M's maximal minors), so the two are equal
        assert math.prod(h[i][i] for i in range(n)) == covolume
        if len(rows) == n and n > 1:
            adj = adjugate(IntMatrix(rows))
            det = determinant(IntMatrix(rows))
            assert abs(det) == covolume
            u = matmul(IntMatrix(h), adj)
            assert all(x % det == 0 for r in u.rows for x in r)

    def test_examples(self):
        assert hermite_rows([[2, -1, 0], [0, 2, -1], [-1, 0, 2]]) == (
            (1, 0, 5), (0, 1, 3), (0, 0, 7))
        assert hermite_rows([[0, 1], [1, 0]]) == ((1, 0), (0, 1))
        assert hermite_rows([[4, 6], [6, 9], [2, 2]]) == ((2, 0), (0, 1))
        assert hermite_rows([[-5]]) == ((5,),)

    @pytest.mark.parametrize("rows", [[[1, 2], [2, 4]], [[1, 2, 3]], [[0, 0], [0, 0], [0, 1]]])
    def test_refuses_deficient_rank_or_too_few_rows(self, rows):
        with pytest.raises(ValueError):
            hermite_rows(rows)
