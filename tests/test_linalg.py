import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recomb import golden
from recomb.linalg import (
    DependentRowsError,
    ModularRankAccumulator,
    _mod,
    det_bareiss,
    hnf_rows,
    hnf_with_transform,
    int_matmul,
    is_lll_reduced,
    lattice_contains,
    lattice_coordinates,
    lattices_equal,
    lll_reduce,
    modular_rank,
    nullspace_lattice,
    rational_span_equal,
    rcf,
    rcf_nullspace,
    sort_vectors_by_norm,
    squared_norm,
    transpose,
)


def random_int_matrix(rnd, m, n, lo=-5, hi=5):
    return [[rnd.randint(lo, hi) for _ in range(n)] for _ in range(m)]


class TestRcf:
    def test_golden_binary(self, E24):
        R = rcf(E24.array.tolist())
        assert R.rank == 6
        assert [[int(x) for x in row] for row in R.rows[:6]] == \
            [list(r) for r in golden.load_matrix("rcf_n2_d4")]

    def test_identity(self):
        eye = np.eye(5, dtype=int).tolist()
        R = rcf(eye)
        assert R.rank == 5
        assert [[int(x) for x in row] for row in R.rows] == eye

    def test_idempotent(self):
        rnd = random.Random(1)
        for _ in range(20):
            M = random_int_matrix(rnd, rnd.randint(1, 6), rnd.randint(1, 6))
            R1 = rcf(M)
            R2 = rcf(R1.rows)
            assert R1.rows == R2.rows and R1.rank == R2.rank

    def test_rational_entries(self):
        M = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3), Fraction(1)]]
        R = rcf(M)
        assert R.rank == 2
        assert R.rows == [[1, 0], [0, 1]]


class TestRcfNullspace:
    def test_golden_binary_sorted(self, E24):
        ns = sort_vectors_by_norm(rcf_nullspace(E24.array.tolist()))
        assert ns == [list(r) for r in golden.load_matrix("nullspace_canonical_n2_d4")]
        assert [squared_norm(v) for v in ns] == \
            golden.scalars()["nullspace_norms_n2_d4"]

    def test_full_column_rank_gives_empty(self):
        assert rcf_nullspace(np.eye(4, dtype=int).tolist()) == []

    def test_scaling_clears_denominators(self):
        # pivot row (1, 1/2) gives raw vector (-1/2, 1) -> scaled (-1, 2)
        M = [[2, 1]]
        assert rcf_nullspace(M) == [[-1, 2]]

    def test_vectors_annihilate(self, E35, E37):
        for E in (E35, E37):
            ns = rcf_nullspace(E.array.tolist())
            if ns:
                prod = E.array @ np.array(ns, dtype=np.int64).T
                assert not prod.any()


class TestHnf:
    def test_golden_binary(self, E24):
        Et = transpose(E24.array.tolist())
        res = hnf_with_transform(Et)
        assert res.rank == 6
        assert res.h[:6] == [list(r) for r in golden.load_matrix("hnf_nonzero_rows_n2_d4")]
        assert all(not any(row) for row in res.h[6:])
        assert int_matmul(res.u, Et) == res.h
        assert abs(det_bareiss(res.u)) == 1

    def test_identity_and_zero(self):
        eye = np.eye(4, dtype=int).tolist()
        res = hnf_with_transform(eye)
        assert res.h == eye and res.u == eye and res.rank == 4
        zero = [[0, 0], [0, 0]]
        res = hnf_with_transform(zero)
        assert res.h == zero and res.rank == 0
        assert abs(det_bareiss(res.u)) == 1

    @staticmethod
    def check_hnf_conditions(h, rank, pivots):
        for i in range(rank):
            j = pivots[i]
            assert h[i][j] >= 1
            assert all(x == 0 for x in h[i][:j])
            for k in range(i):
                assert 0 <= h[k][j] < h[i][j]
        for i in range(rank, len(h)):
            assert not any(h[i])
        assert pivots == sorted(pivots)

    def test_random_matrices(self):
        rnd = random.Random(42)
        for _ in range(40):
            M = random_int_matrix(rnd, rnd.randint(1, 7), rnd.randint(1, 7))
            res = hnf_with_transform(M)
            self.check_hnf_conditions(res.h, res.rank, res.pivots)
            assert int_matmul(res.u, M) == res.h
            assert abs(det_bareiss(res.u)) == 1
            assert res.det_sign == det_bareiss(res.u)
            assert hnf_rows(M) == res.h[:res.rank]


class TestNullspaceLattice:
    def test_binary_shape(self, E24):
        lat = nullspace_lattice(E24.array.tolist())
        assert len(lat) == 9
        assert not (E24.array @ np.array(lat).T).any()

    def test_invertible_empty(self):
        assert nullspace_lattice([[2, 1], [1, 1]]) == []

    def test_rcf_vectors_are_integer_combinations(self, E24):
        lat = nullspace_lattice(E24.array.tolist())
        for v in rcf_nullspace(E24.array.tolist()):
            coords = lattice_coordinates(lat, v)
            assert coords is not None
            rebuilt = [0] * len(v)
            H = hnf_rows(lat)
            for c, row in zip(coords, H):
                rebuilt = [x + c * y for x, y in zip(rebuilt, row)]
            assert rebuilt == list(v)

    def test_membership_negative(self, E24):
        lat = nullspace_lattice(E24.array.tolist())
        outside = [1] + [0] * 14
        assert not lattice_contains(lat, outside)

    def test_rational_span_matches_rcf(self, E24):
        lat = nullspace_lattice(E24.array.tolist())
        assert rational_span_equal(lat, rcf_nullspace(E24.array.tolist()))


class TestLll:
    def test_orthogonal_unchanged(self):
        basis = (4 * np.eye(4, dtype=int)).tolist()
        assert lll_reduce(basis) == basis

    def test_classic_example(self):
        basis = [[1, 1, 1], [-1, 0, 2], [3, 5, 6]]
        red = lll_reduce(basis)
        assert is_lll_reduced(red)
        assert lattices_equal(basis, red)
        # a shortest lattice vector leads; the tail sits at the |mu| = 1/2
        # boundary, where valid reductions differ
        assert red[0] == [0, 1, 0]
        assert squared_norm(red[1]) == 2

    def test_dependent_rows(self):
        with pytest.raises(DependentRowsError):
            lll_reduce([[1, 2], [2, 4]])

    def test_random_lattices(self):
        rnd = random.Random(99)
        for _ in range(25):
            k = rnd.randint(2, 5)
            n = k + rnd.randint(0, 3)
            while True:
                B = random_int_matrix(rnd, k, n, -9, 9)
                try:
                    red = lll_reduce(B)
                    break
                except DependentRowsError:
                    continue
            assert lattices_equal(B, red)
            assert is_lll_reduced(red)
            assert max(squared_norm(v) for v in red) <= \
                max(squared_norm(v) for v in B)

    def test_binary_nullspace_reduction(self, E24):
        lat = nullspace_lattice(E24.array.tolist())
        red = lll_reduce(lat)
        norms = [squared_norm(v) for v in red]
        assert max(norms) <= golden.scalars()["lll_norm_bound_n2_d4"]
        assert lattices_equal(lat, red)
        assert is_lll_reduced(red)


def rank_mod_p(M, p):
    """Rank over F_p by plain Gauss-Jordan on python ints (test oracle)."""
    rows = [[int(x) % p for x in row] for row in M]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def coo(rows):
    """COO triples of a list of integer rows."""
    ri, ci, vi = [], [], []
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x:
                ri.append(i)
                ci.append(j)
                vi.append(x)
    return ri, ci, vi


PRIMES = st.sampled_from([2, 3, 101, 103])


@st.composite
def int_matrices(draw, max_rows=80, max_cols=12):
    """Small integer matrices, sparse or dense, some of low rank."""
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    entry = st.one_of(st.just(0), st.integers(-6, 6))
    if draw(st.booleans()):
        return [draw(st.lists(entry, min_size=n, max_size=n))
                for _ in range(m)]
    k = draw(st.integers(1, 4))
    base = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(k)]
    coeffs = [draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
              for _ in range(m)]
    return [[sum(c * b[j] for c, b in zip(cs, base)) for j in range(n)]
            for cs in coeffs]


def batches(draw, M):
    """Split the rows of M into consecutive batches of random sizes."""
    out, lo = [], 0
    while lo < len(M):
        # small batches merge often; large ones reach the recursive kernel
        hi = lo + draw(st.integers(1, 6) | st.integers(13, 48))
        out.append(M[lo:hi])
        lo = hi
    return out


class TestModularRankAccumulator:
    def test_identity_rows_increment(self):
        acc = ModularRankAccumulator(6, 101)
        ranks = []
        for row in np.eye(6, dtype=int):
            assert acc.add_batch(row) == 1
            ranks.append(acc.rank())
        assert ranks == [1, 2, 3, 4, 5, 6]

    def test_absorbed_vs_new(self):
        acc = ModularRankAccumulator(4, 101)
        assert acc.add_batch([1, 2, 3, 4]) == 1
        assert acc.add_batch([2, 4, 6, 8]) == 0
        assert acc.add_batch([0, 1, 1, 1]) == 1
        assert acc.rank() == 2

    def test_new_pivots_are_cleared_from_earlier_rows(self):
        acc = ModularRankAccumulator(3, 101)
        acc.add_batch([1, 1, 0])
        acc.add_batch([0, 1, 1])
        assert acc.add_batch([1, 0, -1]) == 0    # row 1 - row 2
        assert acc.add_batch([1, 0, 0]) == 1

    def test_matches_exact_rank(self):
        rnd = random.Random(3)
        for _ in range(25):
            M = random_int_matrix(rnd, rnd.randint(1, 8), rnd.randint(1, 8), -4, 4)
            exact = rcf(M).rank
            assert modular_rank(M, 101) == exact
            assert modular_rank(M, 103) == exact

    def test_paths_agree(self):
        rnd = random.Random(8)
        M = random_int_matrix(rnd, 40, 17, -6, 6)
        a1 = ModularRankAccumulator(17, 101)
        a1.add_batch(np.array(M))
        a2 = ModularRankAccumulator(17, 101)
        for row in M:
            a2.add_batch(row)
        a3 = ModularRankAccumulator(17, 101)
        a3.add_sparse_batch(*coo(M), len(M))
        assert a1.rank() == a2.rank() == a3.rank() == rcf(M).rank

    def test_sparse_duplicates_are_summed(self):
        acc = ModularRankAccumulator(3, 101)
        assert acc.add_sparse_batch([0, 0, 0], [1, 1, 2], [1, 100, 5], 1) == 1
        assert acc.add_batch([0, 0, 1]) == 0
        assert acc.add_batch([0, 1, 0]) == 1

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            ModularRankAccumulator(5, 100)

    def test_rejects_rows_of_another_width(self):
        acc = ModularRankAccumulator(3, 101)
        acc.add_batch([1, 0, 0])
        with pytest.raises(ValueError):
            acc.add_batch([0, 1, 0, 1])

    @pytest.mark.parametrize("p", [2, 3, 101, 103, 13036379])
    def test_mod_is_exact_up_to_2_53(self, p):
        # the float quotient can be one off near 2^53; both corrections run
        rnd = random.Random(p)
        top = 2 ** 53 - p
        xs = [rnd.randint(-top, top) for _ in range(2000)]
        xs += [m * p + e for m in range(top // p - 2000, top // p)
               for e in (-1, 0, 1)]
        xs += [-x for x in xs[-3000:]]
        X = np.array(xs, dtype=np.float64)
        assert [int(x) for x in _mod(X, p)] == [x % p for x in xs]

    def test_exactness_guard_bounds_p_squared_width(self):
        # Subtractions are done as a + (p - b) * c with p - b up to p, so a
        # sum of width terms reaches about p^2 * width, not (p-1)^2 * width.
        # Find a prime p with (p-1)^2 * w < 2^53 <= p^2 * w.
        w = 2
        while True:
            p = math.isqrt(-(-2 ** 53 // w) - 1) + 1   # least p, p^2 w >= 2^53
            if all(p % q for q in range(2, math.isqrt(p) + 1)):
                break
            w += 1
        assert (p - 1) ** 2 * w < 2 ** 53
        with pytest.raises(ValueError):
            ModularRankAccumulator(w, p)
        acc = ModularRankAccumulator(w - 1, p)
        rows = [[p - 1] * (w - 1), list(range(1, w))]
        assert acc.add_batch(rows) == rank_mod_p(rows, p)

    @settings(max_examples=60, deadline=None)
    @given(p=PRIMES, M=int_matrices(), data=st.data())
    def test_rank_equals_rank_mod_p(self, p, M, data):
        acc = ModularRankAccumulator(len(M[0]), p)
        for block in batches(data.draw, M):
            if data.draw(st.booleans()):
                acc.add_batch(np.array(block))
            else:
                acc.add_sparse_batch(*coo(block), len(block))
        assert acc.rank() == rank_mod_p(M, p)
        # rank_p never exceeds the rational rank
        assert acc.rank() <= rcf(M).rank

    @settings(max_examples=40, deadline=None)
    @given(p=PRIMES, M=int_matrices(), data=st.data())
    def test_dense_and_sparse_paths_agree(self, p, M, data):
        dense = ModularRankAccumulator(len(M[0]), p)
        sparse = ModularRankAccumulator(len(M[0]), p)
        for block in batches(data.draw, M):
            assert dense.add_batch(np.array(block)) == \
                sparse.add_sparse_batch(*coo(block), len(block))
            assert dense.rank() == sparse.rank()

    @settings(max_examples=60, deadline=None)
    @given(p=PRIMES, M=int_matrices(max_rows=40), data=st.data())
    def test_adds_nothing_exactly_when_in_span(self, p, M, data):
        n = len(M[0])
        acc = ModularRankAccumulator(n, p)
        for block in batches(data.draw, M):
            acc.add_batch(np.array(block))
        if data.draw(st.booleans()):
            cs = data.draw(st.lists(st.integers(-3, 3), min_size=len(M),
                                    max_size=len(M)))
            v = [sum(c * row[j] for c, row in zip(cs, M)) for j in range(n)]
        else:
            v = data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
        grows = rank_mod_p(M + [v], p) > rank_mod_p(M, p)
        assert acc.add_batch(v) == int(grows)


class TestSortVectors:
    def test_tie_break_is_lexicographic(self):
        vs = [[2, -1, -1, 0], [-1, 0, 2, -1]]
        assert sort_vectors_by_norm(vs) == [[-1, 0, 2, -1], [2, -1, -1, 0]]


class TestIntMatmul:
    def test_big_entries_fall_back_exactly(self):
        big = 2 ** 40
        A = [[big, 1], [0, big]]
        B = [[big, 0], [1, big]]
        out = int_matmul(A, B)
        assert out == [[big * big + 1, big], [big, big * big]]
