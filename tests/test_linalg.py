import hashlib
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_oracles as ref
from linalg_oracles import is_lll_reduced, rational_span_equal
from recomb import build_expansion_matrix, golden, linalg, symmetric
from recomb.identities import generator_sieve, single_generator
from recomb.linalg import (
    _FLOAT32_MIN_TERMS,
    DependentRowsError,
    ModularRankAccumulator,
    _int_matrix,
    _lincomb,
    _matmul,
    _mod,
    hnf_rows,
    hnf_with_transform,
    int_matmul,
    lattices_equal,
    lll_reduce,
    nullspace_lattice,
    rcf,
    rcf_nullspace,
    sort_vectors_by_norm,
    squared_norm,
)
from recomb.monomials import get_context


def random_int_matrix(rnd, m, n, lo=-5, hi=5):
    return [[rnd.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def unimodular(U) -> bool:
    """A square integer U is unimodular iff its rows generate Z^m."""
    return lattices_equal(U, np.eye(len(U), dtype=np.int64))


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

    @pytest.mark.parametrize("chunk", [1, 3 * 280 + 1])
    @pytest.mark.parametrize("M", ["E37", [[2 ** 70, 3, 5, 1, 0],
                                          [1, 2 ** 65, 7, 0, 2]]],
                             ids=["E37", "python_ints"])
    def test_rows_built_in_blocks_are_the_whole_basis(self, monkeypatch,
                                                      E37, M, chunk):
        # one row per block, then three with a shorter last block at (3,7)
        if M == "E37":
            M = E37.subset_rows
        want = rcf_nullspace(M)
        monkeypatch.setattr(linalg, "_CHUNK", chunk)
        assert rcf_nullspace(M) == want
        assert not (np.array(M, dtype=object) @
                    np.array(want, dtype=object).T).any()

    def test_holds_the_rows_and_one_block(self, monkeypatch):
        # (2,6): 930 vectors of 945 entries, built as lists (8 bytes an
        # entry) 69 rows at a time; an n x k int64 array beside the lists
        # held 16
        monkeypatch.setattr(linalg, "_CHUNK", 1 << 16)
        S = build_expansion_matrix(2, 6).subset_rows
        tracemalloc.start()
        try:
            ns = rcf_nullspace(S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(ns), len(ns[0])) == (930, 945)
        assert peak < 12 * 930 * 945

    def test_vectors_annihilate(self, E35, E37):
        for E in (E35, E37):
            ns = rcf_nullspace(E.array.tolist())
            if ns:
                prod = E.array @ np.array(ns, dtype=np.int64).T
                assert not prod.any()


class TestHnf:
    def test_golden_binary(self, E24):
        Et = E24.array.T.tolist()
        res = hnf_with_transform(Et)
        assert res.rank == 6
        assert res.h[:6] == [list(r) for r in golden.load_matrix("hnf_nonzero_rows_n2_d4")]
        assert all(not any(row) for row in res.h[6:])
        assert int_matmul(res.u, Et) == res.h
        assert unimodular(res.u)

    def test_identity_and_zero(self):
        eye = np.eye(4, dtype=int).tolist()
        res = hnf_with_transform(eye)
        assert res.h == eye and res.u == eye and res.rank == 4
        zero = [[0, 0], [0, 0]]
        res = hnf_with_transform(zero)
        assert res.h == zero and res.rank == 0
        assert unimodular(res.u)

    def test_unimodular_check(self, E24):
        assert unimodular(np.eye(5, dtype=np.int64))
        U = hnf_with_transform(E24.array.T).u
        assert unimodular(U)
        doubled = np.array(U)
        doubled[3] *= 2
        assert not unimodular(doubled)
        singular = np.array(U)
        singular[3] = singular[0] + singular[1]
        assert not unimodular(singular)

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
            assert unimodular(res.u)
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
        vs = rcf_nullspace(E24.array.tolist())
        assert lattices_equal(lat, lat + vs)

    def test_membership_negative(self, E24):
        lat = nullspace_lattice(E24.array.tolist())
        outside = [1] + [0] * 14
        assert not lattices_equal(lat, lat + [outside])

    def test_rational_span_matches_rcf(self, E24):
        lat = nullspace_lattice(E24.array.tolist())
        assert rational_span_equal(lat, rcf_nullspace(E24.array.tolist()))


class TestLatticesEqual:
    @pytest.mark.parametrize("factor", [2, 3])
    def test_sublattice_of_index_2_or_3_differs(self, deg7_bases, factor):
        # same rank and row count, one row doubled or tripled: a shortcut
        # that compared only ranks, row counts or pivot columns would say
        # equal
        _, lat, red = deg7_bases
        rnd = random.Random(factor)
        M = random_int_matrix(rnd, 12, 15, -9, 9)
        for A in (lat, red, M):
            B = [list(row) for row in A]
            i = rnd.randrange(len(B))
            B[i] = [factor * x for x in B[i]]
            assert len(hnf_rows(B)) == len(A)
            assert not lattices_equal(A, B)
            assert not lattices_equal(B, A)
        assert lattices_equal(M, M[::-1])


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

    def test_single_zero_row_is_dependent(self):
        for reduce in (lll_reduce, ref.lll_reduce):
            with pytest.raises(DependentRowsError):
                reduce([[0, 0]])
            assert reduce([[0, -3]]) == [[0, -3]]
            assert reduce([]) == []

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

    def test_the_basis_is_read_once(self, monkeypatch, deg7_bases):
        # lll_reduce reads the (3,7) lattice into one integer array, which
        # _lll_initialize only reads
        real, shapes = linalg._int_matrix, []

        def spy(M):
            A = real(M)
            shapes.append(A.shape)
            return A

        monkeypatch.setattr(linalg, "_int_matrix", spy)
        assert lll_reduce(deg7_bases[1]) == deg7_bases[2]
        assert shapes.count((245, 280)) == 1

    def test_binary_nullspace_reduction(self, E24):
        lat = nullspace_lattice(E24.array.tolist())
        red = lll_reduce(lat)
        norms = [squared_norm(v) for v in red]
        assert len(red) == 9
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


def add_dense(acc, rows):
    """Add dense integer rows (one row, or a list or array of rows)."""
    return acc.add_rows(np.arange(acc.width), rows)


def sparse_rows(rows, rnd):
    """(columns, coefficients) of integer rows for add_rows.

    Each row's nonzeros come in a random order, some split in two entries
    at one column, and the rows are padded with zero coefficients at
    random columns.
    """
    width = len(rows[0])
    entries = []
    for row in rows:
        e = []
        for j, x in enumerate(row):
            if x:
                y = rnd.randint(-3, 3)
                e += [(j, x - y), (j, y)] if rnd.random() < 0.3 else [(j, x)]
        rnd.shuffle(e)
        entries.append(e)
    t = 1 + max(len(e) for e in entries)
    for e in entries:
        e += [(rnd.randrange(width), 0) for _ in range(t - len(e))]
    return np.array(entries).transpose(2, 0, 1)


# 509 is the largest prime run in float32, where every sum takes K = 64
# terms, the fewest float32 runs with; 521 is the smallest run in float64,
# and 4093 ran in float32 at K = 1 before that floor
PRIMES = st.sampled_from([2, 3, 101, 103, 509, 521, 4093, 4099])


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


class TestBlas:
    # With _THREAD_TERMS = 1000 and k * n = 200, a tile holds 5 rows
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m, k, n, calls", [
        (50, 10, 20, 10),           # narrow: ten tiles of 5 rows
        (6, 10, 20, 2),             # one row past the bound: 5 + 1
        (5, 10, 20, 1),             # at the bound: whole
        (None, 10, 20, 1),          # vector-matrix: whole
        (None, 10, 200, 1),
        (50, 1, linalg._NARROW, 50),         # narrowest: one row a tile
        (50, 1, linalg._NARROW + 1, 1),     # wide right factor: whole
        (50, 10, 200, 1),           # one row takes 2000: whole
        (0, 10, 20, 1),             # empty shapes
        (50, 0, 20, 1),
        (50, 10, 0, 1),
        (None, 0, 20, 1),
    ])
    def test_equals_the_plain_product(self, monkeypatch, dtype, m, k, n,
                                      calls):
        monkeypatch.setattr(linalg, "_THREAD_TERMS", 1000)
        seen = []
        real = np.matmul
        monkeypatch.setattr(linalg.np, "matmul", lambda *a, **kw:
                            seen.append(a[0].shape) or real(*a, **kw))
        rnd = np.random.default_rng(k * n + (m or 0))
        A = rnd.integers(0, 101, (k,) if m is None else (m, k)).astype(dtype)
        B = rnd.integers(0, 101, (k, n)).astype(dtype)
        want = A @ B
        got = linalg._blas(A, B)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert len(seen) == calls
        out = np.full(want.shape, -1, dtype=dtype)
        assert linalg._blas(A, B, out=out) is out
        assert np.array_equal(out, want)

    def test_products_of_the_engine_use_it(self, monkeypatch):
        # the echelon kernel, the merge and _matmul_mod all reach _blas
        seen = []
        real = linalg._blas
        monkeypatch.setattr(linalg, "_blas", lambda A, B, out=None:
                            seen.append(A.ndim) or real(A, B, out))
        rnd = np.random.default_rng(1)
        acc = ModularRankAccumulator(40, 101)
        add_dense(acc, rnd.integers(0, 101, (10, 40)))
        add_dense(acc, rnd.integers(0, 101, (30, 40)))
        assert acc.rank() == 40
        assert 1 in seen and 2 in seen
        A, B = rnd.integers(0, 101, (3, 2000)), rnd.integers(0, 101, (2000, 4))
        del seen[:]
        got = linalg._matmul_mod(A.astype(np.float32), B.astype(np.float32),
                                 101)
        assert np.array_equal(got, A @ B % 101)
        assert len(seen) == 2           # K = 1644 terms per sum


class TestResidues:
    # one format: whatever the input, residues of _residue_type(p)'s dtype
    @pytest.mark.parametrize("p, dtype", [(101, np.float32),
                                          (521, np.float64),
                                          (94906249, np.float64)])
    @pytest.mark.parametrize("x", [
        np.array([[-1, 0, 7], [2 ** 40, -(2 ** 40), 10 ** 17]]),
        np.array([[-1, 0, 7], [2 ** 40, -(2 ** 40), 10 ** 100]],
                 dtype=object),
        [[-1.0, 0.0, 7.0], [2.0 ** 40, -(2.0 ** 40), 2.0 ** 80]],
    ], ids=["int64", "big_int_object", "float_list"])
    def test_dtype_follows_from_p(self, x, p, dtype):
        before = np.array(x, dtype=object)
        got = linalg._residues(x, p)
        assert got.dtype == dtype and got.shape == (2, 3)
        want = [[int(v) % p for v in row] for row in before]
        assert got.tolist() == want
        # the caller's array is left as it was
        assert np.array(x, dtype=object).tolist() == before.tolist()

    @pytest.mark.parametrize("p", [101, 521])
    def test_non_integral_entries_are_refused(self, p):
        with pytest.raises(ValueError, match="non-integral"):
            linalg._residues([[1, 0.5]], p)
        with pytest.raises(ValueError, match="non-integral"):
            linalg._residues(np.array([0.5, 1.0]), p)


class TestModularRankAccumulator:
    def test_float_residues_of_its_dtype_go_in_as_they_are(self,
                                                            monkeypatch):
        acc = ModularRankAccumulator(3, 101)
        seen = []
        real = linalg._residues
        monkeypatch.setattr(linalg, "_residues", lambda x, p:
                            seen.append(x) or real(x, p))
        row = np.array([[1, 2, 3]], dtype=np.float32)
        assert acc.add_rows([0, 1, 2], row) == 1
        assert seen == []
        # entries past p, or of another dtype, are reduced as before
        past_p = (row + [[101, 0, 202]]).astype(np.float32)
        assert acc.add_rows([0, 1, 2], past_p) == 0
        assert acc.add_rows([0, 1, 2], np.array([[2.0, 4.0, 6.0]])) == 0
        assert acc.add_rows([0, 1, 2], np.array([[-1, 99, 98]],
                                                dtype=np.float32)) == 0
        assert len(seen) == 3
        assert acc.add_rows([0, 1, 2], [[0, 0, 1]]) == 1
        with pytest.raises(ValueError, match="non-integral"):
            acc.add_rows([0, 1, 2], np.array([[0.5, 1, 2]], dtype=np.float32))
        with pytest.raises(ValueError, match="columns"):
            acc.add_rows([0, 1, 3], row)

    def test_identity_rows_increment(self):
        acc = ModularRankAccumulator(6, 101)
        ranks = []
        for row in np.eye(6, dtype=int):
            assert add_dense(acc, row) == 1
            ranks.append(acc.rank())
        assert ranks == [1, 2, 3, 4, 5, 6]

    def test_absorbed_vs_new(self):
        acc = ModularRankAccumulator(4, 101)
        assert add_dense(acc, [1, 2, 3, 4]) == 1
        assert add_dense(acc, [2, 4, 6, 8]) == 0
        assert add_dense(acc, [0, 1, 1, 1]) == 1
        assert acc.rank() == 2

    def test_new_pivots_are_cleared_from_earlier_rows(self):
        acc = ModularRankAccumulator(3, 101)
        add_dense(acc, [1, 1, 0])
        add_dense(acc, [0, 1, 1])
        assert add_dense(acc, [1, 0, -1]) == 0    # row 1 - row 2
        assert add_dense(acc, [1, 0, 0]) == 1

    def test_matches_exact_rank(self):
        rnd = random.Random(3)
        for _ in range(25):
            M = random_int_matrix(rnd, rnd.randint(1, 8), rnd.randint(1, 8), -4, 4)
            exact = rcf(M).rank
            for p in (101, 103):
                acc = ModularRankAccumulator(len(M[0]), p)
                add_dense(acc, M)
                assert acc.rank() == exact

    @pytest.mark.parametrize("p", [101, 4099])
    def test_kernel_and_pivots(self, p):
        rnd = random.Random(p)
        for _ in range(20):
            M = np.array(random_int_matrix(rnd, rnd.randint(1, 9),
                                           rnd.randint(1, 9), -4, 4))
            acc = ModularRankAccumulator(M.shape[1], p)
            add_dense(acc, M)
            K = acc.kernel()
            assert K.shape == (M.shape[1], M.shape[1] - acc.rank())
            assert not (M @ K % p).any()
            # kernel columns are independent: 1 on their own free column
            piv = acc.pivots
            free = np.setdiff1d(np.arange(M.shape[1]), piv)
            assert (K[free] == np.eye(len(free), dtype=np.int64)).all()
            assert len(set(piv.tolist())) == acc.rank()
            with pytest.raises(ValueError):
                piv[:1] = 0

    def test_paths_agree(self):
        rnd = random.Random(8)
        M = random_int_matrix(rnd, 40, 17, -6, 6)
        a1 = ModularRankAccumulator(17, 101)
        add_dense(a1, M)
        a2 = ModularRankAccumulator(17, 101)
        for row in M:
            add_dense(a2, row)
        a3 = ModularRankAccumulator(17, 101)
        a3.add_rows(*sparse_rows(M, rnd))
        assert a1.rank() == a2.rank() == a3.rank() == rcf(M).rank

    def test_sparse_duplicates_are_summed(self):
        acc = ModularRankAccumulator(3, 101)
        assert acc.add_rows([1, 1, 2], [1, 100, 5]) == 1
        assert acc.add_rows(2, 1) == 0
        assert acc.add_rows(1, 1) == 1

    @pytest.mark.parametrize("big", [2 ** 60 + 1, 2 ** 62 - 57,
                                     np.int64(2 ** 62 + 3), 2 ** 63 + 1,
                                     2 ** 64 + 7, -2 ** 70 - 1])
    def test_integer_coefficients_are_reduced_exactly(self, big):
        # a float64 cast before the reduction rounds integers above 2^53,
        # and the same row given by its residues would then add a pivot
        p = 101
        for rows in ([big, 1], [[big, 1], [big, 1]],
                     np.array([[big, 1]], dtype=object)):
            acc = ModularRankAccumulator(2, p)
            assert acc.add_rows([0, 1], rows) >= 1
            assert acc.add_rows([0, 1], [int(big) % p, 1]) == 0

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            ModularRankAccumulator(5, 100)

    def test_size_is_checked_before_primality(self, monkeypatch):
        # trial division of 2^61 - 1, a prime, would run for minutes
        def unreachable(p):
            raise AssertionError("primality tested before the size bound")

        monkeypatch.setattr(linalg, "_is_prime", unreachable)
        p = 2 ** 61 - 1
        with pytest.raises(ValueError, match=f"p = {p} is too large: ranks "
                                             r"mod p need p\^2 < 2\^53"):
            ModularRankAccumulator(84, p)

    def test_rejects_rows_of_another_width(self):
        acc = ModularRankAccumulator(3, 101)
        add_dense(acc, [1, 0, 0])
        with pytest.raises(ValueError):
            acc.add_rows(np.arange(4), [0, 1, 0, 1])
        assert acc.rank() == 1

    def test_rejects_negative_columns(self):
        # without the check, column -1 would wrap round to column 2
        acc = ModularRankAccumulator(3, 101)
        with pytest.raises(ValueError):
            acc.add_rows([[0, -1]], [[1, 1]])
        assert acc.rank() == 0

    @pytest.mark.parametrize("p", [2, 3, 101, 103, 13036379])
    def test_mod_is_exact_up_to_2_53(self, p):
        # near 2^53 half an ulp of x / p comes closest to 1/p; the multiples
        # of p and their neighbours are the quotients nearest an integer
        rnd = random.Random(p)
        top = 2 ** 53 - p
        xs = [rnd.randint(-top, top) for _ in range(2000)]
        xs += [m * p + e for m in range(top // p - 2000, top // p)
               for e in (-1, 0, 1)]
        xs += [-x for x in xs[-3000:]]
        X = np.array(xs, dtype=np.float64)
        assert [int(x) for x in _mod(X, p)] == [x % p for x in xs]

    def test_mod_takes_one_prime_per_row(self):
        # the stacked Gram-Schmidt elimination reduces row s mod P[s]; rows
        # of 20000 go three to a block, so the blocks cut the primes apart
        rnd = random.Random(21)
        P = np.array([2097143, 2097133, 101, 3, 2, 13036379, 4093])
        top = 2 ** 53 - int(P.max())
        xs = [[rnd.randint(-top, top) for _ in range(20000)] for _ in P]
        X = np.array(xs, dtype=np.float64)
        _mod(X, P[:, None])
        assert X.tolist() == [[x % int(p) for x in row]
                              for row, p in zip(xs, P)]

    @pytest.mark.parametrize("p", [2, 3, 101, 103, 4093])
    def test_mod_is_exact_up_to_2_24_in_float32(self, p):
        # near 2^24 half an ulp of x / p comes closest to 1/p; the multiples
        # of p and their neighbours are the quotients nearest an integer
        rnd = random.Random(p)
        top = 2 ** 24 - p
        xs = [rnd.randint(-top, top) for _ in range(2000)]
        xs += [m * p + e for m in range(top // p - 2000, top // p)
               for e in (-1, 0, 1)]
        xs += [-x for x in xs[-3000:]]
        X = np.array(xs, dtype=np.float32)
        assert _mod(X, p).dtype == np.float32
        assert [int(x) for x in X] == [x % p for x in xs]

    @pytest.mark.parametrize("p", [3, 101, 4093])
    def test_mod_is_exact_on_every_float32_integer_in_range(self, p):
        # q = floor(x / p) with no correction step, checked on every integer
        # |x| <= 2^24 - p, in blocks to keep the arrays small
        top, step = 2 ** 24 - p, 1 << 22
        for lo in range(-top, top + 1, step):
            xs = np.arange(lo, min(lo + step, top + 1), dtype=np.int64)
            X = xs.astype(np.float32)
            _mod(X, p)
            assert np.array_equal(X, xs % p)

    @pytest.mark.parametrize("p, dtype, k", [
        (101, np.float32, 1644),
        (103, np.float32, 1581),
        (509, np.float32, 64),
        (521, np.float64, (2 ** 53 - 521) // 521 ** 2),
        (4093, np.float64, (2 ** 53 - 4093) // 4093 ** 2),
        (4099, np.float64, (2 ** 53 - 4099) // 4099 ** 2),
        (94906249, np.float64, 1),
    ])
    def test_dtype_and_terms_per_sum_follow_from_p(self, p, dtype, k):
        # one rule, _residue_type, for the accumulator and the module engine
        assert linalg._residue_type(p) == (dtype, k)
        acc = ModularRankAccumulator(8, p)
        assert (acc._dtype, acc._k) == (dtype, k)
        diag, _, off = symmetric._seminormal((3, 2), p)
        assert diag.dtype == off.dtype == dtype
        ctx = get_context(2, 4)
        [B] = symmetric.irreducibles(ctx, p).blocks([ctx.vector_of(
            golden.load_identity("binary_recombination"))])
        assert B.dtype == dtype
        # K terms below p^2 and one residue stay in _mod's exact range
        exact = 2 ** (np.finfo(dtype).nmant + 1)
        assert k * p * p + p <= exact < (k + 1) * p * p + p
        # float32 exactly when its K reaches the floor
        k32 = (2 ** 24 - p) // (p * p)
        assert (dtype == np.float32) == (k32 >= _FLOAT32_MIN_TERMS)

    def test_merge_of_more_than_k_pivots_is_exact(self):
        # h is 99 at the 2000 columns the batch makes pivots, so clearing
        # them from h sums 2000 terms 99 * (101 - B[j, c]) near 10^4, many
        # odd, past 2^24: exact only when the batch goes in at most K = 1644
        # rows at a time
        p, n, m = 101, 2000, 1000
        rnd = np.random.default_rng(5)
        h = np.zeros(1 + n + m, dtype=np.int64)
        h[0], h[1:n + 1] = 1, 99
        B = np.hstack([np.zeros((n, 1), dtype=np.int64),
                       np.eye(n, dtype=np.int64),
                       rnd.integers(0, 4, (n, m))])
        acc = ModularRankAccumulator(1 + n + m, p)
        assert add_dense(acc, h) == 1
        assert add_dense(acc, B) == n
        assert add_dense(acc, (3 * h + B.sum(axis=0)) % p) == 0
        assert add_dense(acc, rnd.integers(0, p, 1 + n + m)) == 1

    @pytest.mark.parametrize("sparse", [False, True])
    def test_reduction_by_more_than_k_pivots_is_exact(self, sparse):
        # 2 * (sum of the rows [e_j | D_j]) reduces by 2000 terms 99 * D_j
        # near 10^4, past 2^24: exact only when the row's pivot entries go
        # in slabs of at most K = 1644, reduced mod p in between. The sparse
        # form gives the row's nonzeros shuffled, some split in two entries,
        # so the slabs cut the pivot entries in another order.
        p, r, m = 101, 2000, 1400
        rnd = np.random.default_rng(6)
        M = np.hstack([np.eye(r, dtype=np.int64), rnd.integers(95, p, (r, m))])
        acc = ModularRankAccumulator(r + m, p)
        assert add_dense(acc, M) == r

        def add(v):
            if sparse:
                return acc.add_rows(*sparse_rows([v.tolist()],
                                                 random.Random(6)))
            return add_dense(acc, v)

        assert add(2 * M.sum(axis=0)) == 0
        assert add(rnd.integers(0, p, r + m)) == 1

    @pytest.mark.parametrize("sparse", [False, True])
    def test_exact_at_the_largest_prime_past_any_width(self, sparse):
        # Subtractions are done as a + (p - b) * c with p - b up to p, so a
        # term reaches p^2 - p.  At the largest prime with p^2 < 2^53, K = 1:
        # rows go in one at a time and entries one per slab, so the ranks
        # stay exact at widths where p^2 * width passes 2^53 many times over
        p = 94906249
        top = math.isqrt(2 ** 53 - 1)      # largest integer with top^2 < 2^53
        assert [q for q in range(p, top + 1) if linalg._is_prime(q)] == [p]
        rnd = random.Random(p)
        for w in (2, 5, 40):
            rows = [[p - 1] * w, list(range(1, w + 1))]
            rows += [[rnd.choice([0, 1, p - 1, rnd.randrange(p)])
                      for _ in range(w)] for _ in range(w // 2 + 1)]
            rows.append([(a + (p - 1) * b) % p
                         for a, b in zip(rows[-1], rows[-2])])
            acc = ModularRankAccumulator(w, p)
            assert acc._k == 1
            if sparse:
                acc.add_rows(*sparse_rows(rows, rnd))
            else:
                add_dense(acc, rows)
            assert acc.rank() == rank_mod_p(rows, p)
            assert not (np.array(rows, dtype=object) @ acc.kernel() % p).any()

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("seeded", [False, True])
    @pytest.mark.parametrize("case", ["spanning", "deficient", "last"])
    @pytest.mark.parametrize("p", [3, 101, 4099])
    def test_tall_block_whose_first_rows_span_it(self, p, case, seeded,
                                                 sparse):
        # 200 rows over 8 columns in one block, which the echelon kernel
        # halves down to a first base case of 12 rows.  "spanning": 8
        # independent rows, then combinations of them, so that base case
        # pivots every column by its eighth row and stops, and each first
        # half above it spans its block, which returns without the second
        # half.  "deficient": 6 independent rows and their combinations,
        # where neither ever happens.  "last": the eighth independent row
        # comes last, so every first half lacks one pivot.  Seeded, the
        # accumulator holds two of the rows first, so the block pivots
        # every free column instead of every column
        rnd = np.random.default_rng(p)
        w, r = 8, 6 if case == "deficient" else 8
        L = np.tril(rnd.integers(-3, 4, (r, r)), -1) + np.eye(r, dtype=int)
        B = L @ np.hstack([np.eye(r, dtype=int),
                           rnd.integers(-5, 6, (r, w - r))])
        B = B[:, rnd.permutation(w)]
        head = B[:-1] if case == "last" else B
        M = np.vstack([head, rnd.integers(-3, 4, (200 - r, len(head))) @ head,
                       B[len(head):]])
        acc = ModularRankAccumulator(w, p)
        if seeded:
            add_dense(acc, B[[4, 0]])
        if sparse:
            acc.add_rows(*sparse_rows(M.tolist(), random.Random(p)))
        else:
            add_dense(acc, M)
        assert acc.rank() == rank_mod_p(M.tolist(), p) == r
        assert not (M @ acc.kernel() % p).any()

    @settings(max_examples=60, deadline=None)
    @given(p=PRIMES, M=int_matrices(), data=st.data())
    def test_rank_equals_rank_mod_p(self, p, M, data):
        acc = ModularRankAccumulator(len(M[0]), p)
        rnd = random.Random(data.draw(st.integers(0, 2 ** 32)))
        for block in batches(data.draw, M):
            if data.draw(st.booleans()):
                add_dense(acc, block)
            else:
                acc.add_rows(*sparse_rows(block, rnd))
        assert acc.rank() == rank_mod_p(M, p)
        # rank_p never exceeds the rational rank
        assert acc.rank() <= rcf(M).rank

    @settings(max_examples=60, deadline=None)
    @given(p=PRIMES, M=int_matrices(max_rows=40), data=st.data())
    def test_adds_nothing_exactly_when_in_span(self, p, M, data):
        n = len(M[0])
        acc = ModularRankAccumulator(n, p)
        for block in batches(data.draw, M):
            add_dense(acc, block)
        if data.draw(st.booleans()):
            cs = data.draw(st.lists(st.integers(-3, 3), min_size=len(M),
                                    max_size=len(M)))
            v = [sum(c * row[j] for c, row in zip(cs, M)) for j in range(n)]
        else:
            v = data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
        grows = rank_mod_p(M + [v], p) > rank_mod_p(M, p)
        assert add_dense(acc, v) == int(grows)


@st.composite
def kernel_matrices(draw):
    """Small integer matrices for the exact kernels, some of low rank.

    Entries up to 6 stay in int64; 8 x 10 blocks with entries up to 60 make
    the HNF and RCF entries outgrow int64 midway; entries of about 2^40
    overflow the first product.
    """
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 10))
    entry = draw(st.sampled_from([
        st.integers(-6, 6),
        st.integers(-60, 60),
        st.builds(lambda hi, lo: hi * 2 ** 40 + lo,
                  st.integers(-3, 3), st.integers(-6, 6)),
    ]))
    zeros = draw(st.sampled_from([1, 4]))
    entry = st.one_of(*[st.just(0)] * zeros, entry)
    if draw(st.booleans()):
        return [draw(st.lists(entry, min_size=n, max_size=n))
                for _ in range(m)]
    k = draw(st.integers(1, 3))
    base = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(k)]
    coeffs = [draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
              for _ in range(m)]
    return [[sum(c * b[j] for c, b in zip(cs, base)) for j in range(n)]
            for cs in coeffs]


def initialize(M):
    """_lll_initialize of M, read as lll_reduce reads it."""
    return linalg._lll_initialize(_int_matrix(M))


def lll_or_error(reduce, M):
    try:
        return reduce(M)
    except DependentRowsError:
        return DependentRowsError


class TestKernelsMatchReference:
    """The numpy kernels return exactly what the list code returns."""

    @settings(max_examples=150, deadline=None)
    @given(M=kernel_matrices())
    def test_rcf(self, M):
        R = rcf(M)
        assert R == ref.rcf(M)
        assert all(type(x) is Fraction for row in R.rows for x in row)

    @settings(max_examples=60, deadline=None)
    @given(M=kernel_matrices(), data=st.data())
    def test_rcf_of_rational_rows(self, M, data):
        dens = data.draw(st.lists(st.integers(1, 12), min_size=len(M),
                                  max_size=len(M)))
        Q = [[Fraction(x, q) for x in row] for row, q in zip(M, dens)]
        assert rcf(Q) == ref.rcf(Q)

    @settings(max_examples=150, deadline=None)
    @given(M=kernel_matrices())
    def test_rcf_nullspace(self, M):
        assert rcf_nullspace(M) == ref.rcf_nullspace(M)

    @settings(max_examples=150, deadline=None)
    @given(M=kernel_matrices())
    def test_hnf_with_transform(self, M):
        res, want = hnf_with_transform(M), ref.hnf_with_transform(M)
        assert res == want

    @settings(max_examples=150, deadline=None)
    @given(M=kernel_matrices())
    def test_hnf_rows(self, M):
        assert hnf_rows(M) == ref.hnf_rows(M)

    @settings(max_examples=150, deadline=None)
    @given(M=kernel_matrices())
    def test_lll_reduce(self, M):
        assert lll_or_error(lll_reduce, M) == lll_or_error(ref.lll_reduce, M)

    def test_hnf_rows_placing_pivots_out_of_column_order(self):
        # sparse rows sorted so that each leads left of the rows before it:
        # every new pivot row must be cleared at the unit pivots right of it
        rnd = random.Random(5)
        for _ in range(200):
            n = rnd.randint(2, 9)
            M = [[rnd.choice([0, 0, 0, rnd.randint(-6, 6)]) for _ in range(n)]
                 for _ in range(rnd.randint(2, 7))]
            M.sort(key=lambda row: next((j for j, x in enumerate(row) if x),
                                        -1), reverse=True)
            assert hnf_rows(M) == ref.hnf_rows(M)

    def test_explosive_blocks_widen_midway(self, monkeypatch):
        # entries up to 60 in 8 x 10 blocks: the fraction-free RCF and both
        # HNFs outgrow int64 before their results shrink back into it
        widened = []
        put = linalg._put

        def spy(A, idx, X):
            widened.append(A.dtype != object and X.dtype == object)
            return put(A, idx, X)

        monkeypatch.setattr(linalg, "_put", spy)
        rnd = random.Random(60)
        blocks = [random_int_matrix(rnd, 8, 10, -60, 60) for _ in range(5)]
        for kernel in (rcf, rcf_nullspace, hnf_with_transform, hnf_rows):
            widened.clear()
            for M in blocks:
                assert kernel(M) == getattr(ref, kernel.__name__)(M)
            assert any(widened)

    def test_lll_rows_widen_midway(self, monkeypatch):
        # entries up to 2^62 fit int64, but b_i - q b_j may not: after the
        # small rows' int64 steps, a row step widens the basis to Python ints
        widened = []
        put = linalg._put

        def spy(A, idx, X):
            widened.append(A.dtype != object and X.dtype == object)
            return put(A, idx, X)

        monkeypatch.setattr(linalg, "_put", spy)
        rnd = random.Random(61)
        for _ in range(5):
            M = random_int_matrix(rnd, 2, 5, -9, 9)
            M += random_int_matrix(rnd, 2, 5, 1 - 2 ** 62, 2 ** 62 - 1)
            assert _int_matrix(M).dtype == np.int64
            red = lll_reduce(M)
            assert red == ref.lll_reduce(M)
            assert all(type(x) is int for row in red for x in row)
        assert any(widened)

    def test_lll_pass_whose_summed_bound_crosses_2_62_widens(self,
                                                             monkeypatch):
        # b_0, b_1 orthogonal, b_2 = b_0 + b_1 + (5, 7, 2^61): the pass at
        # k = 2 takes q = 1 for j = 1 and for j = 0, each step under 2^62
        # but 2^61 + 2^60 + 2^60 not, so its one row update widens b
        widened = []
        put = linalg._put

        def spy(A, idx, X):
            widened.append(A.dtype != object and X.dtype == object)
            return put(A, idx, X)

        monkeypatch.setattr(linalg, "_put", spy)
        e = 2 ** 60
        M = [[e, 0, 0], [0, e, 0], [e + 5, e + 7, 2 * e]]
        assert _int_matrix(M).dtype == np.int64
        red = lll_reduce(M)
        assert red == ref.lll_reduce(M) == [M[0], M[1], [5, 7, 2 * e]]
        assert widened == [True]
        assert all(type(x) is int for row in red for x in row)

    @pytest.mark.parametrize("wide", [False, True])
    def test_hnf_rows_with_non_unit_pivots_right_of_a_placed_column(self,
                                                                    wide):
        # rows lead with 2, 3, 4 or 6 and come in so that each leads left
        # of the rows before it: every insertion lands left of non-unit
        # pivots, whose passes must reduce the rows above it; also as
        # dtype=object input, and with entries past 2^63
        rnd = random.Random(16 + wide)
        seen = 0
        for _ in range(150):
            n = rnd.randint(3, 9)
            M = []
            for c in sorted(rnd.sample(range(n), rnd.randint(2, n)),
                            reverse=True):
                row = [0] * c + [rnd.choice([2, 3, 4, 6])]
                row += [rnd.choice([0, rnd.randint(-9, 9)])
                        for _ in range(n - c - 1)]
                if wide and rnd.random() < 0.3:
                    row[-1] += rnd.choice([-1, 1]) * 2 ** 63
                M.append(row)
            want = ref.hnf_rows(M)
            assert hnf_rows(np.array(M, dtype=object)) == want
            assert hnf_rows(M) == want
            pivots = [next(j for j, x in enumerate(r) if x) for r in want]
            seen += any(want[i][c] > 1 and c > pivots[0]
                        for i, c in enumerate(pivots))
        assert seen > 100

    def test_hnf_rows_reduction_past_int64_widens(self):
        # v - q H at a unit pivot: q = 2^30 times 2^40 overflows int64,
        # though every entry fits it
        for M in ([[1, 2 ** 40], [2 ** 30, 5]],
                  [[1, 0, 2 ** 40], [0, 1, 3], [2 ** 30, 7, 5]]):
            assert _int_matrix(M).dtype == np.int64
            assert hnf_rows(M) == ref.hnf_rows(M)

    def test_outputs_are_python_ints(self):
        M = [[2 ** 40, 3, 0], [5, -7, 2 ** 41], [1, 1, 1]]
        for out in (rcf_nullspace(M), hnf_with_transform(M).u, hnf_rows(M),
                    lll_reduce(M), int_matmul(M, M)):
            assert all(type(x) is int for row in out for x in row)

    def test_degree7_lattice_digests(self, deg7_bases):
        # sha256 of the JSON lists the list code produced: the lattice's
        # HNF, and the hnf-lll basis that `recomb nullspace` publishes
        def digest(rows):
            return hashlib.sha256(json.dumps(rows).encode()).hexdigest()

        _, lat, red = deg7_bases
        assert digest(lat) == ("7dee0a63ae2774517925e656f2505900"
                               "ccd9963a53f9266e295decaa40d80146")
        assert digest(hnf_rows(lat)) == ("442b8f9922ae2197da22c9ea72667728"
                                         "866696ee84fd6dfb5734671ea2bc02a0")
        assert digest(red) == ("54f513a7aa6c705b3ca7f3063f4f2359"
                               "5111f425ff9f60aa533090392b5460e1")


class TestLllInitialize:
    """The multi-modular Gram-Schmidt data equal the integral recurrence."""

    @staticmethod
    def spy_stacks(monkeypatch):
        """Record each stack's primes and which of them lived."""
        seen = []
        residues = linalg._gram_residues

        def spy(G, P):
            R, live = residues(G, P)
            seen.append((P.tolist(), live.tolist()))
            return R, live

        monkeypatch.setattr(linalg, "_gram_residues", spy)
        return seen

    @staticmethod
    def spy_ranks(monkeypatch):
        """Count the exact ranks taken."""
        calls = []
        echelon = linalg._echelon

        def spy(M):
            calls.append(len(M))
            return echelon(M)

        monkeypatch.setattr(linalg, "_echelon", spy)
        return calls

    @settings(max_examples=150, deadline=None)
    @given(M=kernel_matrices())
    def test_matches_reference(self, M):
        # entries of about 2^40 give dtype=object Gram matrices
        assert lll_or_error(initialize, M) == \
            lll_or_error(ref._lll_initialize, M)

    def test_long_sums_are_split(self, monkeypatch):
        # row j sums j products below p^2; past the K of _residue_type (2048
        # at p < 2^21, more rows than a test can afford) the sum is reduced
        # mod p in between, so _mod never sees more than a residue plus K
        rnd = random.Random(12)
        M = random_int_matrix(rnd, 100, 110, -9, 9)
        want = ref._lll_initialize(M)
        assert initialize(M) == want
        residue_type = linalg._residue_type
        monkeypatch.setattr(linalg, "_residue_type",
                            lambda p: (residue_type(p)[0], 7))
        mod, seen = linalg._mod, []

        def spy(X, p):
            seen.append(float(np.abs(X).max(initial=0)))
            return mod(X, p)

        monkeypatch.setattr(linalg, "_mod", spy)
        assert initialize(M) == want
        assert max(seen) < (7 + 1) * 2.0 ** 42      # p < 2^21

    def test_prime_dividing_a_d_is_skipped(self, monkeypatch):
        # d_1 = |b_1|^2 = p^2 for the first prime p: its first pivot is zero
        seen = self.spy_stacks(monkeypatch)
        ranks = self.spy_ranks(monkeypatch)
        p = next(linalg._primes())
        M = [[p, 0, 0], [1, 1, 0], [2, -1, 3]]
        assert initialize(M) == ref._lll_initialize(M)
        (first, live), *rest = seen
        assert first[0] == p and live == [False] + [True] * (len(live) - 1)
        # the stack's other primes went on; one more replaces p
        assert [x for _, x in rest] == [[True]]
        assert rest[0][0][0] not in first
        assert ranks == [3]

    def test_zero_pivot_of_one_prime_mid_stack(self, monkeypatch):
        # row 66 is p e_70 and orthogonal to the rows before it, so
        # d_67 = p^2 d_66: the first prime dies at pivot 66, and the others
        # go on through the 12 rows after it
        seen = self.spy_stacks(monkeypatch)
        p = next(linalg._primes())
        rnd = random.Random(66)
        M = [[rnd.randint(-3, 3) if j < 66 else 0 for j in range(90)]
             for _ in range(66)]
        M.append([p if j == 70 else 0 for j in range(90)])
        M += random_int_matrix(rnd, 12, 90, -3, 3)
        assert initialize(M) == ref._lll_initialize(M)
        (first, live), *rest = seen
        assert first[0] == p and not live[0] and all(live[1:])
        assert [x for _, x in rest] == [[True]]

    def test_dependent_rows_are_decided_by_rank(self, monkeypatch):
        # every prime of the stack meets the zero pivot d_3 = 0; one exact
        # rank then decides, and no further stack is tried
        seen = self.spy_stacks(monkeypatch)
        ranks = self.spy_ranks(monkeypatch)
        with pytest.raises(DependentRowsError):
            initialize([[1, 2, 3], [0, 1, 1], [2, 5, 7]])
        assert len(seen) == 1 and not any(seen[0][1])
        assert ranks == [3]

    # Each case passes one check but not the other when M is the first
    # prime p alone: with b_0 = (1446, 78, 12), |b_0|^2 = p + 1, so d is 1
    # mod p throughout; with |<b_2, b_0>| = 1400^2 > p / 2, lam_20 is not
    # its symmetric residue although every d_j g_j < p.  A first stack of
    # one prime takes the top-up branch.
    @pytest.mark.parametrize("M", [
        [[1446, 78, 12, 0], [0, 0, 0, 1]],
        [[1400, 1, 0], [1, 0, 0], [1400, 0, 1]],
    ])
    def test_primes_are_added_until_both_checks_hold(self, monkeypatch, M):
        assert 1446 ** 2 + 78 ** 2 + 12 ** 2 == next(linalg._primes()) + 1
        monkeypatch.setattr(linalg, "_prime_count", lambda G: 1)
        seen = self.spy_stacks(monkeypatch)
        assert initialize(M) == ref._lll_initialize(M)
        assert [len(P) for P, _ in seen] == [1, 1]

    def test_estimate_covers_the_checks(self, monkeypatch):
        # the degree-7-sized case needs no top-up: one stack, and no prime
        # more than the checks need
        seen = self.spy_stacks(monkeypatch)
        rnd = random.Random(7)
        M = random_int_matrix(rnd, 40, 50, -9, 9)
        d, _ = initialize(M)
        assert len(seen) == 1
        P = seen[0][0]
        g = [sum(x * x for x in row) for row in M]
        assert linalg._shortfall(d, g, math.prod(P)) == 0
        assert linalg._shortfall(d, g, math.prod(P[:-2])) > 0

    @pytest.mark.parametrize("M, dependent", [
        # exactly dependent: the float pivot is 0
        ([[1, 2], [2, 4]], True),
        # independent (det 1), but the float64 pivot cancels to 0 or less
        ([[2 ** 40, 1], [2 ** 40 + 1, 1]], False),
        # a Gram matrix too big for float64
        ([[2 ** 600, 1], [3, 2 ** 600]], False),
    ])
    def test_estimate_failure_grows_from_one_prime(self, monkeypatch, M,
                                                   dependent):
        counts = []
        estimate = linalg._prime_count
        monkeypatch.setattr(linalg, "_prime_count",
                            lambda G: counts.append(estimate(G)) or counts[-1])
        seen = self.spy_stacks(monkeypatch)
        assert lll_or_error(initialize, M) == \
            lll_or_error(ref._lll_initialize, M)
        assert counts == [1] and len(seen[0][0]) == 1
        if dependent:
            with pytest.raises(DependentRowsError):
                lll_reduce(M)
        else:
            assert len(seen) > 1

    @pytest.mark.parametrize("top", [5_000_001, 5_500_001])
    def test_gram_is_exact_on_both_sides_of_2_53(self, top):
        # 301 odd entries near top: 301 top^2 is below 2^53 for the first,
        # where the 70 rows go in float64 tiles of 12, and above it for the
        # second, where an odd diagonal sum has no float64 and _matmul runs
        rnd = random.Random(top)
        B = np.array([[rnd.choice([-1, 1]) * (top - 2 * rnd.randrange(3))
                       for _ in range(301)] for _ in range(70)])
        assert (301 * top ** 2 < 2 ** 53) == (top < 5_400_000)
        rows = B.tolist()
        want = [[sum(x * y for x, y in zip(u, v)) for v in rows] for u in rows]
        assert linalg._gram(B).tolist() == want

    def test_stacks_stay_within_chunk(self, monkeypatch):
        rnd = random.Random(3)
        M = random_int_matrix(rnd, 20, 24, -9, 9)
        for chunk, most in ((3 * 20 * 20, 3), (20 * 20 - 1, 1)):
            monkeypatch.setattr(linalg, "_CHUNK", chunk)
            seen = self.spy_stacks(monkeypatch)
            assert initialize(M) == ref._lll_initialize(M)
            assert len(seen) > 1
            assert max(len(P) for P, _ in seen) == most


class TestMagnitudeGuard:
    LIMIT = 2 ** 62

    def test_int_matrix_dtype(self):
        assert _int_matrix([[self.LIMIT - 1, 0]]).dtype == np.int64
        assert _int_matrix([[-self.LIMIT + 1, 0]]).dtype == np.int64
        for big in (self.LIMIT, -self.LIMIT, -2 ** 63, 2 ** 63, 2 ** 70):
            A = _int_matrix([[big, 1]])
            assert A.dtype == object and A.tolist() == [[big, 1]]
        assert _int_matrix(np.array([[-2 ** 63]])).dtype == object

    def test_int_matrix_of_a_list_holds_one_array(self):
        # read into one int64 array, which the cast keeps: 8 bytes an entry
        # where reading and then casting held two whole copies (16)
        M = [list(range(i, i + 1000)) for i in range(1000)]
        tracemalloc.start()
        try:
            A = _int_matrix(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert A.dtype == np.int64 and A.tolist() == M
        assert peak < 12 * 1000 * 1000

    def test_int_matrix_of_an_array_is_a_new_array(self):
        # the exact kernels write into what _int_matrix returns
        for A in (np.arange(6, dtype=np.int64).reshape(2, 3),
                  np.arange(6, dtype=np.int64).reshape(3, 2).T,
                  np.array([[2 ** 70, 1]], dtype=object)):
            B = _int_matrix(A)
            assert B.flags.c_contiguous and not np.shares_memory(A, B)
            assert B.tolist() == A.tolist()

    def test_kernels_leave_the_expansion_matrix_unchanged(self, E37):
        # the exact kernels work on their own copy of E's subset rows
        S = E37.subset_rows
        before = S.copy()
        rcf(S)
        rcf_nullspace(S)
        nullspace_lattice(S)
        hnf_with_transform(S)
        hnf_rows(S)
        lll_reduce(S)
        assert np.array_equal(S, before)

    def test_lincomb_widens_at_the_bound(self):
        x = np.array([self.LIMIT - 1 - 3 * 5], dtype=np.int64)
        y = np.array([5], dtype=np.int64)
        assert _lincomb(1, x, 3, y).dtype == np.int64
        out = _lincomb(1, x + 1, 3, y)
        assert out.dtype == object and out.tolist() == [self.LIMIT - 2 * 15]
        out = _lincomb(1, x + 1, -3, y)
        assert out.tolist() == [self.LIMIT]

    def test_matmul_widens_at_the_bound(self):
        a = np.array([[2 ** 30, 2 ** 30]], dtype=np.int64)
        b = np.array([[2 ** 31 - 1], [2 ** 31 - 1]], dtype=np.int64)
        assert _matmul(a, b).dtype == np.int64
        b = b + 1
        out = _matmul(a, b)
        assert out.dtype == object and out.tolist() == [[2 ** 62]]


class TestSortVectors:
    def test_tie_break_is_lexicographic(self):
        vs = [[2, -1, -1, 0], [-1, 0, 2, -1]]
        assert sort_vectors_by_norm(vs) == [[-1, 0, 2, -1], [2, -1, -1, 0]]

    def test_norms_past_int64_are_exact(self):
        # max|v|^2 len(v) < 2^62 in int64; past it, and past int64 entries,
        # in Python ints
        for v in ([3, -4], [2 ** 30, 2 ** 30, 1], [2 ** 31, 0],
                  [-2 ** 63, 1], [2 ** 70, -3], np.array([5, 12])):
            want = sum(int(x) ** 2 for x in v)
            assert squared_norm(v) == want and type(squared_norm(v)) is int
        vs = [[2 ** 40, 0], [0, -(2 ** 40)], [2 ** 70, 0], [1, 1], [-1, 1]]
        assert sort_vectors_by_norm(vs) == \
            sorted(vs, key=lambda v: (sum(x * x for x in v), v))

    @pytest.mark.parametrize("A", [
        np.array([[3, -4, 0], [1, 1, 1], [0, 0, 0]], dtype=np.int64),
        np.array([[2 ** 31, -(2 ** 31) - 5], [2 ** 40, 7]], dtype=np.int64),
        np.array([[2 ** 31, 2 ** 31, 1], [3, 4, 0]], dtype=np.int64),
        np.array([[2 ** 70, -3], [-(2 ** 63), 2 ** 62]], dtype=object),
    ], ids=["small", "past_2^31", "at_the_bound", "past_2^62"])
    def test_row_norms_are_python_sums_of_squares(self, A):
        want = [sum(int(x) * int(x) for x in row) for row in A.tolist()]
        got = linalg._row_norms(A)
        assert got == want and all(type(x) is int for x in got)

    def test_same_order_as_sorting_by_python_norms(self, deg7_bases):
        for vs in deg7_bases:
            assert sort_vectors_by_norm(vs) == \
                sorted(vs, key=lambda v: (sum(x * x for x in v), v))

    def test_the_callers_rows_are_permuted_not_copied(self, deg7_bases):
        for vs in deg7_bases:
            order = sorted(range(len(vs)), key=lambda i: (
                sum(x * x for x in vs[i]), vs[i]))
            norms, got = linalg._sorted_by_norm(vs)
            assert len(got) == len(vs)
            assert all(v is vs[i] for v, i in zip(got, order))
            assert norms == [sum(x * x for x in vs[i]) for i in order]

    def test_norms_take_one_block_beyond_the_input(self, monkeypatch):
        # (2,6): 930 vectors of 945 entries; the norms come 69 rows at a
        # time, so beside the input there is one int64 block and a few
        # words a row for the norms and the pairs, not a whole-basis copy
        monkeypatch.setattr(linalg, "_CHUNK", 1 << 16)
        vs = rcf_nullspace(build_expansion_matrix(2, 6).subset_rows)
        tracemalloc.start()
        try:
            got = sort_vectors_by_norm(vs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == sorted(vs, key=lambda v: (sum(x * x for x in v), v))
        assert peak < 8 * linalg._CHUNK + 256 * len(vs) < 8 * 930 * 945 / 4

    def test_an_array_is_sorted_as_lists_of_ints(self):
        A = np.array([[2, -1, -1, 0], [0, 1, 0, 0], [-1, 0, 2, -1]])
        norms, got = linalg._sorted_by_norm(A)
        assert norms == [1, 6, 6]
        assert got == [[0, 1, 0, 0], [-1, 0, 2, -1], [2, -1, -1, 0]]
        assert all(type(x) is int for v in got for x in v)


class TestIntMatmul:
    def test_big_entries_fall_back_exactly(self):
        big = 2 ** 40
        A = [[big, 1], [0, big]]
        B = [[big, 0], [1, big]]
        out = int_matmul(A, B)
        assert out == [[big * big + 1, big], [big, big * big]]


# every exact kernel, and every mod-p entry point, that takes an integer
# matrix, applied to M; the module scans read it before its width
INTEGER_KERNELS = {
    "rcf": rcf,
    "rcf_nullspace": rcf_nullspace,
    "hnf_rows": hnf_rows,
    "hnf_with_transform": hnf_with_transform,
    "nullspace_lattice": nullspace_lattice,
    "lattices_equal_left": lambda M: lattices_equal(M, [[0, 1]]),
    "lattices_equal_right": lambda M: lattices_equal([[0, 1]], M),
    "lll_reduce": lll_reduce,
    "sort_vectors_by_norm": sort_vectors_by_norm,
    "int_matmul_left": lambda M: int_matmul(M, [[1], [1]]),
    "int_matmul_right": lambda M: int_matmul([[1]], M),
    "squared_norm": lambda M: squared_norm(M[0]),
    "add_rows": lambda M: ModularRankAccumulator(2, 101).add_rows([0, 1], M),
    "single_generator": lambda M: single_generator(M, [], 2, 4),
    "generator_sieve": lambda M: generator_sieve(M, 2, 4),
}


class TestNonIntegralInput:
    # an entry with int(x) != x is refused rather than truncated
    @pytest.mark.parametrize("name", INTEGER_KERNELS)
    @pytest.mark.parametrize("M", [
        [[0.5, 1.0]],
        np.array([[0.5, 1.0]]),
        [[2 ** 70, 0.5]],
        np.array([[Fraction(1, 2), 0.5]], dtype=object),
    ], ids=["list", "float_array", "big_int_and_float", "fraction_and_float"])
    def test_refused(self, name, M):
        with pytest.raises(ValueError, match="non-integral"):
            INTEGER_KERNELS[name](M)

    @pytest.mark.parametrize("name", sorted(set(INTEGER_KERNELS)
                                            - {"rcf", "rcf_nullspace"}))
    def test_fractions_refused_outside_the_rcf(self, name):
        # the RCF works over Q; the lattice kernels need integers
        with pytest.raises(ValueError, match="non-integral"):
            INTEGER_KERNELS[name](
                np.array([[1, Fraction(1, 2)]], dtype=object))

    def test_integral_floats_and_fractions_still_work(self):
        acc = ModularRankAccumulator(2, 101)
        assert acc.add_rows([0, 1], [[2.0, Fraction(4)]]) == 1
        assert rcf([[2.0, 4.0]]) == rcf([[2, 4]])
        assert rcf([[Fraction(1, 2), 1]]) == rcf([[1, 2]])
        assert rcf_nullspace(np.array([[2.0, 4.0]])) == [[-2, 1]]
        assert hnf_rows([[Fraction(4), 6.0]]) == [[4, 6]]
        assert squared_norm([3.0, Fraction(4)]) == 25
        assert int_matmul([[2.0]], [[3]]) == [[6]]
