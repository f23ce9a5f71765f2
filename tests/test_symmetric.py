import math
import tracemalloc
import weakref

import numpy as np
import pytest

from recomb import golden, linalg, symmetric
from recomb.expansion import build_expansion_matrix
from recomb.identities import (
    expansion_rank,
    generator_sieve,
    lift_identity,
    new_identity_test,
    single_generator,
)
from recomb.linalg import (
    ModularRankAccumulator,
    rcf_nullspace,
    sort_vectors_by_norm,
)
from recomb.monomials import (
    DegreeContext,
    automorphism_order,
    enumerate_canonical_types,
    get_context,
    row_codes,
    straighten_many,
)
from recomb.symmetric import partitions, standard_tableaux


def rho(table, j, p) -> np.ndarray:
    """Dense rho(s_j) from the (diag, partner, off) rows, as int64."""
    diag, partner, off = (a.astype(np.int64) for a in table)
    f = diag.shape[1]
    R = np.zeros((f, f), dtype=np.int64)
    R[np.arange(f), np.arange(f)] = diag[j]
    R[np.arange(f), partner[j]] += off[j]
    return R % p


def hook_length_count(lam) -> int:
    conj = [sum(1 for part in lam if part > c) for c in range(lam[0])]
    hooks = math.prod(lam[r] - c + conj[c] - r - 1
                      for r in range(len(lam)) for c in range(lam[r]))
    return math.factorial(sum(lam)) // hooks


class TestTableaux:
    @pytest.mark.parametrize("d", range(1, 10))
    def test_counts_follow_the_hook_length_formula(self, d):
        lams = partitions(d)
        assert len(set(lams)) == len(lams)
        assert all(sum(lam) == d and list(lam) == sorted(lam, reverse=True)
                   for lam in lams)
        for lam in lams:
            T = standard_tableaux(lam)
            assert len(T) == hook_length_count(lam)
            assert len({row.tobytes() for row in T}) == len(T)
            # lexicographic order: _seminormal searches these codes
            assert (np.diff(row_codes(T, len(lam))) > 0).all()
        # sum of d_lam^2 = d!
        assert sum(len(standard_tableaux(lam)) ** 2 for lam in lams) == \
            math.factorial(d)

    def test_partition_counts(self):
        assert [len(partitions(d)) for d in range(1, 10)] == \
            [1, 2, 3, 5, 7, 11, 15, 22, 30]


class TestSeminormalForm:
    # 509 and 521 sit on either side of the float32/float64 switch, and
    # 94906249, the largest prime accepted, has K = 1
    @pytest.mark.parametrize("p", [11, 101, 509, 521, 4099, 94906249])
    @pytest.mark.parametrize("d", range(2, 8))
    def test_coxeter_relations_mod_p(self, d, p):
        if p <= d:
            pytest.skip("needs p > d")
        for lam in partitions(d):
            table = symmetric._seminormal(lam, p)
            S = [rho(table, j, p) for j in range(d - 1)]
            eye = np.eye(len(S[0]), dtype=np.int64)
            for j, A in enumerate(S):
                assert ((A @ A) % p == eye).all(), (lam, j)
                if j + 1 < d - 1:
                    B = S[j + 1]
                    assert ((A @ B % p @ A) % p == (B @ A % p @ B) % p).all()
                for B in S[j + 2:]:
                    assert ((A @ B) % p == (B @ A) % p).all()

    @pytest.mark.parametrize("d", range(2, 8))
    def test_one_row_is_trivial_and_one_column_is_sign(self, d):
        p = 101
        trivial = symmetric._seminormal((d,), p)
        sign = symmetric._seminormal((1,) * d, p)
        for j in range(d - 1):
            assert rho(trivial, j, p).tolist() == [[1]]
            assert rho(sign, j, p).tolist() == [[p - 1]]


class TestFixedSpace:
    def test_memory_follows_the_kept_columns_not_d_lam_squared(self):
        # s_0, s_1 fix the tableaux of (3,3,2,2,1) with 0, 1, 2 in the first
        # row: 70 of d_lam = 990, so building only those columns of I stays
        # far below the 8 d_lam^2 bytes of the whole identity
        lam, p = (3, 3, 2, 2, 1), 101
        shape = ((((0, 0, 0), (0, 0, 0), 0), 0, 0), 0, 0)     # one of (3,11)
        table = symmetric._seminormal(lam, p)
        steps = [symmetric._bubble([g])
                 for g in symmetric._aut_generators(shape)]
        f = table[0].shape[1]
        kept = int((standard_tableaux(lam)[:, :3] == 0).all(axis=1).sum())
        assert (f, kept) == (990, 70)
        tracemalloc.start()
        try:
            P = symmetric._fixed_space(steps, table, p, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert P.shape[0] == f
        assert peak < 8 * 8 * f * kept < 8 * f * f


# every type of these degrees; (4,10) and (5,9) hold the largest groups
AUT_DEGREES = [(2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 3), (3, 5), (3, 7),
               (3, 9), (4, 7), (4, 10), (5, 9)]


class TestAutomorphisms:
    @pytest.mark.parametrize("n,d", AUT_DEGREES)
    def test_first_leaf_row_is_0_to_d_minus_1(self, n, d):
        # Irreducibles takes monomial c's leaf row as the sigma_c that
        # moves the first monomial of its type onto it
        for rows in get_context(n, d).leaves_by_type:
            assert rows[0].tolist() == list(range(d))

    @pytest.mark.parametrize("n,d", AUT_DEGREES)
    def test_generators_give_a_group_of_the_automorphism_order(self, n, d):
        identity = tuple(range(d))
        for shape in enumerate_canonical_types(n, d):
            gens = [tuple(g) for g in symmetric._aut_generators(shape)]
            # each generator maps the monomial with leaves 0..d-1 to itself
            for g in gens:
                assert straighten_many(shape, [g])[0].tolist() == list(identity)
            group, frontier = {identity}, [identity]
            while frontier:
                new = {tuple(h[i] for i in g) for h in frontier for g in gens}
                frontier = list(new - group)
                group |= new
            assert len(group) == automorphism_order(shape), shape


class TestLeafRuns:
    @pytest.mark.parametrize("n,d", AUT_DEGREES)
    def test_only_lam_dominating_mu_t_have_fixed_vectors(self, n, d):
        # every lam and type, built without the skip: Aut T fixes vectors
        # of S^lam only where lam dominates mu_T, and every lam dominating
        # some mu_T has fixed vectors for some type
        p = 101
        shapes = enumerate_canonical_types(n, d)
        mus = [symmetric._leaf_runs(shape) for shape in shapes]
        steps = [[symmetric._bubble([g])
                  for g in symmetric._aut_generators(shape)]
                 for shape in shapes]
        for shape, mu in zip(shapes, mus):
            assert sum(mu) == d and list(mu) == sorted(mu, reverse=True)
            # the leading generators are s_0, ..., s_{mu_T[0] - 2}
            assert symmetric._sort_plan(shape)[0] == (0, mu[0], 1)
        for lam in partitions(d):
            table = symmetric._seminormal(lam, p)
            fixed = [symmetric._fixed_space(g, table, p, mu[0] - 1).shape[1]
                     for g, mu in zip(steps, mus)]
            fits = [symmetric._dominates(lam, mu) for mu in mus]
            assert all(fit for m, fit in zip(fixed, fits) if m), lam
            assert any(fixed) == any(fits), lam

    def test_dominance(self):
        assert symmetric._dominates((3, 1), (2, 2))
        assert symmetric._dominates((2, 2), (2, 1, 1))
        assert not symmetric._dominates((2, 2), (3, 1))
        assert not symmetric._dominates((3, 1, 1, 1), (2, 2, 2))
        assert not symmetric._dominates((2, 2, 2), (3, 1, 1, 1))

    @pytest.mark.parametrize("n,d,built", [(3, 7, 8), (3, 9, 18),
                                           (4, 10, 14)])
    def test_tables_only_for_lam_some_type_can_fix(self, monkeypatch, n, d,
                                                   built):
        calls = []
        real = symmetric._seminormal
        monkeypatch.setattr(symmetric, "_seminormal", lambda lam, p:
                            calls.append(lam) or real(lam, p))
        irr = symmetric.Irreducibles(get_context(n, d), 101)
        assert len(calls) == built < len(partitions(d))
        assert irr.weight.sum() == get_context(n, d).num_monomials


class TestIrreducibles:
    @pytest.mark.parametrize("n,d", [(2, 4), (2, 5), (2, 6), (3, 5), (3, 7),
                                     (4, 7)])
    def test_monomials_span_the_whole_space(self, n, d):
        ctx = DegreeContext(n, d)
        irr = symmetric.irreducibles(ctx, 101)
        assert irr.weight.sum() == ctx.num_monomials
        acc = ModularRankAccumulator(irr.width, 101)
        for B in irr.blocks(np.eye(ctx.num_monomials, dtype=np.int64)):
            acc.add_rows(irr.columns, B)
        assert acc.rank() == irr.width
        assert irr.dimension(acc) == ctx.num_monomials

    def test_tables_live_as_long_as_their_context(self):
        # kept per prime in the context, and holding no reference back to
        # it, so dropping the context frees them without a collection
        ctx = DegreeContext(2, 4)
        irr = symmetric.irreducibles(ctx, 101)
        assert symmetric.irreducibles(ctx, 101) is irr
        assert symmetric.irreducibles(ctx, 103) is not irr
        ref = weakref.ref(irr)
        del ctx, irr
        assert ref() is None

    def test_tables_hand_the_accumulators_residues(self, monkeypatch):
        # _fixed_space passes reduced residues, which add_rows takes as
        # they are: building the tables converts nothing
        calls = []
        for module in (linalg, symmetric):
            real = module._residues
            monkeypatch.setattr(module, "_residues", lambda x, p, real=real:
                                calls.append(p) or real(x, p))
        irr = symmetric.Irreducibles(get_context(3, 7), 101)
        assert calls == []
        assert irr.weight.sum() == 280

    def test_missing_aut_generator_is_detected(self, monkeypatch):
        real = symmetric._aut_generators
        monkeypatch.setattr(symmetric, "_aut_generators",
                            lambda shape: real(shape)[:-1])
        with pytest.raises(RuntimeError, match="sum d_lam M_lam"):
            symmetric.irreducibles(DegreeContext(3, 7), 101)

    def test_missing_generator_of_one_type_names_that_type(self,
                                                           monkeypatch):
        # the totals of the other types hold; type 1's alone is wrong
        real = symmetric._aut_generators
        ctx = DegreeContext(3, 7)
        shape = ctx.types[1]
        monkeypatch.setattr(symmetric, "_aut_generators", lambda s:
                            real(s)[:-1] if s == shape else real(s))
        with pytest.raises(RuntimeError,
                           match=rf"type 1 .*expected {ctx.type_counts[1]}"):
            symmetric.irreducibles(ctx, 101)

    @pytest.mark.parametrize("n,d,rows,width", [(3, 7, 127, 18),
                                                (3, 9, 1764, 157)])
    def test_blocks_of_the_sizes_stated(self, n, d, rows, width):
        ctx = get_context(n, d)
        irr = symmetric.irreducibles(ctx, 101)
        assert (len(irr.columns), irr.width) == (rows, width)
        assert irr.columns.min() >= 0 and irr.columns.max() < width
        R = golden.load_identity("ternary_recombination")
        if d == 9:
            R = lift_identity(R)[-1].result
        [B] = irr.blocks([ctx.vector_of(R)])
        assert B.shape == irr.columns.shape
        assert 0 <= B.min() and B.max() < 101

    def test_batches_give_the_rows_of_one_vector_at_a_time(self,
                                                           monkeypatch):
        # the 245 canonical (3,7) nullspace vectors make four batches, each
        # with one product per type
        ctx = get_context(3, 7)
        irr = symmetric.irreducibles(ctx, 101)
        V = rcf_nullspace(build_expansion_matrix(3, 7).array.tolist())
        assert len(V) == 245 > 3 * symmetric._BATCH
        one = [B.copy() for v in V for B in irr.blocks([v])]
        calls = []
        real = symmetric._matmul_mod
        monkeypatch.setattr(symmetric, "_matmul_mod", lambda A, X, p:
                            calls.append(len(A)) or real(A, X, p))
        got = list(irr.blocks(V))
        assert len(got) == len(one) == 245
        assert all(np.array_equal(a, b) for a, b in zip(got, one))
        assert calls == [64] * 6 + [53] * 2
        assert got[0].shape == irr.columns.shape and got[0].dtype == np.float32

    def test_residues_are_taken_one_batch_at_a_time(self, monkeypatch,
                                                    deg7_bases):
        # the scans of the 245 canonical (3,7) vectors convert no more
        # than _BATCH rows at once
        real, rows = symmetric._residues, []
        monkeypatch.setattr(symmetric, "_residues", lambda x, p:
                            rows.append(len(x)) or real(x, p))
        vs = sort_vectors_by_norm(deg7_bases[0])
        gens = generator_sieve(vs, 3, 7)
        assert single_generator(vs, gens, 3, 7) == 60
        assert rows and max(rows) <= symmetric._BATCH

    def test_only_the_columns_of_the_batches_read_are_acted_on(
            self, monkeypatch, deg7_bases):
        # the canonical sieve stops at vector 60 of 245: rho(sigma_c) P_T
        # is computed for the columns that vectors 1-64 use, one sigma each
        ctx = get_context(3, 7)
        symmetric.irreducibles(ctx, 101)        # the tables, built first
        real, sigmas = symmetric._bubble, []
        monkeypatch.setattr(symmetric, "_bubble", lambda s:
                            sigmas.append(np.array(s)) or real(s))
        vs = sort_vectors_by_norm(deg7_bases[0])
        assert generator_sieve(vs, 3, 7)[-1].position == 60
        used = np.flatnonzero(np.array(vs[:64]).any(axis=0))
        assert len(used) < np.array(vs).any(axis=0).sum()
        leaves = np.vstack([ctx.leaves_by_type[ti][
            used[(used >= lo) & (used < hi)] - lo]
            for ti, (lo, hi) in enumerate(zip(ctx.offsets, ctx.offsets[1:]))])
        assert np.array_equal(np.vstack(sigmas), leaves)

    def test_rank_and_certify_build_no_tables(self, monkeypatch):
        def no_tables(lam, p):
            raise AssertionError("seminormal tables built")

        get_context.cache_clear()
        monkeypatch.setattr(symmetric, "_seminormal", no_tables)
        sc = golden.scalars()
        assert expansion_rank(3, 9) == (sc["expansion_rank"]["n3_d9"],
                                        sc["nullspace_dim"]["n3_d9"])
        B = golden.load_identity("binary_recombination")
        res = new_identity_test(5, [B], mode="certify", seed=1)
        assert res.verdict == "no new identities"
        get_context.cache_clear()
