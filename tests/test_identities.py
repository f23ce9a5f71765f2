import random

import expansion_oracles
import identities_oracles as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recomb import build_expansion_matrix, golden, identities, symmetric
from recomb.identities import (
    generator_sieve,
    lift_identity,
    module_rank,
    new_identity_test,
    verify_identity,
)
from recomb.linalg import (
    ModularRankAccumulator,
    rcf_nullspace,
    sort_vectors_by_norm,
    squared_norm,
)
from recomb.monomials import (
    DegreeContext,
    IdentityCombination,
    apply_permutation,
    get_context,
    parse_bracket,
    straighten,
)


@pytest.fixture(scope="module")
def named():
    return {name: golden.load_identity(name) for name in golden.IDENTITY_NAMES}


class TestGoldenIdentities:
    def test_all_expand_to_zero(self, named):
        for name, idc in named.items():
            assert verify_identity(idc) == 0, name

    def test_norms(self, named):
        norms = {name: squared_norm(named[name].terms.values())
                 for name in named}
        assert norms["reduced_generator_1"] == 4
        assert norms["reduced_generator_2"] == 6
        assert norms["ternary_recombination"] == 12
        assert norms["canonical_generator_1"] == 4
        assert norms["canonical_generator_2"] == 6
        assert norms["canonical_generator_3"] == 32

    def test_unit_coefficients_of_reduced_generators(self, named):
        for name in ("reduced_generator_1", "reduced_generator_2",
                     "ternary_recombination"):
            assert set(map(abs, named[name].terms.values())) == {1}


def slot_tuple_residual(idc) -> int:
    """Nonzero slot tuples of a combination's expansion, each monomial
    expanded node by node."""
    acc: dict = {}
    for tree, coeff in idc.terms.items():
        for tup, c in expansion_oracles.expand_monomial(tree, idc.n).items():
            acc[tup] = acc.get(tup, 0) + coeff * c
    return sum(1 for c in acc.values() if c)


class TestVerifyIdentity:
    def test_binary_recombination_vanishes(self, named):
        assert verify_identity(named["binary_recombination"]) == 0

    def test_reduced_binary_vanishes(self, named):
        assert verify_identity(named["binary_recombination_reduced"]) == 0

    def test_non_identity(self):
        one = IdentityCombination.from_terms(3, [(1, parse_bracket("[a,b,c]"))])
        assert verify_identity(one) == 6

    @pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (2, 4), (2, 5), (3, 5),
                                     (3, 7), (4, 7)])
    def test_residual_counts_the_slot_tuple_expansion(self, n, d, named):
        # random combinations, and each golden identity of this degree
        # less one of its terms, which leaves a partial cancellation
        rnd = random.Random(d)
        monomials = get_context(n, d).monomials
        combos = [IdentityCombination.from_terms(
            n, [(rnd.randint(-2, 2), m) for m in
                rnd.sample(monomials, min(6, len(monomials)))], d)
            for _ in range(10)]
        for idc in named.values():
            if (idc.n, idc.degree) == (n, d):
                tree, lead = idc.sorted_terms()[0]
                combos.append(IdentityCombination.from_terms(
                    n, [(c, t) for t, c in idc.terms.items()] + [(-lead, tree)]))
        for idc in combos:
            assert verify_identity(idc) == slot_tuple_residual(idc)


class TestModuleRank:
    def test_empty(self):
        assert module_rank([]) == 0

    def test_binary_identity_spans_nullspace(self, named):
        assert module_rank([named["binary_recombination"]]) == 9

    def test_permutation_invariance(self, named):
        P = named["reduced_generator_1"]
        rnd = random.Random(2)
        base = module_rank([P])
        for _ in range(3):
            sigma = tuple(rnd.sample(range(7), 7))
            assert module_rank([apply_permutation(P, sigma)]) == base

    def test_modulus_stability(self, named):
        P = named["reduced_generator_1"]
        assert module_rank([P], 101) == module_rank([P], 103)

    def test_largest_prime_gives_the_ranks_of_p_101(self, named):
        # K = 1 at p = 94906249, the largest prime with p^2 < 2^53: a sum
        # of two products there is exact only if the first is reduced alone
        mr = golden.scalars()["module_ranks_n3_d7"]
        P, Q = named["reduced_generator_1"], named["reduced_generator_2"]
        R = named["ternary_recombination"]
        want = [mr["reduced_generator_1"], mr["reduced_generator_2"],
                mr["reduced_generators_1_2"], mr["ternary_recombination"]]
        assert want == [105, 127, 155, 245]
        assert [module_rank(ids, 94906249)
                for ids in ([P], [Q], [P, Q], [R])] == want

    def test_mixed_degrees_rejected(self, named):
        with pytest.raises(ValueError):
            module_rank([named["binary_recombination"],
                         named["reduced_generator_1"]])

    def test_orbits_need_no_permutation_table(self, named, monkeypatch,
                                              E24):
        def no_table(self):
            raise AssertionError("orbit built from the permutation table")

        monkeypatch.setattr(DegreeContext, "perm_table_inv", no_table)
        mr = golden.scalars()["module_ranks_n3_d7"]
        P, Q = named["reduced_generator_1"], named["reduced_generator_2"]
        assert module_rank([P]) == mr["reduced_generator_1"]
        assert module_rank([Q]) == mr["reduced_generator_2"]
        assert module_rank([P, Q]) == mr["reduced_generators_1_2"]
        assert module_rank([named["ternary_recombination"]]) == \
            mr["ternary_recombination"]
        ns = sort_vectors_by_norm(rcf_nullspace(E24.array.tolist()))
        gens = generator_sieve(ns, 2, 4)
        assert [(g.position, g.norm_sq, g.cumulative_rank) for g in gens] \
            == [(1, 6, 3), (2, 8, 9)]

    @pytest.mark.parametrize("p", [0, 5, 7])
    def test_prime_must_exceed_the_degree(self, named, p):
        R = named["ternary_recombination"]
        with pytest.raises(ValueError, match="p > degree"):
            module_rank([R], p)
        with pytest.raises(ValueError, match="p > degree"):
            generator_sieve([get_context(3, 7).vector_of(R)], 3, 7, p)
        with pytest.raises(ValueError, match="p > degree"):
            new_identity_test(9, [R], p, mode="exact")


class TestAgainstOrbitOracle:
    """Module ranks and the sieve per irreducible equal the orbit ranks."""

    @staticmethod
    def inputs(n, d, seed):
        """Golden identities of (n, d), random relabellings of them, random
        integer combinations of nullspace vectors and random vectors."""
        rnd = random.Random(seed)
        ctx = get_context(n, d)
        named = [golden.load_identity(name) for name in golden.IDENTITY_NAMES]
        named = [idc for idc in named if (idc.n, idc.degree) == (n, d)]
        out = [ctx.vector_of(idc).tolist() for idc in named]
        for idc in named:
            sigma = rnd.sample(range(d), d)
            out.append(ctx.vector_of(apply_permutation(idc, sigma)).tolist())
        ns = rcf_nullspace(build_expansion_matrix(n, d).subset_rows)
        for _ in range(3 if ns else 0):
            combo = [0] * ctx.num_monomials
            for v in rnd.sample(ns, min(3, len(ns))):
                c = rnd.choice([-3, -2, -1, 1, 2, 3])
                combo = [a + c * b for a, b in zip(combo, v)]
            out.append(combo)
        for _ in range(2):
            v = [0] * ctx.num_monomials
            for j in rnd.sample(range(ctx.num_monomials),
                                min(4, ctx.num_monomials)):
                v[j] = rnd.randint(-4, 4)
            out.append(v)
        return ctx, out

    @pytest.mark.parametrize("p", [101, 103, 4099])
    @pytest.mark.parametrize("n,d", [(2, 4), (2, 5), (3, 5), (3, 7), (4, 7)])
    def test_module_rank_and_sieve(self, n, d, p):
        ctx, vectors = self.inputs(n, d, seed=p * 100 + d * 10 + n)
        for v in vectors:
            assert module_rank([ctx.combination_of(v)], p) == \
                oracle.module_rank([v], n, d, p)
        ids = [ctx.combination_of(v) for v in vectors]
        assert module_rank(ids, p) == oracle.module_rank(vectors, n, d, p)
        gens = generator_sieve(vectors, n, d, p)
        assert [(g.position, g.norm_sq, g.cumulative_rank) for g in gens] \
            == oracle.generator_sieve(vectors, n, d, p)


class TestGeneratorSieve:
    def test_binary_canonical_basis(self, E24):
        ns = sort_vectors_by_norm(rcf_nullspace(E24.array.tolist()))
        gens = generator_sieve(ns, 2, 4)
        assert gens[-1].cumulative_rank == 9
        assert gens[0].position == 1 and gens[0].norm_sq == 6
        for g in gens:
            assert verify_identity(g.identity) == 0
        # the norm-8 vectors generate everything on their own
        assert module_rank([get_context(2, 4).combination_of(ns[1])]) == 9

    def test_single_vector_module(self, E24):
        ctx = get_context(2, 4)
        ns = sort_vectors_by_norm(rcf_nullspace(E24.array.tolist()))
        rank1 = module_rank([ctx.combination_of(ns[0])])
        gens = generator_sieve([ns[0]], 2, 4)
        assert len(gens) == 1 and gens[0].cumulative_rank == rank1

    @pytest.mark.parametrize("n,d", [(2, 5), (3, 7)])
    def test_multiples_of_p_far_beyond_int64_change_nothing(self, n, d):
        # the scans reduce their input mod p exactly, at any size
        p = 101
        ns = sort_vectors_by_norm(rcf_nullspace(
            build_expansion_matrix(n, d).subset_rows))
        rnd = random.Random(d)
        big = [list(v) for v in ns]
        for v in big:
            v[rnd.randrange(len(v))] += p * 2 ** 70

        def scan(vectors):
            gens = generator_sieve(vectors, n, d, p)
            return ([(g.position, g.cumulative_rank) for g in gens],
                    identities.single_generator(vectors, gens, n, d, p))

        assert scan(big) == scan(ns)

    @pytest.mark.parametrize("width", [200, 281])
    @pytest.mark.parametrize("scan", [
        generator_sieve,
        lambda vs, n, d: identities.single_generator(vs, [], n, d)],
        ids=["generator_sieve", "single_generator"])
    def test_vectors_of_the_wrong_width_are_refused(self, scan, width):
        # (3,7) has 280 monomials: cut or padded vectors are not read
        ns = rcf_nullspace(build_expansion_matrix(3, 7).subset_rows)[:5]
        vs = [(v + [0] * width)[:width] for v in ns]
        with pytest.raises(ValueError, match=r"expected \(k, 280\)"):
            scan(vs, 3, 7)

    @pytest.mark.parametrize("entry", [0.5, None],
                             ids=["non_integral", "wrong_width"])
    def test_malformed_vectors_after_the_stop_are_refused(self, deg7_bases,
                                                          entry):
        # both scans stop at vector 60 of the sorted canonical (3,7) basis;
        # a bad vector at 200 is still refused, before any block
        vs = sort_vectors_by_norm(deg7_bases[0])
        gens = generator_sieve(vs, 3, 7)
        assert gens[-1].position == 60
        assert identities.single_generator(vs, gens, 3, 7) == 60
        bad = list(vs)
        bad[199] = vs[199][1:] if entry is None else [entry] + vs[199][1:]
        with pytest.raises(ValueError):
            generator_sieve(bad, 3, 7)
        with pytest.raises(ValueError):
            identities.single_generator(bad, gens, 3, 7)

    def test_one_dimensional_orbit_yields_single_generator(self):
        # the all-ones vector is permutation-invariant: 1-dim module span
        ones = [1] * 15
        gens = generator_sieve([ones, ones], 2, 4)
        assert len(gens) == 1
        assert gens[0].cumulative_rank == 1


def single_generator_alone(vectors, n, d, p=101):
    """Brute force: each vector's module ranked alone, from the first."""
    irr = symmetric.irreducibles(get_context(n, d), p)
    for pos, B in enumerate(irr.blocks(vectors), start=1):
        acc = ModularRankAccumulator(irr.width, p)
        acc.add_rows(irr.columns, B)
        if irr.dimension(acc) == len(vectors):
            return pos
    return None


class TestSingleGenerator:
    # the scan starts at the sieve's last generator; testing every vector
    # alone from the first gives the same answer
    @pytest.mark.parametrize("basis, shuffle, position", [
        ("rcf", None, 60), ("hnf-lll", None, 149), ("rcf", 0, 12),
        ("rcf", 1, 1), ("rcf", 2, 5)])
    def test_matches_the_brute_force_scan(self, deg7_bases, basis, shuffle,
                                          position):
        rcf, _, lll = deg7_bases
        vs = sort_vectors_by_norm(rcf if basis == "rcf" else lll)
        if shuffle is not None:
            random.Random(shuffle).shuffle(vs)
        gens = generator_sieve(vs, 3, 7)
        assert single_generator_alone(vs, 3, 7) == position
        assert identities.single_generator(vs, gens, 3, 7) == position

    def test_no_single_generator_at_degree_5(self):
        # the (2,5) sieve keeps 4 of the 95 rcf vectors
        vs = sort_vectors_by_norm(rcf_nullspace(
            build_expansion_matrix(2, 5).subset_rows))
        gens = generator_sieve(vs, 2, 5)
        assert len(gens) == 4
        assert single_generator_alone(vs, 2, 5) is None
        assert identities.single_generator(vs, gens, 2, 5) is None

    def test_a_single_generator_after_the_sieve_stops(self):
        # N = 155 vectors: the sieve reaches 155 at position 2, where the
        # second alone spans 127, and the sum at the end spans 155 alone
        ctx = get_context(3, 7)
        rg1, rg2 = (ctx.vector_of(golden.load_identity(
            f"reduced_generator_{i}")).tolist() for i in (1, 2))
        vs = [rg1, rg2] + [rg1] * 152 + [[a + b for a, b in zip(rg1, rg2)]]
        gens = generator_sieve(vs, 3, 7)
        assert [(g.position, g.cumulative_rank) for g in gens] == \
            [(1, 105), (2, 155)]
        assert module_rank([ctx.combination_of(rg2)]) == 127
        assert single_generator_alone(vs, 3, 7) == 155
        assert identities.single_generator(vs, gens, 3, 7) == 155


class TestLift:
    def test_ternary_recombination_lifts(self, named):
        lifts = lift_identity(named["ternary_recombination"])
        assert len(lifts) == 8
        assert [lc.kind for lc in lifts] == ["substitute"] * 7 + ["embed"]
        assert [lc.variable for lc in lifts[:7]] == list(range(7))
        for lc in lifts:
            assert lc.result.degree == 9 and lc.result.n == 3
            for tree in lc.result.terms:
                assert straighten(tree, 3) == tree

    def test_binary_identity_lifts(self, named):
        lifts = lift_identity(named["binary_recombination"])
        assert len(lifts) == 5
        for lc in lifts:
            assert lc.result.degree == 5
            assert verify_identity(lc.result) == 0

    def test_lifts_preserve_identity(self, named):
        for lc in lift_identity(named["ternary_recombination"]):
            assert verify_identity(lc.result) == 0


class TestNewIdentityTest:
    def test_degree5_ternary_no_identities(self):
        res = new_identity_test(5, [], n=3)
        assert res.nullspace_dim == 0
        assert res.final_dim == 0
        assert res.verdict == "no new identities"

    def test_degree5_binary_closure(self, named):
        res = new_identity_test(5, [named["binary_recombination"]], mode="exact")
        assert res.verdict == "no new identities"
        # derived by this pipeline, stable across primes
        assert res.nullspace_dim == 95
        assert res.consequence_dims == [60, 60, 90, 90, 95]
        res103 = new_identity_test(5, [named["binary_recombination"]],
                                   103, mode="exact")
        assert res103.nullspace_dim == res.nullspace_dim
        assert res103.consequence_dims == res.consequence_dims

    def test_exact_shortfall_agreeing_at_two_primes(self):
        res = new_identity_test(7, [], n=3, mode="exact")
        assert (res.nullspace_dim, res.final_dim) == (245, 0)
        assert res.verdict == "new identities"

    def test_exact_shortfall_disagreeing_primes_is_inconclusive(
            self, monkeypatch):
        real = identities.expansion_rank

        def unlucky_at_103(n, d, p=101):
            rank, null_dim = real(n, d, p)
            return (rank - 1, null_dim + 1) if p == 103 else (rank, null_dim)

        monkeypatch.setattr(identities, "expansion_rank", unlucky_at_103)
        res = new_identity_test(7, [], n=3, mode="exact")
        assert res.verdict == "inconclusive"
        res = new_identity_test(7, [], 103, n=3, mode="exact")
        assert res.nullspace_dim == 246
        assert res.verdict == "inconclusive"

    def test_certify_shortfall_agreeing_at_two_primes(self):
        res = new_identity_test(7, [], n=3, mode="certify")
        assert (res.nullspace_dim, res.final_dim, res.samples) == (245, 0, 0)
        assert res.verdict == "new identities"

    def test_certify_shortfall_disagreeing_primes_is_inconclusive(
            self, monkeypatch):
        real = identities.expansion_rank

        def unlucky_at_103(n, d, p=101):
            rank, null_dim = real(n, d, p)
            return (rank - 1, null_dim + 1) if p == 103 else (rank, null_dim)

        monkeypatch.setattr(identities, "expansion_rank", unlucky_at_103)
        res = new_identity_test(7, [], n=3, mode="certify")
        assert res.verdict == "inconclusive"
        res = new_identity_test(7, [], 103, n=3, mode="certify")
        assert res.nullspace_dim == 246
        assert res.verdict == "inconclusive"

    def test_certify_mode_small(self, named):
        res = new_identity_test(5, [named["binary_recombination"]],
                                mode="certify", seed=1)
        assert res.verdict == "no new identities"
        assert res.samples > 0


def dense_rows(ctx, cols, coeffs):
    out = np.zeros((len(cols), ctx.num_monomials), dtype=np.int64)
    np.put_along_axis(out, cols.astype(np.intp), coeffs, axis=1)
    return out


class TestSparseOrbitRows:
    @pytest.fixture(scope="class")
    def lifted(self):
        R = golden.load_identity("ternary_recombination")
        return [lc.result for lc in lift_identity(R)]

    @settings(max_examples=20, deadline=None)
    @given(sigmas=st.lists(st.permutations(range(9)), min_size=1, max_size=6),
           k=st.integers(0, 7))
    def test_rows_match_tree_straightening(self, lifted, sigmas, k):
        ctx = get_context(3, 9)
        terms = ctx.term_groups(lifted[k])
        got = dense_rows(ctx, *identities._permuted_rows(
            ctx, terms, np.array(sigmas, dtype=np.int8)))
        ref = [ctx.vector_of(apply_permutation(lifted[k], s)) for s in sigmas]
        assert got.tolist() == np.array(ref).tolist()
