import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recomb import golden, identities
from recomb.expansion import evaluate_identity
from recomb.identities import (
    generator_sieve,
    lift_identity,
    module_rank,
    new_identity_test,
    rewrite_second_type,
    verify_identity,
)
from recomb.linalg import rcf_nullspace, sort_vectors_by_norm
from recomb.monomials import (
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
        assert named["reduced_generator_1"].norm_sq() == 4
        assert named["reduced_generator_2"].norm_sq() == 6
        assert named["ternary_recombination"].norm_sq() == 12
        assert named["canonical_generator_1"].norm_sq() == 4
        assert named["canonical_generator_2"].norm_sq() == 6
        assert named["canonical_generator_3"].norm_sq() == 32

    def test_unit_coefficients_of_reduced_generators(self, named):
        for name in ("reduced_generator_1", "reduced_generator_2",
                     "ternary_recombination"):
            assert set(map(abs, named[name].terms.values())) == {1}


class TestModuleRank:
    def test_empty(self):
        assert module_rank([], n=3, d=7) == 0

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

    def test_mixed_degrees_rejected(self, named):
        with pytest.raises(ValueError):
            module_rank([named["binary_recombination"],
                         named["reduced_generator_1"]])

    def test_sparse_orbit_path_matches_table_path(self, named, monkeypatch):
        # the sparse rows (with dedup) normally run only above d! = 45000
        mr = golden.scalars()["module_ranks_n3_d7"]
        monkeypatch.setattr(identities, "_TABLE_LIMIT", 0)
        assert module_rank([named["reduced_generator_1"]]) == \
            mr["reduced_generator_1"]
        assert module_rank([named["reduced_generator_1"],
                            named["reduced_generator_2"]]) == \
            mr["reduced_generators_1_2"]


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
        gens = generator_sieve([ns[0]], 2, 4, target=rank1)
        assert len(gens) == 1 and gens[0].cumulative_rank == rank1

    def test_one_dimensional_orbit_yields_single_generator(self):
        # the all-ones vector is permutation-invariant: 1-dim module span
        ones = [1] * 15
        gens = generator_sieve([ones, ones], 2, 4, target=1)
        assert len(gens) == 1
        assert gens[0].cumulative_rank == 1


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

    def test_certify_mode_small(self, named):
        res = new_identity_test(5, [named["binary_recombination"]],
                                mode="certify", seed=1)
        assert res.verdict == "no new identities"
        assert res.samples > 0


class TestRewriteSecondType:
    def test_binary_example(self):
        rw = rewrite_second_type(parse_bracket("[[a,b],[c,d]]"), 2)
        expected = IdentityCombination.from_terms(2, [
            (-1, parse_bracket("[[[a,b],c],d]")),
            (1, parse_bracket("[[[a,c],b],d]")),
            (1, parse_bracket("[[[b,c],d],a]")),
            (1, parse_bracket("[[[b,d],a],c]")),
            (-1, parse_bracket("[[[b,d],c],a]"))])
        assert rw == expected

    def test_ternary_term_count(self):
        rw = rewrite_second_type(parse_bracket("[[a,b,c],[d,e,f],g]"), 3)
        assert len(rw) == 11
        first_type = get_context(3, 7).types[0]
        from recomb.monomials import shape_of
        assert all(shape_of(t) == first_type for t in rw.terms)

    def test_difference_vanishes_random_labelings(self):
        rnd = random.Random(17)
        for _ in range(20):
            perm = rnd.sample(range(7), 7)
            tree = straighten(((perm[0], perm[1], perm[2]),
                               (perm[3], perm[4], perm[5]), perm[6]), 3)
            rw = rewrite_second_type(tree, 3)
            diff = rw - IdentityCombination.from_terms(3, [(1, tree)])
            assert not evaluate_identity(diff)

    def test_rejects_first_type(self):
        with pytest.raises(ValueError):
            rewrite_second_type(parse_bracket("[[[a,b,c],d,e],f,g]"), 3)

    def test_template_coefficient_is_checked(self, monkeypatch):
        template = golden.load_identity("second_type_rewrite_n3").scaled(2)
        monkeypatch.setattr(identities, "_rewrite_template", lambda n: template)
        with pytest.raises(ValueError):
            rewrite_second_type(parse_bracket("[[a,b,c],[d,e,f],g]"), 3)


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
        terms = identities._term_groups(ctx, lifted[k])
        got = dense_rows(ctx, *identities._permuted_rows(
            ctx, terms, np.array(sigmas, dtype=np.int8)))
        ref = [ctx.vector_of(apply_permutation(lifted[k], s)) for s in sigmas]
        assert got.tolist() == np.array(ref).tolist()
