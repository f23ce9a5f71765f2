import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expansion_oracles as oracles
from recomb import golden, monomials
from recomb.linalg import squared_norm
from recomb.monomials import (
    DegreeContext,
    IdentityCombination,
    InvalidDegreeError,
    MultilinearityError,
    apply_permutation,
    automorphism_order,
    check_permutation,
    enumerate_canonical_types,
    enumerate_monomial_leaves,
    get_context,
    leaves,
    monomial_key,
    order_slot_tuples,
    parse_bracket,
    relabel,
    _ordered_set_partitions,
    shape_degree,
    straighten,
    straighten_many,
    to_bracket,
    tree_degree,
    tree_from,
)


def bracket_types(n, d):
    return [to_bracket(tree_from(s, range(shape_degree(s))))
            for s in enumerate_canonical_types(n, d)]


class TestTypes:
    @pytest.mark.parametrize("n,d,count", [
        (3, 3, 1), (3, 5, 1), (3, 7, 2), (3, 9, 4), (2, 4, 2), (2, 5, 3),
    ])
    def test_counts(self, n, d, count):
        assert len(enumerate_canonical_types(n, d)) == count

    def test_degree9_listing_order(self):
        assert bracket_types(3, 9) == [
            "[[[[a,b,c],d,e],f,g],h,i]",
            "[[[a,b,c],[d,e,f],g],h,i]",
            "[[[a,b,c],d,e],[f,g,h],i]",
            "[[a,b,c],[d,e,f],[g,h,i]]",
        ]

    def test_degree7_listing_order(self):
        assert bracket_types(3, 7) == [
            "[[[a,b,c],d,e],f,g]", "[[a,b,c],[d,e,f],g]"]

    def test_degree_formula(self):
        for s in enumerate_canonical_types(3, 9) + enumerate_canonical_types(2, 5):
            internal = str(s).count("(")
            n = 3 if s in enumerate_canonical_types(3, 9) else 2
            assert shape_degree(s) == internal * (n - 1) + 1

    def test_invalid_degree(self):
        with pytest.raises(InvalidDegreeError):
            enumerate_canonical_types(3, 4)
        with pytest.raises(InvalidDegreeError):
            enumerate_canonical_types(3, 0)
        with pytest.raises(ValueError):
            enumerate_canonical_types(1, 3)


class TestMonomials:
    @pytest.mark.parametrize("n,d,counts", [
        (2, 4, [12, 3]), (3, 5, [10]), (3, 7, [210, 70]),
    ])
    def test_counts(self, n, d, counts):
        ctx = get_context(n, d)
        assert ctx.type_counts == counts

    def test_degree5_listing(self):
        ctx = get_context(3, 5)
        assert [to_bracket(m) for m in ctx.monomials] == [
            "[[a,b,c],d,e]", "[[a,b,d],c,e]", "[[a,b,e],c,d]",
            "[[a,c,d],b,e]", "[[a,c,e],b,d]", "[[a,d,e],b,c]",
            "[[b,c,d],a,e]", "[[b,c,e],a,d]", "[[b,d,e],a,c]",
            "[[c,d,e],a,b]"]

    def test_binary_degree4_listing(self):
        ctx = get_context(2, 4)
        assert [to_bracket(m) for m in ctx.monomials] == [
            "[[[a,b],c],d]", "[[[a,b],d],c]", "[[[a,c],b],d]",
            "[[[a,c],d],b]", "[[[a,d],b],c]", "[[[a,d],c],b]",
            "[[[b,c],a],d]", "[[[b,c],d],a]", "[[[b,d],a],c]",
            "[[[b,d],c],a]", "[[[c,d],a],b]", "[[[c,d],b],a]",
            "[[a,b],[c,d]]", "[[a,c],[b,d]]", "[[a,d],[b,c]]"]

    def test_strictly_increasing_and_duplicate_free(self):
        ctx = get_context(3, 7)
        keys = [monomial_key(m) for m in ctx.monomials]
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_counts_match_automorphism_formula(self):
        for n, d in [(2, 4), (2, 5), (3, 5), (3, 7)]:
            for s in enumerate_canonical_types(n, d):
                expected = math.factorial(d) // automorphism_order(s)
                assert len(enumerate_monomial_leaves(s)) == expected

    def test_every_monomial_is_canonical(self):
        for m in get_context(3, 7).monomials[:50]:
            assert straighten(m, 3) == m

    @pytest.mark.parametrize("n,d", [(2, 4), (2, 5), (2, 7), (3, 5), (3, 7),
                                     (3, 9), (4, 7), (4, 10)])
    def test_enumeration_matches_permutation_filter(self, n, d):
        for s in enumerate_canonical_types(n, d):
            got = enumerate_monomial_leaves(s)
            assert got.dtype == np.int8
            assert np.array_equal(got, oracles.enumerate_monomial_leaves(s))

    @pytest.mark.parametrize("n,d", [(2, 8), (3, 9), (4, 10), (5, 9), (6, 11)])
    def test_enumeration_matches_straightened_candidates(self, n, d):
        # the run filter keeps exactly the candidates that straightening
        # fixes, row for row; (6,11) has 11! permutations, too many for the
        # permutation filter above
        for s in enumerate_canonical_types(n, d):
            assert np.array_equal(enumerate_monomial_leaves(s),
                                  oracles.straightened_candidates(s))

    @pytest.mark.parametrize("d,sizes", [
        (13, (10, 1, 1, 1)), (9, (5, 3, 1)), (8, (4, 4)), (7, (3, 3, 1)),
        (5, (5,)), (1, (1,))])
    def test_ordered_set_partitions_match_itertools(self, d, sizes):
        got = _ordered_set_partitions(d, sizes)
        assert got.dtype == np.int8
        assert got.tolist() == [list(r) for r in
                                oracles.ordered_set_partitions(d, sizes)]

    def test_quinary_degree13_context_peak(self):
        # 126126 monomials of 13 int8 leaves, 1.6 MB; straightening every
        # candidate peaked at 81 MB, the run filter at about 17 MB
        tracemalloc.start()
        try:
            ctx = DegreeContext(5, 13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ctx.num_monomials == 126126
        assert peak < 40 * 2**20

    def test_rank_path_builds_no_trees_or_slot_tuples(self):
        from recomb.identities import expansion_rank
        get_context.cache_clear()
        assert expansion_rank(3, 9) == (84, 15316)
        ctx = get_context(3, 9)
        assert not {"monomials", "slot_tuples"} & set(vars(ctx))
        # they are built on first use, in column order
        last = IdentityCombination(3, 9, {ctx.monomials[-1]: 1})
        assert len(ctx.monomials) == ctx.num_monomials
        assert ctx.vector_of(last).nonzero()[0].tolist() == \
            [ctx.num_monomials - 1]
        assert len(ctx.slot_tuples) == 504

    def test_vector_of_matches_tree_columns(self):
        ctx = get_context(3, 7)
        idc = golden.load_identity("ternary_recombination")
        ref = np.zeros(ctx.num_monomials, dtype=np.int64)
        for tree, c in idc.terms.items():
            ref[ctx.monomials.index(tree)] = c
        assert ctx.vector_of(idc).tolist() == ref.tolist()


class TestStraighten:
    def test_sorting_children(self):
        t = parse_bracket("[[[b,a,c],e,d],g,f]")
        assert to_bracket(straighten(t, 3)) == "[[[a,b,c],d,e],f,g]"

    def test_composite_before_leaf(self):
        t = parse_bracket("[g,[d,e,f],[a,b,c]]")
        assert to_bracket(straighten(t, 3)) == "[[a,b,c],[d,e,f],g]"

    def test_idempotent_and_orbit_invariant(self):
        rnd = random.Random(20240817)

        def random_tree(n, d):
            if d == 1:
                return None  # placeholder, replaced by labels below
            parts = []
            left = d
            for i in range(n):
                hi = left - (n - 1 - i)
                choices = [k for k in range(1, hi + 1) if (k - 1) % (n - 1) == 0]
                k = rnd.choice(choices) if i < n - 1 else left
                parts.append(k)
                left -= k
            return tuple(random_tree(n, k) for k in parts)

        def label(tree, it):
            if tree is None:
                return next(it)
            return tuple(label(c, it) for c in tree)

        def shuffled(tree):
            if isinstance(tree, int):
                return tree
            kids = [shuffled(c) for c in tree]
            rnd.shuffle(kids)
            return tuple(kids)

        for _ in range(1000):
            n = rnd.choice([2, 3])
            d = rnd.choice([n, 2 * n - 1, 3 * n - 2, 4 * n - 3])
            shape = random_tree(n, d)
            labels = list(range(d))
            rnd.shuffle(labels)
            t = label(shape, iter(labels))
            s = straighten(t, n)
            assert straighten(s, n) == s
            assert straighten(shuffled(t), n) == s

    def test_multilinearity_error(self):
        with pytest.raises(MultilinearityError):
            straighten(parse_bracket("[[a,c,e],b,e]"), 3)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            straighten(parse_bracket("[[a,b],c,d]"), 3)


class TestSlotTuples:
    def test_binary_degree4(self):
        st = order_slot_tuples(2, 4)
        assert len(st) == 12
        assert st[0] == (0, 1) and st[-1] == (3, 2)

    @pytest.mark.parametrize("n,d,count", [(3, 7, 210), (3, 9, 504), (3, 5, 60)])
    def test_counts(self, n, d, count):
        assert len(order_slot_tuples(n, d)) == count

    def test_too_small_degree(self):
        with pytest.raises(ValueError):
            order_slot_tuples(3, 2)


class TestPermutations:
    def test_identity_action(self):
        idc = IdentityCombination.from_terms(
            3, [(2, parse_bracket("[[a,b,c],d,e]")),
                (-1, parse_bracket("[[a,b,d],c,e]"))])
        assert apply_permutation(idc, (0, 1, 2, 3, 4)) == idc

    def test_symmetric_slot_collapse(self):
        one = IdentityCombination.from_terms(
            3, [(1, parse_bracket("[[a,b,c],d,e]"))])
        swap_ab = (1, 0, 2, 3, 4)
        assert apply_permutation(one, swap_ab) == one

    def test_group_action(self):
        rnd = random.Random(5)
        idc = IdentityCombination.from_terms(
            3, [(1, parse_bracket("[[a,b,c],d,e]")),
                (-2, parse_bracket("[[c,d,e],a,b]"))])
        for _ in range(25):
            sigma = tuple(rnd.sample(range(5), 5))
            tau = tuple(rnd.sample(range(5), 5))
            lhs = apply_permutation(apply_permutation(idc, sigma), tau)
            rhs = apply_permutation(idc, tuple(tau[s] for s in sigma))
            assert lhs == rhs
        sigma = tuple(rnd.sample(range(5), 5))
        inverse = tuple(sorted(range(5), key=sigma.__getitem__))
        assert apply_permutation(apply_permutation(idc, sigma), inverse) == idc

    def test_size_mismatch(self):
        idc = IdentityCombination.from_terms(
            3, [(1, parse_bracket("[[a,b,c],d,e]"))])
        with pytest.raises(ValueError):
            apply_permutation(idc, (1, 0, 2))
        with pytest.raises(ValueError):
            check_permutation((0, 0, 1, 2, 3), 5)


class TestIdentityCombination:
    def test_merge_and_cancel(self):
        t1 = parse_bracket("[[a,b,c],d,e]")
        t2 = parse_bracket("[[c,b,a],e,d]")  # same canonical monomial
        idc = IdentityCombination.from_terms(3, [(1, t1), (-1, t2)])
        assert len(idc) == 0

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError):
            IdentityCombination.from_terms(
                3, [(1, parse_bracket("[a,b,c]")),
                    (1, parse_bracket("[[a,b,c],d,e]"))])

    def test_normalized_sign(self):
        idc = IdentityCombination.from_terms(
            3, [(-2, parse_bracket("[[a,b,c],d,e]")),
                (1, parse_bracket("[[c,d,e],a,b]"))])
        norm = idc.normalized()
        lead = min(norm.terms, key=monomial_key)
        assert norm.terms[lead] > 0
        assert squared_norm(norm.terms.values()) \
            == squared_norm(idc.terms.values()) == 5

    def test_merge_and_sum(self):
        t1 = parse_bracket("[[a,b,c],d,e]")
        t2 = parse_bracket("[[b,c,d],a,e]")
        diff = IdentityCombination.from_terms(3, [(1, t1), (3, t2), (-1, t1)])
        assert len(diff) == 1
        assert diff.terms == {t2: 3}
        assert IdentityCombination.from_terms(
            3, [(1, t1), (1, t1)]).terms == {t1: 2}

    def test_explicit_degree(self):
        assert len(IdentityCombination.from_terms(3, [], 5)) == 0
        with pytest.raises(ValueError):
            IdentityCombination.from_terms(3, [])
        with pytest.raises(ValueError):
            IdentityCombination.from_terms(
                3, [(1, parse_bracket("[[a,b,c],d,e]"))], 7)


class TestBrackets:
    def test_round_trip(self):
        for s in ["[[[a,b],c],d]", "[[a,b,c],[d,e,f],g]", "a"]:
            assert to_bracket(parse_bracket(s)) == s

    def test_whitespace(self):
        assert parse_bracket(" [ [a, b , c ], d ,e ] ") == \
            parse_bracket("[[a,b,c],d,e]")
        assert parse_bracket(" [ a , [b,c ] ,d] ") == (0, (1, 2), 3)

    def test_errors(self):
        # a variable is one lowercase letter, between delimiters
        for bad in ["", "[a,b", "[a,b],c]x", "[a,,b]", "[1,2]", "[ab,c]",
                    "[a b]", "[,a]", "[a,]", "[]", "a]", "[a,b]]", "[A,b]",
                    "[a,1]"]:
            with pytest.raises(ValueError):
                parse_bracket(bad)

    def test_relabel(self):
        t = parse_bracket("[[a,b,c],d,e]")
        assert to_bracket(relabel(t, (4, 3, 2, 1, 0))) == "[[e,d,c],b,a]"
        assert tree_degree(t) == 5


# runs of 2 to 5 equal leaves, and of 2 and 3 equal composite children
ENGINE_CASES = [(n, d, s) for n, d in [(2, 4), (2, 5), (3, 5), (3, 7), (3, 9),
                                       (4, 7), (5, 9), (4, 10)]
                for s in enumerate_canonical_types(n, d)] + [
    (4, 13, enumerate_canonical_types(4, 13)[-1])]


def table_reference(ctx, perm_indices):
    """perm_table_inv rows by relabelling and straightening trees."""
    perms = list(itertools.permutations(range(ctx.d)))
    column = {m: j for j, m in enumerate(ctx.monomials)}
    out = []
    for s in perm_indices:
        row = [0] * ctx.num_monomials
        for j, m in enumerate(ctx.monomials):
            row[column[straighten(relabel(m, perms[s]), ctx.n)]] = j
        out.append(row)
    return out


class TestStraightenMany:
    @pytest.mark.parametrize("n,d,shape", ENGINE_CASES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_tree_straightener(self, n, d, shape, data):
        rows = data.draw(st.lists(st.permutations(range(d)),
                                  min_size=1, max_size=6))
        got = straighten_many(shape, np.array(rows, dtype=np.int8))
        assert got.tolist() == [list(leaves(straighten(tree_from(shape, r), n)))
                                for r in rows]

    def test_input_is_not_modified(self):
        shape = enumerate_canonical_types(3, 7)[0]
        rows = np.array([[6, 5, 4, 3, 2, 1, 0]], dtype=np.int8)
        straighten_many(shape, rows)
        assert rows.tolist() == [[6, 5, 4, 3, 2, 1, 0]]

    def test_non_canonical_row_has_no_column(self):
        ctx = get_context(3, 5)
        with pytest.raises(RuntimeError):
            ctx.relabelled_columns(0, ctx.leaves_by_type[0][:1],
                                   [[0, 0, 1, 2, 3]])

    def test_monomial_count_is_checked(self, monkeypatch):
        monkeypatch.setattr(monomials, "automorphism_order", lambda s: 1)
        with pytest.raises(RuntimeError):
            enumerate_monomial_leaves(enumerate_canonical_types(3, 5)[0])


class TestPermutationTable:
    @pytest.mark.parametrize("n,d", [(2, 4), (3, 5)])
    def test_full_table_matches_tree_reference(self, n, d):
        ctx = get_context(n, d)
        table = ctx.perm_table_inv()
        assert table.tolist() == table_reference(ctx, range(math.factorial(d)))

    def test_sampled_degree7_rows_match_tree_reference(self):
        ctx = get_context(3, 7)
        table = ctx.perm_table_inv()
        rows = random.Random(7).sample(range(5040), 12) + [0, 5039]
        assert table[rows].tolist() == table_reference(ctx, rows)

    @settings(max_examples=25, deadline=None)
    @given(sigma=st.permutations(range(9)))
    def test_permuted_columns_match_tree_reference(self, sigma):
        ctx = get_context(3, 9)
        cols = ctx.permuted_columns(sigma)
        column = {m: j for j, m in enumerate(ctx.monomials)}
        for j in range(0, ctx.num_monomials, 97):
            m = ctx.monomials[j]
            assert cols[j] == column[straighten(relabel(m, sigma), 3)]
