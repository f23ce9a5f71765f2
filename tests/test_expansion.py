import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expansion_oracles as oracles
from recomb import expansion, golden, identities
from recomb.expansion import (
    build_expansion_matrix,
    expand_monomial,
)
from recomb.identities import expansion_rank
from recomb.linalg import (
    ModularRankAccumulator,
    nullspace_lattice,
    rcf,
    rcf_nullspace,
)
from recomb.monomials import (
    MultilinearityError,
    get_context,
    parse_bracket,
    relabel,
    tree_from,
)


class TestExpandOperation:
    def test_single_application_ternary(self):
        e = oracles.expand_operation([oracles.variable_combination(v, 3)
                                      for v in range(3)])
        expected = {t: 1 for t in itertools.permutations((0, 1, 2))}
        assert e == expected

    def test_binary_left_nested(self):
        e = oracles.expand_monomial(parse_bracket("[[[a,b],c],d]"), 2)
        assert e == {(0, 3): 1, (1, 3): 1, (2, 3): 2,
                     (3, 0): 1, (3, 1): 1, (3, 2): 2}

    def test_binary_balanced(self):
        e = oracles.expand_monomial(parse_bracket("[[a,b],[c,d]]"), 2)
        assert len(e) == 8 and set(e.values()) == {1}
        assert (0, 2) in e and (3, 1) in e and (0, 1) not in e

    def test_overlapping_variables_rejected(self):
        with pytest.raises(MultilinearityError):
            oracles.expand_operation([oracles.variable_combination(0, 3),
                                      oracles.variable_combination(0, 3),
                                      oracles.variable_combination(2, 3)])


class TestExpandMonomial:
    def test_degree5_ternary(self):
        e = oracles.expand_monomial(parse_bracket("[[a,b,c],d,e]"), 3)
        assert len(e) == 18 and set(e.values()) == {2} and sum(e.values()) == 36
        assert e[(0, 3, 4)] == 2 and e[(4, 3, 2)] == 2

    def test_degree7_type1(self):
        e = oracles.expand_monomial(parse_bracket("[[[a,b,c],d,e],f,g]"), 3)
        expected = {}
        for x in range(5):
            w = 4 if x < 3 else 12
            for pos in range(3):
                for fg in itertools.permutations((5, 6)):
                    t = [None] * 3
                    t[pos] = x
                    rest = [q for q in range(3) if q != pos]
                    t[rest[0]], t[rest[1]] = fg
                    expected[tuple(t)] = w
        assert e == expected
        assert len(e) == 30 and sum(e.values()) == 216

    def test_degree7_type2(self):
        e = oracles.expand_monomial(parse_bracket("[[a,b,c],[d,e,f],g]"), 3)
        expected = {t: 4
                    for x in range(3) for y in range(3, 6)
                    for t in itertools.permutations((x, y, 6))}
        assert e == expected
        assert len(e) == 54 and sum(e.values()) == 216

    @pytest.mark.parametrize("s,n,k", [
        ("[a,b]", 2, 1), ("[[a,b],[c,d]]", 2, 3), ("[[a,b,c],d,e]", 3, 2),
        ("[[[a,b,c],d,e],[f,g,h],i]", 3, 4),
    ])
    def test_mass_conservation(self, s, n, k):
        e = oracles.expand_monomial(parse_bracket(s), n)
        assert sum(e.values()) == math.factorial(n) ** k

    def test_equivariance_sample(self):
        m = parse_bracket("[[a,c,e],b,d]")
        sigma = (2, 0, 4, 1, 3)
        lhs = oracles.expand_monomial(relabel(m, sigma), 3)
        rhs = {tuple(sigma[x] for x in t): c
               for t, c in oracles.expand_monomial(m, 3).items()}
        assert lhs == rhs

    @pytest.mark.parametrize("tree", [(0, 0, 2), ((0, 1, 2), 3, 0),
                                      ((0, 1, 1), 2, 3)])
    def test_repeated_variable_rejected(self, tree):
        with pytest.raises(MultilinearityError):
            expand_monomial(tree, 3)

    @pytest.mark.parametrize("s,n", [("[[a,b],c,d]", 3), ("[[a,b,c],d,e]", 2)])
    def test_wrong_arity_rejected(self, s, n):
        with pytest.raises(ValueError) as err:
            expand_monomial(parse_bracket(s), n)
        assert err.type is ValueError


def shuffled(tree, rnd):
    """The tree with every node's children in random order."""
    if isinstance(tree, int):
        return tree
    kids = [shuffled(c, rnd) for c in tree]
    rnd.shuffle(kids)
    return tuple(kids)


class TestClosedForm:
    @pytest.mark.parametrize("n,d", [
        (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 3), (3, 5), (3, 7),
        (3, 9), (4, 7), (4, 10), (5, 9)])
    def test_matches_recursive_expansion(self, n, d):
        rnd = random.Random(100 * n + d)
        for shape in get_context(n, d).types:
            tree = tree_from(shape, range(d))
            ref = oracles.expand_monomial(tree, n)
            assert expand_monomial(tree, n) == ref
            # the template is the reference's subsets in lex order
            subsets, coeffs = expansion._subset_template(shape, n, d)
            ref_subsets = sorted({tuple(sorted(t)) for t in ref})
            assert subsets.tolist() == [list(t) for t in ref_subsets]
            assert coeffs.tolist() == [ref[t] for t in ref_subsets]
            for _ in range(3):
                other = shuffled(relabel(tree, rnd.sample(range(d), d)), rnd)
                assert (expand_monomial(other, n)
                        == oracles.expand_monomial(other, n))


class TestMatrix:
    def test_binary_degree4_golden(self, E24):
        assert E24.array.tolist() == \
            [list(r) for r in golden.load_matrix("expansion_matrix_n2_d4")]

    def test_shapes(self, E35, E37):
        assert E35.array.shape == (60, 10)
        assert E37.array.shape == (210, 280)

    def test_column_mass_degree7(self, E37):
        assert (E37.array.sum(axis=0) == 216).all()

    def test_smallest_matrix(self):
        E = build_expansion_matrix(3, 3)
        assert E.array.shape == (6, 1)
        assert (E.array == 1).all()

    def test_same_type_columns_related_by_row_permutation(self, E24):
        ctx = get_context(2, 4)
        slot_index = {t: i for i, t in enumerate(ctx.slot_tuples)}
        sigma = (1, 2, 3, 0)
        for j in (0, 5, 13):
            k = ctx.permuted_columns(sigma)[j]
            for i, tup in enumerate(ctx.slot_tuples):
                i2 = slot_index[tuple(sigma[x] for x in tup)]
                assert E24.array[i2, k] == E24.array[i, j]


def column_reference(ctx, j):
    """Column j of E from its own expansion, one slot tuple at a time."""
    col = np.zeros(len(ctx.slot_tuples), dtype=np.int64)
    for tup, c in oracles.expand_monomial(ctx.monomials[j], ctx.n).items():
        col[ctx.slot_tuples.index(tup)] = c
    return col


def sampled_columns(ctx, k, seed):
    """k random columns plus the first and last column of every type."""
    cols = set(random.Random(seed).sample(range(ctx.num_monomials), k))
    cols |= {o for o in ctx.offsets[:-1]} | {o - 1 for o in ctx.offsets[1:]}
    return sorted(cols)


class TestTemplateExpansion:
    def test_degree7_matches_per_column_expansion(self, E37):
        ctx = get_context(3, 7)
        ref = np.column_stack([column_reference(ctx, j)
                               for j in range(ctx.num_monomials)])
        assert E37.array.dtype == np.int64
        assert (E37.array == ref).all()

    def test_binary_degree4_matches_per_column_expansion(self, E24):
        ctx = get_context(2, 4)
        ref = np.column_stack([column_reference(ctx, j)
                               for j in range(ctx.num_monomials)])
        assert (E24.array == ref).all()

    def test_degree9_sampled_columns_match_per_column_expansion(self):
        E = build_expansion_matrix(3, 9)
        for j in sampled_columns(E.ctx, 40, 9):
            assert (E.array[:, j] == column_reference(E.ctx, j)).all(), j

    def test_quaternary_degree10_sampled_columns_match_per_column_expansion(
            self):
        E = build_expansion_matrix(4, 10)
        for j in sampled_columns(E.ctx, 30, 10):
            assert (E.array[:, j] == column_reference(E.ctx, j)).all(), j

    @pytest.mark.parametrize("n,d", [(3, 3), (2, 4), (2, 5), (3, 5), (3, 7),
                                     (4, 10)])
    def test_matches_slot_tuple_builder(self, n, d):
        E = build_expansion_matrix(n, d)
        assert E.subset_rows.shape == (math.comb(d, n), E.ctx.num_monomials)
        assert E.shape == E.array.shape
        assert np.array_equal(E.array, oracles.slot_tuple_matrix(n, d))

    @pytest.mark.parametrize("n,d", [(2, 4), (3, 5), (3, 7)])
    def test_subset_rows_give_the_nullspaces_of_the_full_matrix(self, n, d):
        # nullspaces are computed from the C(d,n) subset rows, not from the
        # n!-times repeated rows of E.array; both are canonical in the rows'
        # span, so they must agree vector for vector
        E = build_expansion_matrix(n, d)
        full = E.array.tolist()
        assert rcf_nullspace(E.subset_rows) == rcf_nullspace(full)
        assert nullspace_lattice(E.subset_rows) == nullspace_lattice(full)


class TestSubsetRows:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_numpy_sort(self, data):
        # the network sorts each tuple as numpy does, for any leading shape;
        # below degree n (degree 1) every tuple is the lone (0, ..., 0)
        n = data.draw(st.integers(1, 6), label="n")
        d = data.draw(st.integers(1, 12), label="d")
        lead = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=2),
                         label="leading shape")
        tuple_of = (st.permutations(range(d)).map(lambda p: p[:n])
                    if d >= n else st.just((0,) * n))
        tuples = data.draw(st.lists(tuple_of, min_size=math.prod(lead),
                                    max_size=math.prod(lead)))
        dtype = data.draw(st.sampled_from([np.int8, np.int64]))
        tuples = np.array(tuples, dtype=dtype).reshape(*lead, n)
        before = tuples.copy()
        got = expansion._subset_rows(n, d, tuples)
        assert got.dtype == np.int64 and got.shape == tuple(lead)
        assert np.array_equal(got, oracles.subset_rows(n, d, tuples))
        assert np.array_equal(tuples, before)


class TestExpansionRank:
    @pytest.mark.parametrize("n,d,expected", [
        (2, 4, (6, 9)), (3, 5, (10, 0)), (3, 7, (35, 245)), (4, 7, (35, 0))])
    def test_matches_exact_rank(self, n, d, expected):
        E = build_expansion_matrix(n, d)
        rank = rcf(E.array.tolist()).rank
        assert (rank, E.shape[1] - rank) == expected
        assert expansion_rank(n, d) == expansion_rank(n, d, 103) == expected
        # E has C(d,n) distinct rows, all independent here
        assert rank == math.comb(d, n)

    def test_quinary_degree13_has_full_rank(self):
        # the arity-5 nested templates; rank C(13,5) makes the mod-p value
        # the rational one
        width = get_context(5, 13).num_monomials
        assert expansion_rank(5, 13, 101) == (math.comb(13, 5),
                                               width - math.comb(13, 5))

    def test_ternary_degree11_has_full_rank(self):
        # the n-ary table's (3,11) row; rank C(11,3) is reached in block 18
        # of 224, where the stream stops
        assert expansion_rank(3, 11, 101) == (math.comb(11, 3), 1401235)

    @pytest.mark.parametrize("p", [2, 3, 101, 103])
    @pytest.mark.parametrize("n,d", [(2, 4), (3, 7), (4, 7), (5, 9), (3, 9)])
    def test_early_stop_matches_the_full_stream(self, n, d, p):
        # expansion_rank stops streaming once the rank reaches C(d,n); one
        # accumulator fed every column block must give the same rank.  At
        # p = 2 and 3 the rank stays below C(d,n) in most of these cases,
        # so the stream runs to its end there
        ctx = get_context(n, d)
        acc = ModularRankAccumulator(expansion._height(n, d), p)
        for _, rows, coeffs in expansion.column_blocks(ctx):
            acc.add_rows(rows, coeffs)
        rank = acc.rank()
        assert expansion_rank(n, d, p) == (rank, ctx.num_monomials - rank)

    def test_stream_stops_at_full_rank(self, monkeypatch):
        # at (3,9) the first of the 4 column blocks already has rank C(9,3)
        taken = []

        def counted(ctx):
            for block in expansion.column_blocks(ctx):
                taken.append(block[0])
                yield block

        monkeypatch.setattr(identities, "column_blocks", counted)
        assert expansion_rank(3, 9) == (84, 15316)
        assert taken == [0]
        assert len(list(expansion.column_blocks(get_context(3, 9)))) == 4
