import itertools
import random

import numpy as np
import pytest

from recomb import golden
from recomb.expansion import (
    build_expansion_matrix,
    evaluate_identity,
    expand_monomial,
    expand_operation,
    is_identity,
    mass,
    variable_combination,
)
from recomb.monomials import (
    IdentityCombination,
    MultilinearityError,
    get_context,
    parse_bracket,
    relabel,
)


class TestExpandOperation:
    def test_single_application_ternary(self):
        e = expand_operation([0, 1, 2])
        expected = {t: 1 for t in itertools.permutations((0, 1, 2))}
        assert e == expected

    def test_binary_left_nested(self):
        e = expand_monomial(parse_bracket("[[[a,b],c],d]"), 2)
        assert e == {(0, 3): 1, (1, 3): 1, (2, 3): 2,
                     (3, 0): 1, (3, 1): 1, (3, 2): 2}

    def test_binary_balanced(self):
        e = expand_monomial(parse_bracket("[[a,b],[c,d]]"), 2)
        assert len(e) == 8 and set(e.values()) == {1}
        assert (0, 2) in e and (3, 1) in e and (0, 1) not in e

    def test_overlapping_variables_rejected(self):
        with pytest.raises(MultilinearityError):
            expand_operation([variable_combination(0, 3),
                              variable_combination(0, 3),
                              variable_combination(2, 3)])


class TestExpandMonomial:
    def test_degree5_ternary(self):
        e = expand_monomial(parse_bracket("[[a,b,c],d,e]"), 3)
        assert len(e) == 18 and set(e.values()) == {2} and mass(e) == 36
        assert e[(0, 3, 4)] == 2 and e[(4, 3, 2)] == 2

    def test_degree7_type1(self):
        e = expand_monomial(parse_bracket("[[[a,b,c],d,e],f,g]"), 3)
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
        assert len(e) == 30 and mass(e) == 216

    def test_degree7_type2(self):
        e = expand_monomial(parse_bracket("[[a,b,c],[d,e,f],g]"), 3)
        expected = {t: 4
                    for x in range(3) for y in range(3, 6)
                    for t in itertools.permutations((x, y, 6))}
        assert e == expected
        assert len(e) == 54 and mass(e) == 216

    @pytest.mark.parametrize("s,n,k", [
        ("[a,b]", 2, 1), ("[[a,b],[c,d]]", 2, 3), ("[[a,b,c],d,e]", 3, 2),
        ("[[[a,b,c],d,e],[f,g,h],i]", 3, 4),
    ])
    def test_mass_conservation(self, s, n, k):
        import math
        e = expand_monomial(parse_bracket(s), n)
        assert mass(e) == math.factorial(n) ** k

    def test_equivariance_sample(self):
        m = parse_bracket("[[a,c,e],b,d]")
        sigma = (2, 0, 4, 1, 3)
        lhs = expand_monomial(relabel(m, sigma), 3)
        rhs = {tuple(sigma[x] for x in t): c
               for t, c in expand_monomial(m, 3).items()}
        assert lhs == rhs


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


class TestEvaluateIdentity:
    def test_binary_recombination_vanishes(self):
        assert is_identity(golden.load_identity("binary_recombination"))

    def test_reduced_binary_vanishes(self):
        assert is_identity(golden.load_identity("binary_recombination_reduced"))

    def test_non_identity(self):
        one = IdentityCombination.from_terms(3, [(1, parse_bracket("[a,b,c]"))])
        residual = evaluate_identity(one)
        assert len(residual) == 6
        assert not is_identity(one)


def column_reference(ctx, j):
    """Column j of E from its own expansion, one slot tuple at a time."""
    col = np.zeros(len(ctx.slot_tuples), dtype=np.int64)
    for tup, c in expand_monomial(ctx.monomials[j], ctx.n).items():
        col[ctx.slot_tuples.index(tup)] = c
    return col


class TestTemplateExpansion:
    def test_degree7_matches_per_column_expansion(self, E37):
        ctx = get_context(3, 7)
        ref = np.column_stack([column_reference(ctx, j)
                               for j in range(ctx.num_monomials)])
        assert E37.array.dtype == np.int64
        assert (E37.array == ref).all()

    def test_degree9_sampled_columns_match_per_column_expansion(self):
        E = build_expansion_matrix(3, 9)
        ctx = E.ctx
        rnd = random.Random(9)
        cols = set(rnd.sample(range(ctx.num_monomials), 40))
        cols |= {o for o in ctx.offsets[:-1]} | {o - 1 for o in ctx.offsets[1:]}
        for j in sorted(cols):
            assert (E.array[:, j] == column_reference(ctx, j)).all(), j
