"""Reference versions of recomb's monomial enumeration and expansion.

`enumerate_monomial_leaves` is the enumeration `recomb.monomials` replaced:
it straightens all d! permutations of 0..d-1 and keeps the fixed ones.
`straightened_candidates` is the one that replaced it in turn: it
straightens every choice of blocks and child rows and keeps the fixed ones.
`expand_monomial` is the expansion `recomb.expansion` replaced by its closed
form: the operation applied node by node, summing all n! slot assignments
of every combination of the children's slot tuples.  `slot_tuple_matrix` is
the expansion-matrix builder it replaced: one row per ordered slot tuple,
each column its type's template relabelled.  `subset_rows` ranks slot tuples
after numpy's sort of each tuple, where the package sorts them by a
compare-exchange network.  The tests require the package to return exactly
what these return.
"""

import itertools
import math

import numpy as np

from recomb.monomials import (
    MultilinearityError,
    automorphism_order,
    get_context,
    is_leaf,
    permutation_rows,
    row_codes,
    shape_degree,
    straighten_many,
    tree_from,
)


def variable_combination(v: int, n: int) -> dict:
    return {(v,) * n: 1}


def combination_variables(comb: dict) -> set:
    out: set = set()
    for tup in comb:
        out.update(tup)
    return out


def expand_operation(combos) -> dict:
    """Multilinear extension of the operation to slot combinations.

    combos: one slot combination per argument, over pairwise disjoint
    variable sets.
    """
    n = len(combos)
    seen: set = set()
    for c in combos:
        vs = combination_variables(c)
        if seen & vs:
            raise MultilinearityError("arguments share variables")
        seen |= vs

    out: dict = {}
    perms = list(itertools.permutations(range(n)))
    for choice in itertools.product(*(c.items() for c in combos)):
        coeff = 1
        for _, c in choice:
            coeff *= c
        tuples = [t for t, _ in choice]
        for sigma in perms:
            key = tuple(tuples[sigma[j]][j] for j in range(n))
            out[key] = out.get(key, 0) + coeff
    return out


def expand_monomial(tree, n: int, _memo: dict | None = None) -> dict:
    """Expansion of a canonical monomial, bottom-up with subtree memoization."""
    if _memo is None:
        _memo = {}
    got = _memo.get(tree)
    if got is not None:
        return got
    if is_leaf(tree):
        out = variable_combination(tree, n)
    else:
        out = expand_operation([expand_monomial(c, n, _memo) for c in tree])
    _memo[tree] = out
    return out


def enumerate_monomial_leaves(shape) -> np.ndarray:
    """Canonical leaf rows of a type: the lex-ordered permutation rows that
    straightening leaves fixed; their number must be d!/|Aut(shape)|."""
    d = shape_degree(shape)
    perms = permutation_rows(d)
    out = perms[(straighten_many(shape, perms) == perms).all(axis=1)]
    if len(out) != math.factorial(d) // automorphism_order(shape):
        raise RuntimeError(f"wrong monomial count for type {shape}")
    return out


def ordered_set_partitions(d: int, sizes) -> list:
    """Ordered partitions of 0..d-1 into blocks of the given sizes, each
    block increasing, as rows: the first block's choices in lex order, and
    for each the partitions of the rest."""
    rows = [((), tuple(range(d)))]
    for s in sizes:
        rows = [(row + block, tuple(x for x in rest if x not in block))
                for row, rest in rows
                for block in itertools.combinations(rest, s)]
    return [row for row, _ in rows]


def straightened_candidates(shape) -> np.ndarray:
    """Canonical leaf rows of a type: every candidate (an ordered choice of
    blocks of variables, each holding a canonical row of its child's type),
    kept where straightening leaves it fixed, in lex order; their number
    must be d!/|Aut(shape)|."""
    d = shape_degree(shape)
    if d == 1:
        return np.zeros((1, 1), dtype=np.int8)
    parts = np.array(ordered_set_partitions(
        d, [shape_degree(c) for c in shape]), dtype=np.int8)
    where = np.zeros((1, 0), dtype=np.intp)
    lo = 0
    for child in shape:
        kid = straightened_candidates(child).astype(np.intp) + lo
        where = np.hstack([np.repeat(where, len(kid), axis=0),
                           np.tile(kid, (len(where), 1))])
        lo += shape_degree(child)
    rows = parts[:, where].reshape(-1, d)
    rows = rows[(straighten_many(shape, rows) == rows).all(axis=1)]
    out = rows[np.argsort(row_codes(rows, d))]
    if len(out) != math.factorial(d) // automorphism_order(shape):
        raise RuntimeError(f"wrong monomial count for type {shape}")
    return out


def slot_tuple_matrix(n: int, d: int, dtype=np.int64) -> np.ndarray:
    """E with one row per ordered slot tuple, in the order of slot_tuples."""
    ctx = get_context(n, d)
    arr = np.zeros((len(ctx.slot_tuples), ctx.num_monomials), dtype=dtype)
    if not ctx.slot_tuples:
        return arr
    slot_row = np.full(d ** n, -1, dtype=np.int64)
    slot_row[row_codes(ctx.slot_tuples, d)] = np.arange(len(ctx.slot_tuples))
    for ti, (shape, lvs) in enumerate(zip(ctx.types, ctx.leaves_by_type)):
        template = expand_monomial(tree_from(shape, range(d)), n)
        tuples = np.array(list(template), dtype=np.intp)
        rows = slot_row[row_codes(lvs[:, tuples], d)]
        assert (rows >= 0).all(), "a relabelled slot tuple has no matrix row"
        cols = np.arange(ctx.offsets[ti], ctx.offsets[ti + 1])
        arr[rows, cols[:, None]] = np.fromiter(template.values(), dtype=dtype)
    return arr


def subset_rows(n: int, d: int, tuples) -> np.ndarray:
    """Lex rank of the sorted n-subset of each slot tuple, from numpy's sort
    of every tuple; 0 for every tuple below degree n."""
    s = np.sort(tuples, axis=-1)
    if d < n:
        return np.zeros(s.shape[:-1], dtype=np.int64)
    comb = np.array([[math.comb(a, k) for k in range(n + 1)]
                     for a in range(d)], dtype=np.int64)
    return math.comb(d, n) - 1 - comb[d - 1 - s, np.arange(n, 0, -1)].sum(-1)
