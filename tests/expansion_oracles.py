"""Reference versions of recomb's monomial enumeration and expansion matrix.

`enumerate_monomial_leaves` is the enumeration `recomb.monomials` replaced:
it straightens all d! permutations of 0..d-1 and keeps the fixed ones.
`slot_tuple_matrix` is the expansion-matrix builder `recomb.expansion`
replaced: one row per ordered slot tuple, each column its type's template
relabelled.  The tests require the package to return exactly what these
return.
"""

import math

import numpy as np

from recomb.expansion import expand_monomial
from recomb.monomials import (
    automorphism_order,
    get_context,
    permutation_rows,
    row_codes,
    shape_degree,
    straighten_many,
    tree_from,
)


def enumerate_monomial_leaves(shape) -> np.ndarray:
    """Canonical leaf rows of a type: the lex-ordered permutation rows that
    straightening leaves fixed; their number must be d!/|Aut(shape)|."""
    d = shape_degree(shape)
    perms = permutation_rows(d)
    out = perms[(straighten_many(shape, perms) == perms).all(axis=1)]
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
