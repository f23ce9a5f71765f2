"""Expansion of monomials into slot-tuple combinations.

The n-ary operation on molecules (x1, ..., xn) sums, over all permutations
sigma of the n arguments, the tuple whose slot j holds the slot-j piece of
argument sigma(j).  A slot combination maps slot tuples (tuples of variable
indices) to integer coefficients.  A lone variable x is represented by the
single tuple (x, ..., x): x occupies every slot of its own molecule.

Expanding a monomial with k operation applications yields total coefficient
mass (n!)^k; the expansion matrix E collects these coefficients with one row
per slot tuple and one column per monomial, and polynomial identities are
exactly the integer nullspace vectors of E.

E has only C(d,n) distinct rows: the n! orderings of one set of n
variables share a row.  Column j of E is the expansion of its type's
template (leaves 0..d-1 in order) relabelled by the leaf row of monomial j,
because expansion commutes with relabelling.  So E is built with one row
per sorted n-subset, from one expansion per type, and each template is
checked to be slot-symmetric: every ordering of each of its subsets occurs,
all with one coefficient.  A relabelling maps the orderings of a subset
onto the orderings of its image with the same coefficients, so the check
on the templates proves the row identity for every column of E.  The full
slot-tuple matrix is the subset matrix with each row repeated.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

from .monomials import (
    DegreeContext,
    IdentityCombination,
    MultilinearityError,
    get_context,
    is_leaf,
    row_codes,
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


def evaluate_identity(idc: IdentityCombination, _memo: dict | None = None) -> dict:
    """Signed expansion of a combination; the combination is an identity iff
    the result is empty."""
    if _memo is None:
        _memo = {}
    acc: dict = {}
    for tree, coeff in idc.terms.items():
        for tup, c in expand_monomial(tree, idc.n, _memo).items():
            val = acc.get(tup, 0) + coeff * c
            if val:
                acc[tup] = val
            else:
                acc.pop(tup, None)
    return acc


# elements of E per block of columns, bounding the builders' temporaries
_BLOCK = 1 << 20


def _subset_template(shape, n: int, d: int) -> tuple:
    """(sorted n-subsets, coefficients) of a type's template expansion.

    Raises RuntimeError unless each subset's n! orderings all occur in the
    expansion with one coefficient.
    """
    template = expand_monomial(tree_from(shape, range(d)), n)
    tuples = np.array(list(template), dtype=np.int64).reshape(-1, n)
    coeffs = np.fromiter(template.values(), dtype=np.int64, count=len(template))
    subsets = np.sort(tuples, axis=1)
    _, first, inverse, counts = np.unique(
        row_codes(subsets, d), return_index=True, return_inverse=True,
        return_counts=True)
    if ((subsets[:, 1:] == subsets[:, :-1]).any()
            or (counts != math.factorial(n)).any()
            or (coeffs != coeffs[first][inverse]).any()):
        raise RuntimeError(f"the expansion of type {shape} is not "
                           "slot-symmetric")
    return subsets[first], coeffs[first]


def _subset_rows(n: int, d: int, tuples) -> np.ndarray:
    """Row of the sorted n-subset of each slot tuple, subsets in lex order."""
    index = np.full(d ** n, -1, dtype=np.int64)
    subsets = np.array(list(itertools.combinations(range(d), n)),
                       dtype=np.int64).reshape(-1, n)
    index[row_codes(subsets, d)] = np.arange(len(subsets))
    return index[row_codes(np.sort(tuples, axis=-1), d)]


def column_blocks(ctx: DegreeContext):
    """Blocks of columns of E on the subset rows, as (first column, rows,
    coefficients).

    A block holds consecutive columns of one type: column lo + i has
    coefficient coeffs[j] in subset row rows[i, j].
    """
    n, d = ctx.n, ctx.d
    height = math.comb(d, n)
    if not height:
        return
    step = max(1, _BLOCK // height)
    for ti, (shape, lvs) in enumerate(zip(ctx.types, ctx.leaves_by_type)):
        subsets, coeffs = _subset_template(shape, n, d)
        for lo in range(0, len(lvs), step):
            yield (ctx.offsets[ti] + lo,
                   _subset_rows(n, d, lvs[lo:lo + step][:, subsets]), coeffs)


class ExpansionMatrix:
    """Integer matrix: rows = slot tuples, columns = canonical monomials.

    Held as `subset_rows`, one row per sorted n-subset of variables in lex
    order; `array` is the full matrix, the row of each slot tuple's subset
    repeated for every slot tuple, built on first use.
    """

    def __init__(self, ctx: DegreeContext, subset_rows: np.ndarray):
        self.ctx = ctx
        self.n = ctx.n
        self.d = ctx.d
        self.subset_rows = subset_rows

    @cached_property
    def array(self) -> np.ndarray:
        tuples = np.array(self.ctx.slot_tuples, dtype=np.int64)
        return self.subset_rows[_subset_rows(
            self.n, self.d, tuples.reshape(-1, self.n))]

    @property
    def shape(self):
        return len(self.ctx.slot_tuples), self.ctx.num_monomials


def build_expansion_matrix(n: int, d: int) -> ExpansionMatrix:
    """Expansion matrix for all degree-d monomials; deterministic layout."""
    ctx = get_context(n, d)
    rows = np.zeros((math.comb(d, n), ctx.num_monomials), dtype=np.int64)
    for lo, sub, coeffs in column_blocks(ctx):
        rows[sub, np.arange(lo, lo + len(sub))[:, None]] = coeffs
    return ExpansionMatrix(ctx, rows)
