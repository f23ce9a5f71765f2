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
"""

from __future__ import annotations

import itertools

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


def mass(comb: dict) -> int:
    return sum(comb.values())


def expand_operation(args, n: int | None = None) -> dict:
    """Multilinear extension of the operation to slot combinations.

    args: sequence of slot combinations or bare variable indices over
    pairwise disjoint variable sets.
    """
    combos = []
    for a in args:
        if isinstance(a, int):
            if n is None:
                n = len(args)
            combos.append(variable_combination(a, n))
        else:
            combos.append(a)
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
        out = expand_operation([expand_monomial(c, n, _memo) for c in tree], n)
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


def is_identity(idc: IdentityCombination) -> bool:
    return not evaluate_identity(idc)


class ExpansionMatrix:
    """Integer matrix: rows = slot tuples, columns = canonical monomials."""

    def __init__(self, ctx: DegreeContext, array: np.ndarray):
        self.ctx = ctx
        self.n = ctx.n
        self.d = ctx.d
        self.array = array

    @property
    def shape(self):
        return self.array.shape


def build_expansion_matrix(n: int, d: int) -> ExpansionMatrix:
    """Expansion matrix for all degree-d monomials; deterministic layout.

    Expansion commutes with relabelling, and monomial j of a type is the
    type's template (leaves 0..d-1 in order) relabelled by its leaf row lv_j.
    So each type is expanded once, and column j holds the template's
    coefficients in the rows of the slot tuples mapped through lv_j.
    """
    ctx = get_context(n, d)
    arr = np.zeros((len(ctx.slot_tuples), ctx.num_monomials), dtype=np.int64)
    if not ctx.slot_tuples:
        return ExpansionMatrix(ctx, arr)
    slot_row = np.full(d ** n, -1, dtype=np.int64)
    slot_row[row_codes(ctx.slot_tuples, d)] = np.arange(len(ctx.slot_tuples))
    for ti, (shape, lvs) in enumerate(zip(ctx.types, ctx.leaves_by_type)):
        template = expand_monomial(tree_from(shape, range(d)), n)
        tuples = np.array(list(template), dtype=np.intp)
        rows = slot_row[row_codes(lvs[:, tuples], d)]
        if (rows < 0).any():
            raise RuntimeError("a relabelled slot tuple has no matrix row")
        cols = np.arange(ctx.offsets[ti], ctx.offsets[ti + 1])
        arr[rows, cols[:, None]] = np.fromiter(template.values(), dtype=np.int64)
    return ExpansionMatrix(ctx, arr)
