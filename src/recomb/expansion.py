"""Expansion of monomials into slot-tuple combinations.

The n-ary operation on molecules (x1, ..., xn) sums, over all permutations
sigma of the n arguments, the tuple whose slot j holds the slot-j piece of
argument sigma(j).  A slot combination maps slot tuples (tuples of variable
indices) to integer coefficients.  A lone variable x is represented by the
single tuple (x, ..., x): x occupies every slot of its own molecule.

The expansion matrix E has one row per slot tuple and one column per
monomial; polynomial identities are exactly its integer nullspace vectors.

Closed form.  Give each leaf y a weight g(y): g = 1 at a leaf, whose total
G is 1; at a node with children c_1..c_n, a leaf y of child c gets
g(y) = (n-1)! g_c(y) prod_{c' != c} G_c', and the node's total is
G = n! prod_c G_c, (n!)^k after k operations.  A monomial's expansion gives
each ordering of an n-subset that takes exactly one leaf from each child of
the root the product of the subset's weights, and every other tuple 0.

Proof, by induction, with the claim that the tuples holding y at any one
slot have coefficients summing to g(y).  The children have disjoint
variables, so a tuple (y_1, ..., y_n) with y_j in child sigma(j) comes from
the one assignment sigma of children to slots, with coefficient the product
over j of child sigma(j)'s coefficients summed over its tuples with y_j at
slot j: prod_j g(y_j) by the claim.  Summing a child's tuples over the slots
its parent does not read gives the claim at the parent: the tuples with y
of child c at slot j fill the other slots with one leaf of each other child
in (n-1)! orders, for (n-1)! g_c(y) prod_{c' != c} G_c'.

So the n! orderings of a subset share a row of E, which has only C(d,n)
distinct rows (one at degree 1, the lone variable's tuple (0, ..., 0)).
Column j of E is its type's template (leaves 0..d-1 in order) relabelled
by the leaf row of monomial j, because expansion commutes with relabelling:
E is built with one row per sorted n-subset, from one template per type,
and the full slot-tuple matrix repeats each row.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

from .monomials import (
    DegreeContext,
    MultilinearityError,
    _sort_blocks,
    get_context,
    is_leaf,
    leaves,
    tree_from,
)


def _child_weights(node, n: int) -> list:
    """{leaf: g(leaf)} for each child of a node, leaves left to right."""
    if len(node) != n:
        raise ValueError(f"a node of arity {len(node)} in an arity-{n} "
                         "monomial")
    out = []
    for child in node:
        if is_leaf(child):
            out.append({child: 1})
            continue
        kids = _child_weights(child, n)
        totals = [sum(w.values()) for w in kids]
        scale = math.factorial(n - 1) * math.prod(totals)
        out.append({y: g * scale // t
                    for w, t in zip(kids, totals) for y, g in w.items()})
    return out


def _template(tree, n: int) -> tuple:
    """(subsets, coefficients) of a monomial's expansion: the n-subsets with
    one leaf of each root child, each sorted, and the products of their
    leaf weights.  Every ordering of a subset has its coefficient.  A lone
    variable x has the one tuple (x, ..., x)."""
    if is_leaf(tree):
        return [(tree,) * n], [1]
    lvs = leaves(tree)
    if len(set(lvs)) < len(lvs):
        raise MultilinearityError("a variable occurs twice in the monomial")
    kids = _child_weights(tree, n)
    subsets = list(itertools.product(*kids))
    coeffs = [math.prod(w[y] for w, y in zip(kids, s)) for s in subsets]
    return [tuple(sorted(s)) for s in subsets], coeffs


def expand_monomial(tree, n: int) -> dict:
    """Expansion of a multilinear monomial whose nodes all have arity n, as
    {slot tuple: coefficient}."""
    subsets, coeffs = _template(tree, n)
    return {t: c for s, c in zip(subsets, coeffs)
            for t in itertools.permutations(s)}


# elements of E per block of columns, bounding the builders' temporaries
_BLOCK = 1 << 20


def _subset_template(shape, n: int, d: int) -> tuple:
    """(sorted n-subsets in lex order, coefficients) of a type's template:
    its leaves are 0..d-1 in order, so the root children's blocks increase."""
    subsets, coeffs = _template(tree_from(shape, range(d)), n)
    return (np.array(subsets, dtype=np.int64).reshape(-1, n),
            np.array(coeffs, dtype=np.int64))


def _height(n: int, d: int) -> int:
    """Distinct rows of E: the C(d,n) subsets, or at degree 1 the one tuple
    (0, ..., 0)."""
    return math.comb(d, n) if d >= n else 1


def _subset_rows(n: int, d: int, tuples) -> np.ndarray:
    """Row of the sorted n-subset of each slot tuple, subsets in lex order:
    C(d,n) - 1 - sum_i C(d-1-s_i, n-i) for the subset s_0 < ... < s_{n-1}.
    At degree 1 the tuple (0, ..., 0) takes row 0.  The tuples are sorted
    by `_sort_blocks` on a column-major copy and ranked column by column."""
    shape = np.shape(tuples)[:-1]
    if d < n:
        return np.zeros(shape, dtype=np.int64)
    s = np.array(np.reshape(tuples, (-1, n)), order="F")
    _sort_blocks(s, 0, n, 1)
    comb = np.array([[math.comb(a, k) for k in range(n + 1)]
                     for a in range(d)], dtype=np.int64)
    out = np.full(len(s), math.comb(d, n) - 1, dtype=np.int64)
    for i in range(n):
        out -= comb[d - 1 - s[:, i], n - i]
    return out.reshape(shape)


def column_blocks(ctx: DegreeContext):
    """Blocks of columns of E on the subset rows, as (first column, rows,
    coefficients).

    A block holds consecutive columns of one type: column lo + i has
    coefficient coeffs[j] in subset row rows[i, j].
    """
    n, d = ctx.n, ctx.d
    step = max(1, _BLOCK // _height(n, d))
    for ti, (shape, lvs) in enumerate(zip(ctx.types, ctx.leaves_by_type)):
        subsets, coeffs = _subset_template(shape, n, d)
        for lo in range(0, len(lvs), step):
            yield (ctx.offsets[ti] + lo,
                   _subset_rows(n, d, lvs[lo:lo + step][:, subsets]), coeffs)


class ExpansionMatrix:
    """Integer matrix: rows = slot tuples, columns = canonical monomials.

    Held as `subset_rows`, one row per sorted n-subset of variables in lex
    order (one row at degree 1); `array` is the full matrix, the row of each
    slot tuple's subset repeated for every slot tuple, built on first use.
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
    rows = np.zeros((_height(n, d), ctx.num_monomials), dtype=np.int64)
    for lo, sub, coeffs in column_blocks(ctx):
        rows[sub, np.arange(lo, lo + len(sub))[:, None]] = coeffs
    return ExpansionMatrix(ctx, rows)
