"""Canonical multilinear monomials of a completely symmetric n-ary operation.

A monomial is a nested tuple: a leaf is an int (0-based variable index) and
an internal node is a tuple of exactly n subtrees.  Complete symmetry makes
children unordered, so every monomial has a unique straightened form in which
the children of each node are sorted: composite children before leaf
children, composites compared by association type and then by leaf sequence,
leaves compared by variable index.

Association types (shapes) use the same nesting with 0 in place of each leaf.
Types of one degree are ordered so that the type with all nesting in the
first argument comes first, then decreasing nesting depth; the order is
realized by `shape_key`.
"""

from __future__ import annotations

import itertools
import math
import re
import string
from functools import cached_property, lru_cache

import numpy as np

LEAF = 0  # shape marker for a leaf
# tokens of a bracket monomial: a bracket, a comma, or a run of other
# non-space characters, which parses only as one lowercase letter
_TOKEN = re.compile(r"[][,]|[^][,\s]+")


class InvalidDegreeError(ValueError):
    """Degree is not of the form k*(n-1) + 1."""


class MultilinearityError(ValueError):
    """A variable occurs more than once in one monomial."""


# ---------------------------------------------------------------------------
# variables

def var_name(i: int) -> str:
    if 0 <= i < 26:
        return string.ascii_lowercase[i]
    raise ValueError(f"variable index {i} out of letter range")


# ---------------------------------------------------------------------------
# trees and shapes

def is_leaf(t) -> bool:
    return isinstance(t, int)


def tree_degree(t) -> int:
    return len(leaves(t))


def leaves(t) -> tuple:
    """Leaf variables of a tree, left to right."""
    return (t,) if is_leaf(t) else sum(map(leaves, t), ())


def shape_of(t):
    if is_leaf(t):
        return LEAF
    return tuple(shape_of(c) for c in t)


@lru_cache(maxsize=None)
def shape_degree(shape) -> int:
    if shape == LEAF:
        return 1
    return sum(shape_degree(c) for c in shape)


@lru_cache(maxsize=None)
def shape_key(shape):
    """Total order on shapes: deeper-left nesting sorts first.

    Compares as (-degree, child keys...); children of a canonical shape are
    already in this order, so the key is a nested tuple comparable with <.
    """
    if shape == LEAF:
        return (-1,)
    return (-shape_degree(shape),) + tuple(shape_key(c) for c in shape)


def monomial_key(t):
    """Global order on same-degree monomials: type major, leaf sequence minor."""
    return (shape_key(shape_of(t)), leaves(t))


def tree_from(shape, leaf_seq):
    """Rebuild a tree with the given shape, consuming leaf_seq left to right."""
    it = iter(leaf_seq)

    def build(s):
        if s == LEAF:
            return next(it)
        return tuple(build(c) for c in s)

    out = build(shape)
    rest = list(it)
    if rest:
        raise ValueError("leaf sequence longer than shape")
    return out


def straighten(t, arity: int | None = None):
    """Canonical representative of a tree under complete symmetry.

    Sorts the children of every node by (shape order, leaf sequence).
    Idempotent, and constant on the orbit of independent child permutations.
    Raises MultilinearityError if a leaf variable repeats.
    """
    out = _straighten(t, arity)
    lv = leaves(out)
    if len(set(lv)) != len(lv):
        raise MultilinearityError(f"repeated variable in {to_bracket(t)}")
    return out


def _straighten(t, arity):
    if is_leaf(t):
        if t < 0:
            raise ValueError("negative variable index")
        return t
    if arity is not None and len(t) != arity:
        raise ValueError(f"node arity {len(t)} != {arity}")
    kids = sorted((_straighten(c, arity) for c in t), key=monomial_key)
    return tuple(kids)


def relabel(t, sigma):
    """Apply a variable substitution (index -> sigma[index]) to all leaves."""
    if is_leaf(t):
        return sigma[t]
    return tuple(relabel(c, sigma) for c in t)


# ---------------------------------------------------------------------------
# display

def to_bracket(t) -> str:
    if is_leaf(t):
        return var_name(t)
    return "[" + ",".join(to_bracket(c) for c in t) + "]"


def parse_bracket(s: str):
    """Inverse of to_bracket; accepts whitespace between tokens."""
    tokens = _TOKEN.findall(s)[::-1]
    tree = _parse(tokens)
    if tokens:
        raise ValueError(f"trailing input {''.join(tokens[::-1])!r}")
    return tree


def _parse(tokens: list):
    """Pop one subtree off the end of reversed tokens."""
    if not tokens:
        raise ValueError("unexpected end of monomial")
    tok = tokens.pop()
    if tok == "[":
        kids = [_parse(tokens)]
        while tokens and tokens[-1] == ",":
            tokens.pop()
            kids.append(_parse(tokens))
        if not tokens or tokens.pop() != "]":
            raise ValueError("expected ',' or ']' in a bracket")
        return tuple(kids)
    if len(tok) == 1 and tok in string.ascii_lowercase:
        return string.ascii_lowercase.index(tok)
    raise ValueError(f"bad variable name {tok!r}")


# ---------------------------------------------------------------------------
# association types

def check_degree(n: int, d: int) -> None:
    if n < 2:
        raise ValueError(f"arity must be >= 2, got {n}")
    if d < 1 or (d - 1) % (n - 1) != 0:
        raise InvalidDegreeError(f"degree {d} is not k*({n}-1)+1")


@lru_cache(maxsize=None)
def enumerate_canonical_types(n: int, d: int) -> tuple:
    """All association types of degree d modulo complete symmetry, in order."""
    check_degree(n, d)
    if d == 1:
        return (LEAF,)

    # children: nondecreasing (by shape_key) n-tuples of smaller types
    pool = sorted((s for k in range(1, d, n - 1)
                   for s in enumerate_canonical_types(n, k)), key=shape_key)
    found = [kids for kids in itertools.combinations_with_replacement(pool, n)
             if sum(map(shape_degree, kids)) == d]
    return tuple(sorted(found, key=shape_key))


@lru_cache(maxsize=None)
def _sort_plan(shape) -> tuple:
    """Sorts that straighten leaf rows of a canonical shape, children first.

    Each step (lo, k, s) orders k adjacent sibling blocks of s leaf columns
    starting at column lo: a run of equal-shape children.  Children of a
    canonical shape are in shape order, so only such runs can be out of
    order, and distinct variables make the first leaf decide between blocks.

    The plan is also the shape's symmetry group Aut: a run of k copies of a
    child gives S_k over Aut of each copy, so Aut has order prod k! over the
    steps and is generated by the swaps of adjacent blocks in every step.
    """
    plan, lo = [], 0
    for child, group in itertools.groupby(shape if shape != LEAF else ()):
        k, s = len(list(group)), shape_degree(child)
        for i in range(k):
            plan.extend((lo + i * s + a, kk, ss) for a, kk, ss in _sort_plan(child))
        if k > 1:
            plan.append((lo, k, s))
        lo += k * s
    return tuple(plan)


@lru_cache(maxsize=None)
def automorphism_order(shape) -> int:
    """Order of the symmetry group Aut of a shape: prod k! over the steps
    (lo, k, s) of its sort plan."""
    return math.prod(math.factorial(k) for _, k, _ in _sort_plan(shape))


def _sort_blocks(rows, lo: int, k: int, s: int) -> None:
    """Order the k adjacent blocks of s columns from column lo of every row
    by first column, in place; blocks with equal first columns keep order.

    An odd-even transposition network: k rounds of compare-exchanges of
    neighbouring blocks sort any k keys.  A round is one min/max (s == 1) or
    one xor swap under the mask of pairs out of order, over all rows and
    pairs; on a column-major array each runs along whole columns, where
    numpy's sorts of short rows take a call per row.
    """
    blocks = rows[:, lo:lo + k * s].reshape(len(rows), k, s)
    for r in range(k if k > 2 else 1):
        a, b = blocks[:, r % 2:k - 1:2], blocks[:, r % 2 + 1:k:2]
        if s == 1:
            low = np.minimum(a, b)
            np.maximum(a, b, out=b)
            a[...] = low
        else:
            flip = a ^ b
            flip *= a[:, :, :1] > b[:, :, :1]
            a ^= flip
            b ^= flip


def straighten_many(shape, leaf_rows) -> np.ndarray:
    """Straighten an (N, d) array of leaf rows of one canonical shape.

    Row-wise equal to leaves(straighten(tree_from(shape, row))) for rows of
    distinct variables; returns a new column-major array of the input's
    dtype, sorted by one `_sort_blocks` network per step of the sort plan.
    """
    rows = np.array(leaf_rows, order="F")
    for lo, k, s in _sort_plan(shape):
        _sort_blocks(rows, lo, k, s)
    return rows


def row_codes(rows, base: int) -> np.ndarray:
    """Mixed-radix code of every row along the last axis, as int64.

    Digits are below `base`, so codes sort like the rows do.  Built one
    column at a time, which keeps the only int64 temporary at one code per row.
    """
    rows = np.asarray(rows)
    code = np.zeros(rows.shape[:-1], dtype=np.int64)
    for i in range(rows.shape[-1]):
        code *= base
        code += rows[..., i]
    return code


def permutation_rows(d: int) -> np.ndarray:
    """All d! permutations of 0..d-1 as int8 rows, in lexicographic order."""
    rows = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, d + 1):
        # first value f, then the permutations of k-1 symbols lifted over f
        rows = np.concatenate([
            np.hstack([np.full((len(rows), 1), f, dtype=np.int8),
                       rows + (rows >= f)])
            for f in range(k)])
    return rows


def _ordered_set_partitions(d: int, sizes) -> np.ndarray:
    """Ordered partitions of 0..d-1 into blocks of the given sizes.

    One int8 row per partition: the elements of each block in increasing
    order, blocks in the order of `sizes`.
    """
    rows = np.zeros((1, 0), dtype=np.int8)
    rest = np.arange(d, dtype=np.int8)[None, :]
    for s in sizes:
        m = rest.shape[1]
        pick = np.array(list(itertools.combinations(range(m), s)),
                        dtype=np.intp).reshape(-1, s)
        keep = np.ones((len(pick), m), dtype=bool)
        keep[np.arange(len(pick))[:, None], pick] = False
        left = keep.nonzero()[1].reshape(len(pick), m - s)
        rows = np.hstack([np.repeat(rows, len(pick), axis=0),
                          rest[:, pick].reshape(-1, s)])
        rest = rest[:, left].reshape(len(rows), m - s)
    return rows


def enumerate_monomial_leaves(shape, _cache: dict | None = None) -> np.ndarray:
    """Canonical leaf rows of a type on variables 0..d-1, lex sorted.

    A canonical row gives each child a block of variables and, on that block,
    a canonical row of the child's type (order-preserving relabellings keep
    rows canonical).  The candidates are all such choices, d!/prod|Aut(child)|
    of them.  Their children are canonical, so the canonical rows are those
    in which every run of equal root children rises by first leaf, which is
    all that straightening would reorder.  A leaf child's first leaf is its
    block, so runs of leaves filter the partitions before the candidates are
    gathered.  The number kept must be d!/|Aut(shape)|.  The first row is
    0..d-1, canonical (equal-type siblings get increasing blocks) and lex
    smallest.  `_cache` shares the children's rows between calls.
    """
    if shape == LEAF:
        return np.zeros((1, 1), dtype=np.int8)
    cache = {} if _cache is None else _cache
    sizes = [shape_degree(c) for c in shape]
    d, firsts = sum(sizes), list(itertools.accumulate([0] + sizes))
    # first columns of neighbouring equal root children, which must rise
    pairs = [(shape[i] == LEAF, firsts[i], firsts[i + 1])
             for i in range(len(shape) - 1) if shape[i] == shape[i + 1]]

    def rising(rows, leaf: bool):
        keep = [rows[:, a] < rows[:, b] for lf, a, b in pairs if lf == leaf]
        return rows[np.logical_and.reduce(keep)] if keep else rows

    parts = rising(_ordered_set_partitions(d, sizes), True)
    # positions in a partition row of every combination of child rows
    where = np.zeros((1, 0), dtype=np.intp)
    for child, lo in zip(shape, firsts):
        if child not in cache:
            cache[child] = enumerate_monomial_leaves(child, cache)
        kid = cache[child].astype(np.intp) + lo
        where = np.hstack([np.repeat(where, len(kid), axis=0),
                           np.tile(kid, (len(where), 1))])
    rows = rising(np.take(parts, where, axis=1).reshape(-1, d), False)
    rows = np.take(rows, np.argsort(row_codes(rows, d), kind="stable"), axis=0)
    expected = math.factorial(d) // automorphism_order(shape)
    if len(rows) != expected:
        raise RuntimeError(f"{len(rows)} canonical monomials of type {shape}, "
                           f"expected d!/|Aut| = {expected}")
    return rows


def order_slot_tuples(n: int, d: int) -> list:
    """All n-permutations of {0..d-1}, lexicographic; length n! * C(d,n)."""
    if d < n:
        raise ValueError(f"degree {d} < arity {n}")
    return list(itertools.permutations(range(d), n))


# ---------------------------------------------------------------------------
# permutations of variables

def check_permutation(sigma, d: int) -> None:
    if len(sigma) != d or sorted(sigma) != list(range(d)):
        raise ValueError(f"not a permutation of {d} symbols: {sigma}")


# ---------------------------------------------------------------------------
# integer combinations of monomials

class IdentityCombination:
    """Sparse integer combination of canonical monomials of one degree."""

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n: int, degree: int, terms: dict):
        """Wrap terms as they are: straightened trees of one degree mapped
        to nonzero ints.  Build from any trees with from_terms."""
        self.n, self.degree, self.terms = n, degree, terms

    @classmethod
    def from_terms(cls, n: int, pairs,
                   degree: int | None = None) -> "IdentityCombination":
        """Build from (coeff, tree) pairs: trees are straightened, equal
        trees merged and zero sums dropped.  All trees must have one degree,
        `degree` when it is given (as it must be for no pairs)."""
        acc: dict = {}
        for coeff, tree in pairs:
            tree = straighten(tree, n)
            dg = tree_degree(tree)
            if degree is None:
                degree = dg
            elif dg != degree:
                raise ValueError("mixed degrees in combination")
            acc[tree] = acc.get(tree, 0) + int(coeff)
        if degree is None:
            raise ValueError("empty combination needs an explicit degree")
        return cls(n, degree, {t: c for t, c in acc.items() if c != 0})

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda item: monomial_key(item[0]))

    def normalized(self) -> "IdentityCombination":
        """Flip the overall sign so the leading term has a positive coefficient."""
        if not self.terms:
            return self
        lead = min(self.terms, key=monomial_key)
        if self.terms[lead] < 0:
            return IdentityCombination(
                self.n, self.degree, {t: -c for t, c in self.terms.items()})
        return self

    def __eq__(self, other) -> bool:
        return (isinstance(other, IdentityCombination)
                and self.n == other.n and self.degree == other.degree
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, self.degree, frozenset(self.terms.items())))

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        parts = [f"{c:+d}*{to_bracket(t)}" for t, c in self.sorted_terms()]
        return " ".join(parts) if parts else "0"


def apply_permutation(idc: IdentityCombination, sigma) -> IdentityCombination:
    """Relabel variables of every term by sigma and re-straighten.

    Group action: apply(apply(I, sigma), tau) == apply(I, tau o sigma),
    where (tau o sigma)[i] = tau[sigma[i]].
    """
    check_permutation(sigma, idc.degree)
    return IdentityCombination.from_terms(
        idc.n, [(c, relabel(t, sigma)) for t, c in idc.terms.items()],
        idc.degree)


# ---------------------------------------------------------------------------
# per-degree context: index maps shared by the expansion and analysis layers

class DegreeContext:
    """Monomial and slot-tuple bookkeeping for one (arity, degree).

    Monomials of type t are the rows of leaves_by_type[t] (int8, lex sorted)
    and occupy columns offsets[t] to offsets[t+1]-1.  A leaf row finds its
    column through the sorted row codes of its type; every relabelling is
    canonicalised by straighten_many first.  The monomials as trees and
    the slot tuples are built on first use, and `tables` holds what
    recomb.symmetric fits to these monomials, per prime, as long as the
    context lives.
    """

    # leaf rows straightened per step; bounds the engine's temporaries
    _CHUNK_ROWS = 1 << 18

    def __init__(self, n: int, d: int):
        check_degree(n, d)
        self.n = n
        self.d = d
        self.types = list(enumerate_canonical_types(n, d))
        self.type_index = {s: i for i, s in enumerate(self.types)}
        cache: dict = {}
        self.leaves_by_type = [enumerate_monomial_leaves(s, cache)
                               for s in self.types]
        self._codes = [row_codes(lvs, d) for lvs in self.leaves_by_type]
        self.offsets = [0]
        for lvs in self.leaves_by_type:
            self.offsets.append(self.offsets[-1] + len(lvs))
        # prime -> its Irreducibles (symmetric.irreducibles)
        self.tables: dict = {}

    @cached_property
    def monomials(self) -> list:
        """The canonical monomials as trees, in column order."""
        return [tree_from(shape, lv)
                for shape, lvs in zip(self.types, self.leaves_by_type)
                for lv in lvs.tolist()]

    @cached_property
    def slot_tuples(self) -> list:
        # below degree n only the lone variable's tuple (0, ..., 0)
        return (order_slot_tuples(self.n, self.d) if self.d >= self.n
                else [(0,) * self.n])

    @property
    def num_monomials(self) -> int:
        return self.offsets[-1]

    @property
    def type_counts(self) -> list:
        return [len(lvs) for lvs in self.leaves_by_type]

    def term_groups(self, idc: IdentityCombination) -> list:
        """Terms of a combination by type: [(type index, leaf rows, coeffs)]."""
        by_type: dict = {}
        for tree, coeff in idc.terms.items():
            by_type.setdefault(self.type_index[shape_of(tree)], []).append(
                (leaves(tree), coeff))
        return [(ti, np.array([lv for lv, _ in g], dtype=np.int8),
                 np.array([c for _, c in g], dtype=np.int64))
                for ti, g in sorted(by_type.items())]

    def vector_of(self, idc: IdentityCombination):
        """Dense integer coefficient vector over the monomial basis."""
        if (idc.n, idc.degree) != (self.n, self.d):
            raise ValueError("combination does not match context")
        v = np.zeros(self.num_monomials, dtype=np.int64)
        for ti, rows, coeffs in self.term_groups(idc):
            v[self._columns(ti, rows)] = coeffs
        return v

    def combination_of(self, vector) -> IdentityCombination:
        terms = {self.monomials[j]: int(c) for j, c in enumerate(vector) if c}
        return IdentityCombination(self.n, self.d, terms)

    def _columns(self, ti: int, rows) -> np.ndarray:
        """Columns of canonical leaf rows of type ti, one per row."""
        codes = self._codes[ti]
        want = row_codes(rows, self.d)
        pos = np.searchsorted(codes, want)
        pos.clip(max=len(codes) - 1, out=pos)
        if not np.array_equal(codes[pos], want):
            raise RuntimeError("a leaf row is not a canonical monomial "
                               f"of type {ti}")
        return pos + self.offsets[ti]

    def relabelled_columns(self, ti: int, leaf_rows, sigmas) -> np.ndarray:
        """Columns of sigma . m for every permutation row sigma and monomial m.

        leaf_rows are leaf rows of type ti; the result has one row per sigma
        and one column per leaf row (int32).
        """
        leaf_rows = np.asarray(leaf_rows, dtype=np.int8)
        sigmas = np.asarray(sigmas, dtype=np.int8)
        out = np.empty((len(sigmas), len(leaf_rows)), dtype=np.int32)
        step = max(1, self._CHUNK_ROWS // len(leaf_rows))
        for lo in range(0, len(sigmas), step):
            moved = sigmas[lo:lo + step][:, leaf_rows].reshape(-1, self.d)
            # rebinding frees the unstraightened rows before the lookup
            moved = straighten_many(self.types[ti], moved)
            out[lo:lo + step] = self._columns(ti, moved).reshape(
                -1, len(leaf_rows))
        return out

    def permuted_columns(self, sigma) -> np.ndarray:
        """Column index map j -> column of sigma . monomial_j."""
        return np.concatenate([
            self.relabelled_columns(ti, lvs, [sigma])[0]
            for ti, lvs in enumerate(self.leaves_by_type)])

    def perm_table_inv(self):
        """(d!, m) gather table: orbit rows are vector[table] per permutation.

        Row s holds, for each column k, the source column j with
        sigma_s . monomial_j = monomial_k, where sigma_s is the s-th
        permutation in lexicographic order.  Only built for d! <= 45000,
        anew on each call: no path in recomb uses it, as module ranks go
        per irreducible.
        """
        nperm = math.factorial(self.d)
        if nperm > 45000:
            raise ValueError("permutation table too large; use the sparse path")
        perms = permutation_rows(self.d)
        table = np.empty((nperm, self.num_monomials), dtype=np.int32)
        for ti, lvs in enumerate(self.leaves_by_type):
            cols = self.relabelled_columns(ti, lvs, perms)
            table[np.arange(nperm)[:, None], cols] = np.arange(
                self.offsets[ti], self.offsets[ti + 1], dtype=np.int32)
        return table


@lru_cache(maxsize=None)
def get_context(n: int, d: int) -> DegreeContext:
    return DegreeContext(n, d)
