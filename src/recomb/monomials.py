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
import string
from functools import lru_cache

import numpy as np

LEAF = 0  # shape marker for a leaf


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


def var_index(name: str) -> int:
    name = name.strip()
    if len(name) == 1 and name in string.ascii_lowercase:
        return string.ascii_lowercase.index(name)
    raise ValueError(f"bad variable name {name!r}")


# ---------------------------------------------------------------------------
# trees and shapes

def is_leaf(t) -> bool:
    return isinstance(t, int)


def tree_degree(t) -> int:
    if is_leaf(t):
        return 1
    return sum(tree_degree(c) for c in t)


def leaves(t) -> tuple:
    """Leaf variables of a tree, left to right."""
    if is_leaf(t):
        return (t,)
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        if is_leaf(node):
            out.append(node)
        else:
            stack.extend(reversed(node))
    return tuple(out)


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


def _child_key(t):
    return (shape_key(shape_of(t)), leaves(t))


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
    kids = sorted((_straighten(c, arity) for c in t), key=_child_key)
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
    pos = 0
    s = s.strip()

    def parse():
        nonlocal pos
        while pos < len(s) and s[pos] in " \t":
            pos += 1
        if pos >= len(s):
            raise ValueError("unexpected end of monomial")
        if s[pos] == "[":
            pos += 1
            kids = [parse()]
            while True:
                while pos < len(s) and s[pos] in " \t":
                    pos += 1
                if pos >= len(s):
                    raise ValueError("unclosed bracket")
                if s[pos] == ",":
                    pos += 1
                    kids.append(parse())
                elif s[pos] == "]":
                    pos += 1
                    return tuple(kids)
                else:
                    raise ValueError(f"bad character {s[pos]!r} at {pos}")
        ch = s[pos]
        pos += 1
        return var_index(ch)

    out = parse()
    while pos < len(s) and s[pos] in " \t":
        pos += 1
    if pos != len(s):
        raise ValueError(f"trailing input {s[pos:]!r}")
    return out


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

    # children: nondecreasing (by shape_key) sequences of smaller types
    child_degrees = [k for k in range(1, d) if (k - 1) % (n - 1) == 0]
    pool = []
    for k in child_degrees:
        pool.extend(enumerate_canonical_types(n, k))
    pool.sort(key=shape_key)

    found = []

    def rec(start: int, left: int, budget: int, acc: list) -> None:
        if left == 0:
            if budget == 0:
                found.append(tuple(acc))
            return
        for i in range(start, len(pool)):
            k = shape_degree(pool[i])
            if k > budget - (left - 1):
                continue
            acc.append(pool[i])
            rec(i, left - 1, budget - k, acc)
            acc.pop()

    rec(0, n, d, [])
    return tuple(sorted(found, key=shape_key))


@lru_cache(maxsize=None)
def automorphism_order(shape) -> int:
    """Order of the symmetry group of a shape (repeated-children factor)."""
    if shape == LEAF:
        return 1
    total = 1
    for child, group in itertools.groupby(shape):
        size = len(list(group))
        total *= math.factorial(size) * automorphism_order(child) ** size
    return total


@lru_cache(maxsize=None)
def _sort_plan(shape) -> tuple:
    """Sorts that straighten leaf rows of a canonical shape, children first.

    Each step (lo, k, s) orders k adjacent sibling blocks of s leaf columns
    starting at column lo: a run of equal-shape children.  Children of a
    canonical shape are in shape order, so only such runs can be out of
    order, and distinct variables make the first leaf decide between blocks.
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


def straighten_many(shape, leaf_rows) -> np.ndarray:
    """Straighten an (N, d) array of leaf rows of one canonical shape.

    Row-wise equal to leaves(straighten(tree_from(shape, row))) for rows of
    distinct variables; returns a new array of the input's dtype.
    """
    rows = np.array(leaf_rows, copy=True)
    for lo, k, s in _sort_plan(shape):
        block = rows[:, lo:lo + k * s]
        if s == 1:
            block.sort(axis=1)
            continue
        blocks = block.reshape(len(rows), k, s)
        order = np.argsort(blocks[:, :, 0], axis=1)
        block[...] = np.take_along_axis(blocks, order[:, :, None],
                                        axis=1).reshape(len(rows), k * s)
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


def enumerate_monomial_leaves(shape) -> np.ndarray:
    """Canonical leaf rows of a type on variables 0..d-1, lex sorted.

    The rows of the lex-ordered permutation array that straightening leaves
    fixed; their number must be d!/|Aut(shape)|.
    """
    d = shape_degree(shape)
    perms = permutation_rows(d)
    out = perms[(straighten_many(shape, perms) == perms).all(axis=1)]
    expected = math.factorial(d) // automorphism_order(shape)
    if len(out) != expected:
        raise RuntimeError(f"{len(out)} canonical monomials of type {shape}, "
                           f"expected d!/|Aut| = {expected}")
    return out


def enumerate_monomials(shape) -> list:
    """All distinct canonical monomials of a type, as trees, in order."""
    return [tree_from(shape, lv)
            for lv in enumerate_monomial_leaves(shape).tolist()]


def order_slot_tuples(n: int, d: int) -> list:
    """All n-permutations of {0..d-1}, lexicographic; length n! * C(d,n)."""
    if d < n:
        raise ValueError(f"degree {d} < arity {n}")
    return list(itertools.permutations(range(d), n))


# ---------------------------------------------------------------------------
# permutations of variables

def compose(tau, sigma) -> tuple:
    """(tau o sigma)(i) = tau(sigma(i))."""
    return tuple(tau[s] for s in sigma)


def invert(sigma) -> tuple:
    out = [0] * len(sigma)
    for i, s in enumerate(sigma):
        out[s] = i
    return tuple(out)


def check_permutation(sigma, d: int) -> None:
    if len(sigma) != d or sorted(sigma) != list(range(d)):
        raise ValueError(f"not a permutation of {d} symbols: {sigma}")


# ---------------------------------------------------------------------------
# integer combinations of monomials

class IdentityCombination:
    """Sparse integer combination of canonical monomials of one degree."""

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n: int, degree: int, terms: dict, *, _trusted=False):
        if _trusted:
            self.n, self.degree, self.terms = n, degree, dict(terms)
            return
        clean: dict = {}
        for tree, coeff in terms.items():
            coeff = int(coeff)
            if coeff == 0:
                continue
            tree = straighten(tree, n)
            if tree_degree(tree) != degree:
                raise ValueError("mixed degrees in combination")
            clean[tree] = clean.get(tree, 0) + coeff
        self.n = n
        self.degree = degree
        self.terms = {t: c for t, c in clean.items() if c != 0}

    @classmethod
    def from_terms(cls, n: int, pairs) -> "IdentityCombination":
        """Build from (coeff, tree) pairs; trees are straightened and merged."""
        acc: dict = {}
        degree = None
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
        acc = {t: c for t, c in acc.items() if c != 0}
        return cls(n, degree, acc, _trusted=True)

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda item: monomial_key(item[0]))

    def norm_sq(self) -> int:
        return sum(c * c for c in self.terms.values())

    def normalized(self) -> "IdentityCombination":
        """Flip the overall sign so the leading term has a positive coefficient."""
        if not self.terms:
            return self
        lead = min(self.terms, key=monomial_key)
        if self.terms[lead] < 0:
            return IdentityCombination(
                self.n, self.degree, {t: -c for t, c in self.terms.items()},
                _trusted=True)
        return self

    def scaled(self, k: int) -> "IdentityCombination":
        if k == 0:
            return IdentityCombination(self.n, self.degree, {}, _trusted=True)
        return IdentityCombination(
            self.n, self.degree, {t: k * c for t, c in self.terms.items()},
            _trusted=True)

    def __add__(self, other: "IdentityCombination") -> "IdentityCombination":
        if (self.n, self.degree) != (other.n, other.degree):
            raise ValueError("degree/arity mismatch")
        acc = dict(self.terms)
        for t, c in other.terms.items():
            acc[t] = acc.get(t, 0) + c
            if acc[t] == 0:
                del acc[t]
        return IdentityCombination(self.n, self.degree, acc, _trusted=True)

    def __sub__(self, other: "IdentityCombination") -> "IdentityCombination":
        return self + other.scaled(-1)

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

    Group action: apply(apply(I, sigma), tau) == apply(I, compose(tau, sigma)).
    """
    check_permutation(sigma, idc.degree)
    acc: dict = {}
    for tree, coeff in idc.terms.items():
        t2 = straighten(relabel(tree, sigma), idc.n)
        acc[t2] = acc.get(t2, 0) + coeff
    acc = {t: c for t, c in acc.items() if c != 0}
    return IdentityCombination(idc.n, idc.degree, acc, _trusted=True)


# ---------------------------------------------------------------------------
# per-degree context: index maps shared by the expansion and analysis layers

class DegreeContext:
    """Monomial and slot-tuple bookkeeping for one (arity, degree).

    Monomials of type t are the rows of leaves_by_type[t] (int8, lex sorted)
    and occupy columns offsets[t] to offsets[t+1]-1.  Every relabelling is
    canonicalised by straighten_many and mapped back to columns through the
    sorted row codes of each type.
    """

    # leaf rows straightened per step; bounds the engine's temporaries
    _CHUNK_ROWS = 1 << 18

    def __init__(self, n: int, d: int):
        check_degree(n, d)
        self.n = n
        self.d = d
        self.types = list(enumerate_canonical_types(n, d))
        self.type_index = {s: i for i, s in enumerate(self.types)}
        self.leaves_by_type = [enumerate_monomial_leaves(s) for s in self.types]
        self._codes = [row_codes(lvs, d) for lvs in self.leaves_by_type]
        self.offsets = [0]
        self.monomials = []
        for shape, lvs in zip(self.types, self.leaves_by_type):
            self.monomials.extend(tree_from(shape, lv) for lv in lvs.tolist())
            self.offsets.append(len(self.monomials))
        self.column_of = {t: j for j, t in enumerate(self.monomials)}
        self.slot_tuples = order_slot_tuples(n, d) if d >= n else []
        self._perm_table_inv = None

    @property
    def num_monomials(self) -> int:
        return len(self.monomials)

    @property
    def type_counts(self) -> list:
        return [len(lvs) for lvs in self.leaves_by_type]

    def vector_of(self, idc: IdentityCombination):
        """Dense integer coefficient vector over the monomial basis."""
        if (idc.n, idc.degree) != (self.n, self.d):
            raise ValueError("combination does not match context")
        v = np.zeros(self.num_monomials, dtype=np.int64)
        for tree, coeff in idc.terms.items():
            v[self.column_of[tree]] = coeff
        return v

    def combination_of(self, vector) -> IdentityCombination:
        terms = {self.monomials[j]: int(c) for j, c in enumerate(vector) if c}
        return IdentityCombination(self.n, self.d, terms, _trusted=True)

    def relabelled_columns(self, ti: int, leaf_rows, sigmas) -> np.ndarray:
        """Columns of sigma . m for every permutation row sigma and monomial m.

        leaf_rows are leaf rows of type ti; the result has one row per sigma
        and one column per leaf row (int32).
        """
        leaf_rows = np.asarray(leaf_rows, dtype=np.int8)
        sigmas = np.asarray(sigmas, dtype=np.int8)
        out = np.empty((len(sigmas), len(leaf_rows)), dtype=np.int32)
        codes = self._codes[ti]
        step = max(1, self._CHUNK_ROWS // len(leaf_rows))
        for lo in range(0, len(sigmas), step):
            moved = sigmas[lo:lo + step][:, leaf_rows].reshape(-1, self.d)
            want = row_codes(straighten_many(self.types[ti], moved), self.d)
            pos = np.searchsorted(codes, want)
            pos.clip(max=len(codes) - 1, out=pos)
            if not np.array_equal(codes[pos], want):
                raise RuntimeError("a straightened leaf row is not a "
                                   f"canonical monomial of type {ti}")
            out[lo:lo + step] = (pos + self.offsets[ti]).reshape(-1, len(leaf_rows))
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
        permutation in lexicographic order.  Only built for d! <= 45000.
        """
        if self._perm_table_inv is None:
            nperm = math.factorial(self.d)
            if nperm > 45000:
                raise ValueError("permutation table too large; use the sparse path")
            perms = permutation_rows(self.d)
            table = np.empty((nperm, self.num_monomials), dtype=np.int32)
            for ti, lvs in enumerate(self.leaves_by_type):
                cols = self.relabelled_columns(ti, lvs, perms)
                table[np.arange(nperm)[:, None], cols] = np.arange(
                    self.offsets[ti], self.offsets[ti + 1], dtype=np.int32)
            self._perm_table_inv = table
        return self._perm_table_inv


@lru_cache(maxsize=None)
def get_context(n: int, d: int) -> DegreeContext:
    return DegreeContext(n, d)
