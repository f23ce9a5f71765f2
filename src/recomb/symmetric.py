"""The S_d-modules of one degree, one irreducible at a time (mod p).

The monomials of one association type T span a permutation module: S_d
moves the first canonical monomial m_T onto every other, and its
stabiliser is Aut T.  For a prime p > d, F_p[S_d] is semisimple and
splits as the direct sum over partitions lam of d of the matrix algebras
of the irreducibles S^lam, here in Young's seminormal form.  So an element
v of the monomial space spans a submodule of dimension

    sum over lam of d_lam * rank B_lam(v),
    B_lam(v) = [sum over c of type T of v_c rho(sigma_c) P_T]  (T = 1, 2, ...),

where sigma_c moves m_T onto monomial c (m_T has leaves 0..d-1, so sigma_c
is c's leaf row), and the columns of P_T (d_lam x M_T) are a basis of the
vectors that rho(Aut T) fixes; several elements
span the dimension given by the ranks of their stacked B_lam.  B(v) has
sum d_lam rows over sum M_lam columns (127 x 18 at (3,7), 1764 x 157 at
(3,9)) in place of the d! rows of an orbit.

rho(s_j), for the transposition of j and j+1, has at most two entries in a
row.  With the standard tableaux of lam as basis, content c = column - row
and axial distance r = c(j+1) - c(j) in tableau t, row t holds 1/r at
column t and, when |r| > 1, at column s_j t the entry 1 if j lies in a
lower row than j+1 in t, else 1 - 1/r^2.  The denominators are axial
distances 1..d-1, so p > d keeps every entry a residue.  rho(sigma) for a
stack of sigma applies rho(s_j) in the order a bubble sort of sigma swaps
j and j+1 (`_bubble`), all sigmas in lockstep.  Each lam's table of
rho(s_j) is built once, at (d-1, d_lam), and shared by every type: `_act`
applies it to the P_T of all sigmas, stacked (N, d_lam, M_T), and
broadcasts it over the M_T columns.

Residues are linalg._residues' floats (linalg._residue_type), reduced by
linalg._mod and multiplied by linalg._matmul_mod.  An `_act` step sums two
products, so it needs K >= 2 or one more reduction (float64, p > ~2^26).
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .linalg import (ModularRankAccumulator, _matmul_mod, _mod,
                     _residue_type, _residues)
from .monomials import _sort_plan, row_codes, shape_degree

# Vectors whose block rows `Irreducibles.blocks` computes by one product per
# type, a matrix product in place of a memory-bound vector-matrix product
# per vector: `generators -n 4 -d 10 --basis rcf` took 32.4 s (43.0 s CPU)
# at 64, against 46.9 s (77.3 s CPU) at 1 (2 vCPUs, OpenBLAS).
_BATCH = 64


def partitions(d: int) -> list:
    """Partitions of d as nonincreasing tuples, the one-row partition first."""
    def rec(left, cap):
        if not left:
            yield ()
        for k in range(min(left, cap), 0, -1):
            for rest in rec(left - k, k):
                yield (k,) + rest

    return list(rec(d, d))


def standard_tableaux(lam) -> np.ndarray:
    """Standard tableaux of shape lam, one int8 row each: the row of entry
    x in column x, for x = 0..d-1."""
    words = [((), (0,) * len(lam))]
    for _ in range(sum(lam)):
        words = [(w + (r,), lens[:r] + (lens[r] + 1,) + lens[r + 1:])
                 for w, lens in words for r in range(len(lam))
                 if lens[r] < lam[r] and (r == 0 or lens[r - 1] > lens[r])]
    return np.array([w for w, _ in words], dtype=np.int8).reshape(
        len(words), sum(lam))


def _seminormal(lam, p: int) -> tuple:
    """rho(s_j) of Young's seminormal form mod p, j = 0..d-2.

    Returns (diag, partner, off), each (d-1, d_lam): row t of rho(s_j) is
    diag[j, t] at column t plus off[j, t] at column partner[j, t].  The
    tableaux come in lexicographic order, so their row_codes are sorted and
    searchsorted finds each s_j t, t with entries j and j+1 swapped.
    """
    rows = standard_tableaux(lam)
    f, d = rows.shape
    # content = column - row, the column of x counting x's row before x
    col = np.tril(rows[:, :, None] == rows[:, None], -1).sum(axis=2)
    i = (np.diff(col - rows) + d - 1).T     # inv[i] = 1/r
    inv = np.array([pow(x, -1, p) if x else 0 for x in range(1 - d, d)],
                   dtype=_residue_type(p)[0])
    swap = np.arange(d) + np.eye(d - 1, d, 0, int) - np.eye(d - 1, d, 1, int)
    codes, key = row_codes(rows, len(lam)), row_codes(rows[:, swap], len(lam))
    t = np.minimum(np.searchsorted(codes, key.T), f - 1)
    # 1 - 1/r^2 is 0 at r = +-1, where s_j t is not standard
    off = np.where(np.diff(rows).T < 0, 1, _mod(1 - inv * inv, p)[i])
    return inv[i], np.where(codes[t] == key.T, t, np.arange(f)), off


def _aut_generators(shape) -> list:
    """Leaf-position permutations that generate Aut of a canonical shape:
    the swaps of adjacent blocks in each step (lo, k, s) of its sort plan
    (see recomb.monomials._sort_plan)."""
    d = shape_degree(shape)
    return [np.r_[:a, a + s:a + 2 * s, a:a + s, a + 2 * s:d]
            for lo, k, s in _sort_plan(shape)
            for a in range(lo, lo + (k - 1) * s, s)]


def _bubble(sigmas) -> list:
    """Bubble sort of a stack of permutations, all rows in lockstep.

    Returns the steps (j, rows): positions j and j+1 were swapped in those
    rows.  Row i's swaps s_j1, s_j2, ... satisfy sigma_i = ... s_j2 s_j1,
    so applying rho(s_j) in step order gives rho(sigma_i).
    """
    a = np.array(sigmas, dtype=np.int8)
    steps = []
    for i in range(a.shape[1] - 1):
        for j in range(a.shape[1] - 1 - i):
            rows = np.flatnonzero(a[:, j] > a[:, j + 1])
            if rows.size:
                x = a[rows, j]
                a[rows, j] = a[rows, j + 1]
                a[rows, j + 1] = x
                steps.append((j, rows))
    return steps


def _act(steps, table, X: np.ndarray, p: int) -> np.ndarray:
    """X[i] <- rho(sigma_i) X[i] in place, for the sigmas of `steps`.

    X is (N, d_lam, M): M vectors of lam's basis per sigma, d_lam rows
    each, and `table` is lam's own (diag, partner, off), which broadcasts
    over the M columns.  Where K < 2 a step reduces its first product alone.
    """
    diag, partner, off = table
    twice = _residue_type(p)[1] < 2
    for j, rows in steps:
        Y = X[rows]
        T = Y[:, partner[j]] * off[j, :, None]
        Y *= diag[j, :, None]
        if twice:
            _mod(Y.reshape(len(rows), -1), p)   # a view: Y is a copy
        Y += T
        X[rows] = _mod(Y.reshape(len(rows), -1), p).reshape(Y.shape)
    return X


def _fixed_space(steps, table, p: int, k: int) -> np.ndarray:
    """Basis (d_lam x M) mod p of the vectors that every rho(g) fixes.

    `table` is lam's, shared by every type.  The leading k generators s_0,
    ..., s_{k-1} (the leaf swaps of every shape's first leaf-only node, the
    longest run of sibling leaves, so k = mu_T[0] - 1) generate S_{k+1} on
    0..k, and the seminormal basis is adapted to S_1 < S_2 < ...: their
    fixed vectors are the e_t with 0..k in the first row, r = 1 for every
    j < k.  Those e_t span X, and the rest fix X K, where K spans the
    kernel of (rho(g) - I) X stacked over the other g (one bubble sort in
    `steps` each), whose zero rows are skipped.  X K is K in the kept rows.
    """
    diag = table[0]
    keep = np.flatnonzero((diag[:k] == 1).all(axis=0))
    X = np.zeros((diag.shape[1], len(keep)), dtype=diag.dtype)
    X[keep, np.arange(len(keep))] = 1
    acc = ModularRankAccumulator(len(keep), p)
    for g in steps[k:]:
        Y = _mod(_act(g, table, X[None].copy(), p)[0] - X + p, p)
        acc.add_rows(np.arange(len(keep)), Y[Y.any(axis=1)])
    P = np.zeros((len(X), len(keep) - acc.rank()), dtype=X.dtype)
    P[keep] = acc.kernel()
    return P


def _leaf_runs(shape) -> tuple:
    """mu_T, the runs of sibling leaves (sort plan steps (lo, k, 1)) of a
    canonical shape, longest first, padded with 1s.  Aut T holds S_mu, whose
    fixed vectors in S^lam number K_lam,mu (Young's rule, mod p > d): none
    unless lam dominates mu."""
    runs = sorted((k for _, k, s in _sort_plan(shape) if s == 1), reverse=True)
    return (*runs, *[1] * (shape_degree(shape) - sum(runs)))


def _dominates(lam, mu) -> bool:
    """Whether every partial sum of lam is at least mu's."""
    return all(a >= b for a, b in zip(accumulate(lam), accumulate(mu)))


class Irreducibles:
    """Young's seminormal form mod p fitted to the monomials of one degree.

    The block rows of one element hold, for each lam with M_lam > 0,
    d_lam rows over M_lam columns of their own, the columns of lam taken
    type by type: `width` columns in all.  They go into an accumulator as
    sparse rows, `columns` (rows x the largest M_lam, padded with zero
    coefficients) with the coefficients `blocks` yields.  `weight` is d_lam
    for each column, so the dimension of the module that the block rows in
    an accumulator span is the weight of its pivot columns.  Type T keeps,
    per lam with M_{T,lam} > 0, lam's one table and P_T, and where all
    their entries go in a block.  Only lam that dominate some mu_T
    (`_leaf_runs`) get a table, and each has M_lam > 0: every mu_T
    dominates that of the type with one inner child per inner node, whose
    Aut is its S_mu.
    """

    def __init__(self, ctx, p: int):
        # no reference to ctx, which holds this: a cycle would keep a
        # dropped context alive until the next garbage collection
        self.p, self._offsets = p, ctx.offsets
        self._leaf_rows = ctx.leaves_by_type
        # per type: one bubble sort per Aut generator (of m_T's variables)
        steps = [[_bubble([g]) for g in _aut_generators(shape)]
                 for shape in ctx.types]
        mus = [_leaf_runs(shape) for shape in ctx.types]
        irreps = []         # (table, [P_T for each type]), M_lam > 0
        for lam in partitions(ctx.d):
            if any(_dominates(lam, mu) for mu in mus):
                table = _seminormal(lam, p)
                irreps.append((table, [_fixed_space(g, table, p, mu[0] - 1)
                                       for g, mu in zip(steps, mus)]))
        dims = np.array([len(Ps[0]) for _, Ps in irreps])
        ms = np.array([[P.shape[1] for P in Ps] for _, Ps in irreps])
        totals = (dims[:, None] * ms).sum(axis=0)     # sum d_lam M_T,lam
        for ti, (got, want) in enumerate(zip(totals, ctx.type_counts)):
            if got != want:
                raise RuntimeError(
                    f"fixed spaces of Aut give sum d_lam M_lam = {got} for "
                    f"type {ti} {ctx.types[ti]}, expected {want}")
        mult = ms.sum(axis=1)
        self.weight = np.repeat(dims, mult)
        self.width = len(self.weight)
        span = mult.max()
        first = np.repeat(np.cumsum(mult) - mult, dims)
        # columns past M_lam get zero coefficients; any valid index will do
        self.columns = np.minimum(first[:, None] + np.arange(span),
                                  self.width - 1)
        self._types = [([], []) for _ in ctx.types]
        for (table, Ps), row, cols in zip(irreps, np.cumsum(dims) - dims,
                                          np.cumsum(ms, axis=1) - ms):
            for (parts, dst), P, col in zip(self._types, Ps, cols):
                if P.size:
                    pos = (row + np.arange(len(P)))[:, None] * span + col
                    parts.append((table, P))
                    dst.append((pos + np.arange(P.shape[1])).ravel())
        self._types = [(ps, np.concatenate(dst)) for ps, dst in self._types]

    def blocks(self, V):
        """Coefficients of the block rows of each row of V, in order, on
        `columns`.

        V is a sequence of integer rows of #monomials entries, taken _BATCH
        rows at a time: a batch's residues, rho(sigma_c) P_T for each column
        c it uses (one lam at a time), then one product per type.  Nothing
        outlives its batch, so rows past a consumer's stop are only checked,
        before the first block: malformed input anywhere raises ValueError.
        """
        p, n = self.p, self._offsets[-1]

        def batches():
            for lo in range(0, len(V), _BATCH):
                v = _residues(V[lo:lo + _BATCH], p)
                if v.ndim != 2 or v.shape[1] != n:
                    raise ValueError(
                        f"vectors of shape {v.shape}, expected (k, {n})")
                yield v

        for _ in batches():
            pass
        for v in batches():
            used = np.flatnonzero(v.any(axis=0))
            B = np.zeros((len(v), self.columns.size), dtype=v.dtype)
            for ti, (parts, dst) in enumerate(self._types):
                lo, hi = self._offsets[ti], self._offsets[ti + 1]
                cols = used[(used >= lo) & (used < hi)]
                steps = _bubble(self._leaf_rows[ti][cols - lo])
                X = np.hstack([_act(steps, table,
                                    np.tile(P, (len(cols), 1, 1)),
                                    p).reshape(len(cols), P.size)
                               for table, P in parts])
                B[:, dst] = _matmul_mod(v[:, cols], X, p)
            yield from B.reshape(len(v), *self.columns.shape)

    def dimension(self, acc: ModularRankAccumulator) -> int:
        """Dimension of the module spanned by the block rows in acc."""
        return int(self.weight[acc.pivots].sum())


def irreducibles(ctx, p: int) -> Irreducibles:
    """The Irreducibles of a DegreeContext mod p, built on first use and
    kept in ctx.tables, so that they live exactly as long as ctx."""
    if p not in ctx.tables:
        ctx.tables[p] = Irreducibles(ctx, p)
    return ctx.tables[p]
