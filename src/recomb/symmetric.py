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
j and j+1 (`_bubble`), all sigmas in lockstep.
"""

from __future__ import annotations

import numpy as np

from .linalg import ModularRankAccumulator, _residues
from .monomials import _sort_plan, shape_degree


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
    diag[j, t] at column t plus off[j, t] at column partner[j, t].
    """
    rows = standard_tableaux(lam).astype(np.int64)
    f, d = rows.shape
    cols = np.zeros_like(rows)
    for x in range(1, d):
        cols[:, x] = (rows[:, :x] == rows[:, x:x + 1]).sum(axis=1)
    content = cols - rows
    index = {w.tobytes(): i for i, w in enumerate(rows)}
    diag, partner, off = (np.zeros((max(d - 1, 0), f), dtype=np.int64)
                          for _ in range(3))
    for j in range(d - 1):
        r = content[:, j + 1] - content[:, j]
        inv = np.array([pow(int(x), -1, p) for x in r], dtype=np.int64)
        diag[j] = inv
        swapped = rows.copy()
        swapped[:, [j, j + 1]] = rows[:, [j + 1, j]]
        partner[j] = [index.get(w.tobytes(), t) for t, w in enumerate(swapped)]
        off[j] = np.where(rows[:, j] > rows[:, j + 1], 1, (1 - inv * inv) % p)
        off[j, np.abs(r) == 1] = 0
    return diag, partner, off


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

    X is (N, R, ...) with the rows of rho's basis on axis 1, and `table`
    is (diag, partner, off) for that basis.
    """
    diag, partner, off = table
    shape = (-1,) + (1,) * (X.ndim - 2)
    for j, rows in steps:
        Y = X[rows]
        X[rows] = (diag[j].reshape(shape) * Y
                   + off[j].reshape(shape) * Y[:, partner[j]]) % p
    return X


def _dot(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p for residues, in int64 slabs of the inner dimension
    short enough that no sum overflows."""
    step = max(1, ((1 << 63) - 1) // (p - 1) ** 2)
    out = np.zeros(A.shape[:-1] + B.shape[1:], dtype=np.int64)
    for a in range(0, A.shape[-1], step):
        out += A[..., a:a + step] @ B[a:a + step] % p
    return out % p


def _fixed_space(steps, table, p: int) -> np.ndarray:
    """Basis (d_lam x M) mod p of the vectors that every rho(g) fixes.

    Leading generators s_0, ..., s_{k-1} (the leaf swaps of every shape's
    first leaf-only node) generate S_{k+1} on 0..k, and the seminormal
    basis is adapted to S_1 < S_2 < ...: their fixed vectors are the e_t
    with 0..k in the first row, r = 1 for every j < k.  Then one g (one
    bubble sort in `steps`) at a time: X spans what the g before fix, and
    g keeps X K, where K spans the kernel of (rho(g) - I) X.
    """
    diag = table[0]
    k = 0
    while k < len(steps) and len(steps[k]) == 1 and steps[k][0][0] == k:
        k += 1
    X = np.eye(diag.shape[1], dtype=np.int64)[:, (diag[:k] == 1).all(axis=0)]
    for g in steps[k:]:
        if not X.shape[1]:
            break
        Y = _act(g, table, X[None].copy(), p)[0] - X
        acc = ModularRankAccumulator(X.shape[1], p)
        acc.add_rows(np.arange(X.shape[1]), Y)
        X = _dot(X, acc.kernel(), p)
    return X


def _flatten(parts) -> tuple:
    """One type's flat basis, the sum over lam of S^lam (x) F^M_lam.

    `parts` holds (table of lam, P (d_lam x M_lam), positions of P's
    entries in a block) for each lam; returns the basis's (diag, partner,
    off) table, its vector of the P and their positions.
    """
    diag, partner, off, start, dst = [], [], [], [], []
    base = 0
    for (dg, pt, of), P, pos in parts:
        f, m = P.shape
        diag.append(np.repeat(dg, m, axis=1))
        partner.append(base + (pt[:, :, None] * m + np.arange(m)).reshape(
            len(pt), f * m))
        off.append(np.repeat(of, m, axis=1))
        start.append(P.ravel())
        dst.append(pos.ravel())
        base += f * m
    return ((np.hstack(diag), np.hstack(partner), np.hstack(off)),
            np.concatenate(start), np.concatenate(dst))


class Irreducibles:
    """Young's seminormal form mod p fitted to the monomials of one degree.

    The block rows of one element hold, for each lam with M_lam > 0,
    d_lam rows over M_lam columns of their own, the columns of lam taken
    type by type: `width` columns in all.  They go into an accumulator as
    sparse rows, `columns` (rows x the largest M_lam, padded with zero
    coefficients) with the coefficients `blocks` yields.  `weight` is d_lam
    for each column, so the dimension of the module that the block rows in
    an accumulator span is the weight of its pivot columns.
    """

    def __init__(self, ctx, p: int):
        # no reference to ctx, which holds this: a cycle would keep a
        # dropped context alive until the next garbage collection
        self.p, self._offsets = p, ctx.offsets
        self._leaf_rows = ctx.leaves_by_type
        # per type: one bubble sort per Aut generator (of m_T's variables)
        steps = [[_bubble([g]) for g in _aut_generators(shape)]
                 for shape in ctx.types]
        irreps = []         # (table, d_lam, [P_T for each type]), M_lam > 0
        total = 0
        for lam in partitions(ctx.d):
            table = _seminormal(lam, p)
            f = table[0].shape[1]
            Ps = [_fixed_space(g, table, p) for g in steps]
            m = sum(P.shape[1] for P in Ps)
            total += f * m
            if m:
                irreps.append((table, f, Ps))
        if total != ctx.num_monomials:
            raise RuntimeError(f"fixed spaces of Aut give sum d_lam M_lam = "
                               f"{total}, expected {ctx.num_monomials}")
        dims = [f for _, f, _ in irreps]
        mult = [sum(P.shape[1] for P in Ps) for _, _, Ps in irreps]
        self.weight = np.repeat(dims, mult)
        self.width = len(self.weight)
        span = max(mult)
        first = np.repeat(np.cumsum([0] + mult[:-1]), dims)
        # columns past M_lam get zero coefficients; any valid index will do
        self.columns = np.minimum(first[:, None] + np.arange(span),
                                  self.width - 1)
        parts = [[] for _ in ctx.types]
        row = 0
        for table, f, Ps in irreps:
            col = 0
            for ti, P in enumerate(Ps):
                m = P.shape[1]
                if m:
                    pos = (row + np.arange(f))[:, None] * span + col
                    parts[ti].append((table, P, pos + np.arange(m)))
                col += m
            row += f
        self._types = [_flatten(pp) for pp in parts]

    def blocks(self, V):
        """Coefficients of the block rows of each row of V, in order, on
        `columns`.

        V is (k, #monomials) integer, of any size.  rho(sigma_c) P_T is
        computed once for each column c that some row uses.
        """
        p = self.p
        V = _residues(V, p)
        used = np.flatnonzero(V.any(axis=0))
        per_type = []
        for ti, (table, start, dst) in enumerate(self._types):
            lo, hi = self._offsets[ti], self._offsets[ti + 1]
            cols = used[(used >= lo) & (used < hi)]
            sigmas = self._leaf_rows[ti][cols - lo]
            X = _act(_bubble(sigmas), table, np.tile(start, (len(cols), 1)), p)
            per_type.append((cols, X, dst))
        for v in V:
            B = np.zeros(self.columns.size, dtype=np.int64)
            for cols, X, dst in per_type:
                B[dst] = _dot(v[cols], X, p)
            yield B.reshape(self.columns.shape)

    def dimension(self, acc: ModularRankAccumulator) -> int:
        """Dimension of the module spanned by the block rows in acc."""
        return int(self.weight[acc.pivots].sum())
