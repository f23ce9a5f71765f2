"""Exact integer and rational linear algebra.

Everything here is exact: row canonical form over the rationals, canonical
integer nullspace bases, Hermite normal form with a unimodular transform,
integer LLL lattice reduction, and an incremental mod-p rank accumulator.

The mod-p accumulator is the only numpy consumer.  It keeps the reduced
echelon basis as [I | C] and stores only C, the rows on the non-pivot
columns, as float64 residues, so that reducing, echelonising and merging
are matrix products run through BLAS.  They are exact because every
subtraction is done as an addition of nonnegative terms, so each sum is
bounded by p^2 * width < 2^53.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy import sparse as _sparse


class DependentRowsError(ValueError):
    """Input rows are linearly dependent where independence is required."""


# ---------------------------------------------------------------------------
# small matrix helpers (lists of python ints)

def transpose(rows):
    return [list(col) for col in zip(*rows)]


def squared_norm(v) -> int:
    return sum(int(x) * int(x) for x in v)


def sort_vectors_by_norm(vectors):
    """Sort by squared norm; ties break lexicographically on the entries."""
    return sorted((list(map(int, v)) for v in vectors),
                  key=lambda v: (squared_norm(v), v))


def int_matmul(A, B):
    """Exact product of integer matrices; numpy fast path when safe."""
    a = np.asarray(A, dtype=object)
    b = np.asarray(B, dtype=object)
    inner = a.shape[1]
    try:
        amax = max((abs(int(x)) for row in A for x in row), default=0)
        bmax = max((abs(int(x)) for row in B for x in row), default=0)
        if amax * bmax * inner < 2 ** 62:
            return (np.asarray(A, dtype=np.int64) @
                    np.asarray(B, dtype=np.int64)).tolist()
    except OverflowError:
        pass
    return (a @ b).tolist()


def det_bareiss(M) -> int:
    """Exact determinant by fraction-free elimination (for modest sizes)."""
    a = [[int(x) for x in row] for row in M]
    n = len(a)
    if n == 0:
        return 1
    assert all(len(row) == n for row in a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        for i in range(k + 1, n):
            rik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (pk * row_i[j] - rik * row_k[j]) // prev
            row_i[k] = 0
        prev = pk
    return sign * a[-1][-1]


# ---------------------------------------------------------------------------
# row canonical form over Q

class RcfResult(NamedTuple):
    rows: list          # reduced row echelon form, Fractions
    rank: int
    pivots: list        # pivot column per pivot row


def rcf(M) -> RcfResult:
    """Unique reduced row echelon form over the rationals."""
    rows = [[x if isinstance(x, Fraction) else Fraction(int(x)) for x in row]
            for row in M]
    if not rows:
        return RcfResult([], 0, [])
    ncols = len(rows[0])
    r = 0
    pivots = []
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        if inv != 1:
            rows[r] = [x * inv for x in rows[r]]
        rr = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                ri = rows[i]
                rows[i] = [x - f * y for x, y in zip(ri, rr)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return RcfResult(rows, r, pivots)


def rcf_nullspace(M) -> list:
    """Canonical integer nullspace basis from the RCF.

    One vector per free column: free coordinate set to 1, pivots back-solved,
    then the vector is scaled by the LCM of its denominators and divided by
    the GCD of its entries.  Returned in free-column order.
    """
    R = rcf(M)
    ncols = len(R.rows[0]) if R.rows else 0
    pivset = set(R.pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, pc in enumerate(R.pivots):
            v[pc] = -R.rows[i][f]
        lcm = 1
        for x in v:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        w = [int(x * lcm) for x in v]
        g = 0
        for x in w:
            g = math.gcd(g, x)
        if g > 1:
            w = [x // g for x in w]
        basis.append(w)
    return basis


# ---------------------------------------------------------------------------
# Hermite normal form

class HnfResult(NamedTuple):
    h: list             # m x n HNF
    u: list             # m x m unimodular transform, u @ M = h
    rank: int
    pivots: list        # pivot column per nonzero row
    det_sign: int       # sign of det(u); |det(u)| = 1 by construction


def hnf_with_transform(M) -> HnfResult:
    """Row HNF of an integer matrix with a unimodular transform.

    H satisfies: zeros left of each pivot, pivots >= 1, entries above a pivot
    reduced into [0, pivot), zero rows at the bottom.  H is unique; U is not.
    Above-pivot entries are reduced as soon as each pivot settles, which
    keeps the transform entries small.
    """
    h = [[int(x) for x in row] for row in M]
    m = len(h)
    n = len(h[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    sign = 1
    r = 0
    pivots = []
    for c in range(n):
        # remainder loop: shrink entries in column c below row r until one is left
        while True:
            live = [i for i in range(r, m) if h[i][c] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: abs(h[i][c]))
            if i0 != r:
                h[r], h[i0] = h[i0], h[r]
                u[r], u[i0] = u[i0], u[r]
                sign = -sign
            if len(live) == 1:
                break
            a = h[r][c]
            for i in range(r + 1, m):
                if h[i][c] == 0:
                    continue
                q = h[i][c] // a  # floor keeps remainders in [0, |a|)
                if q:
                    hi, hr = h[i], h[r]
                    h[i] = [x - q * y for x, y in zip(hi, hr)]
                    ui, ur = u[i], u[r]
                    u[i] = [x - q * y for x, y in zip(ui, ur)]
        if r < m and h[r][c]:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
                u[r] = [-x for x in u[r]]
                sign = -sign
            a = h[r][c]
            for k in range(r):
                q = h[k][c] // a
                if q:
                    hk, hr = h[k], h[r]
                    h[k] = [x - q * y for x, y in zip(hk, hr)]
                    uk, ur = u[k], u[r]
                    u[k] = [x - q * y for x, y in zip(uk, ur)]
            pivots.append(c)
            r += 1
            if r == m:
                break
    return HnfResult(h, u, r, pivots, sign)


def hnf_rows(M) -> list:
    """Nonzero rows of the HNF (no transform); canonical for lattice tests."""
    h = [[int(x) for x in row] for row in M]
    m = len(h)
    n = len(h[0]) if m else 0
    r = 0
    for c in range(n):
        while True:
            live = [i for i in range(r, m) if h[i][c] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: abs(h[i][c]))
            if i0 != r:
                h[r], h[i0] = h[i0], h[r]
            if len(live) == 1:
                break
            a = h[r][c]
            for i in range(r + 1, m):
                if h[i][c]:
                    q = h[i][c] // a
                    if q:
                        hi, hr = h[i], h[r]
                        h[i] = [x - q * y for x, y in zip(hi, hr)]
        if r < m and h[r][c]:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
            a = h[r][c]
            for k in range(r):
                q = h[k][c] // a
                if q:
                    hk, hr = h[k], h[r]
                    h[k] = [x - q * y for x, y in zip(hk, hr)]
            r += 1
            if r == m:
                break
    return h[:r]


def nullspace_lattice(M) -> list:
    """Lattice basis of {x : M x = 0} over Z.

    Bottom rows of the transform U with U M^t = HNF(M^t); every integer
    nullspace vector is an integer combination of these rows.
    """
    res = hnf_with_transform(transpose(M))
    return [list(row) for row in res.u[res.rank:]]


def lattices_equal(A, B) -> bool:
    """Same integer row span (HNF is a lattice invariant)."""
    return hnf_rows(A) == hnf_rows(B)


def lattice_coordinates(basis, v, hnf=None):
    """Coordinates of v in the lattice spanned by basis rows, or None.

    Works through the HNF of the basis, so it decides membership in the
    lattice (integer combinations), not just the rational span.  Pass a
    precomputed `hnf_rows(basis)` as `hnf` when testing many vectors.
    """
    H = hnf_rows(basis) if hnf is None else hnf
    v = [int(x) for x in v]
    piv = []
    for row in H:
        j = next(k for k, x in enumerate(row) if x)
        piv.append(j)
    coords = []
    for row, j in zip(H, piv):
        if v[j] % row[j] != 0:
            return None
        q = v[j] // row[j]
        coords.append(q)
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    if any(v):
        return None
    return coords


def lattice_contains(basis, v, hnf=None) -> bool:
    return lattice_coordinates(basis, v, hnf) is not None


def rational_span_equal(A, B) -> bool:
    """Equal row spans over Q, by a mutual rank test.

    Ranks come from integer HNFs: HNF rows are independent over Q, so the
    nonzero-row count is the rational rank, without Fraction arithmetic.
    """
    ra = len(hnf_rows(A))
    rb = len(hnf_rows(B))
    if ra != rb:
        return False
    return len(hnf_rows(list(A) + list(B))) == ra


# ---------------------------------------------------------------------------
# integer LLL

def _lll_initialize(b):
    """Integer Gram-Schmidt data: d[i] = det Gram(b1..bi), lam scaled mu."""
    k = len(b)
    d = [1] * (k + 1)
    lam = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1):
            u = sum(x * y for x, y in zip(b[i], b[j]))
            for s in range(j):
                u = (d[s + 1] * u - lam[i][s] * lam[j][s]) // d[s]
            if j < i:
                lam[i][j] = u
            else:
                d[i + 1] = u
                if u <= 0:
                    raise DependentRowsError("rows are linearly dependent")
    return d, lam


def lll_reduce(basis, delta=(3, 4)) -> list:
    """LLL-reduced basis of the same lattice, in exact integer arithmetic.

    delta is the Lovasz parameter as an integer pair (num, den); the default
    3/4 gives the classical guarantees.  Raises DependentRowsError when the
    input rows are dependent.
    """
    b = [[int(x) for x in row] for row in basis]
    k = len(b)
    if k <= 1:
        return [row[:] for row in b]
    num, den = delta
    d, lam = _lll_initialize(b)

    def red(i, j):
        if 2 * abs(lam[i][j]) > d[j + 1]:
            q = (2 * lam[i][j] + d[j + 1]) // (2 * d[j + 1])
            bi, bj = b[i], b[j]
            b[i] = [x - q * y for x, y in zip(bi, bj)]
            lam[i][j] -= q * d[j + 1]
            li, lj = lam[i], lam[j]
            for s in range(j):
                li[s] -= q * lj[s]

    kk = 1
    while kk < k:
        red(kk, kk - 1)
        lam_k = lam[kk][kk - 1]
        if den * (d[kk + 1] * d[kk - 1] + lam_k * lam_k) < num * d[kk] * d[kk]:
            # swap b[kk-1], b[kk] and patch the Gram data
            b[kk - 1], b[kk] = b[kk], b[kk - 1]
            for s in range(kk - 1):
                lam[kk - 1][s], lam[kk][s] = lam[kk][s], lam[kk - 1][s]
            B = (d[kk - 1] * d[kk + 1] + lam_k * lam_k) // d[kk]
            for i in range(kk + 1, k):
                t = lam[i][kk]
                lam[i][kk] = (d[kk + 1] * lam[i][kk - 1] - lam_k * t) // d[kk]
                lam[i][kk - 1] = (B * t + lam_k * lam[i][kk]) // d[kk + 1]
            d[kk] = B
            kk = max(kk - 1, 1)
        else:
            for j in range(kk - 2, -1, -1):
                red(kk, j)
            kk += 1
    return b


def is_lll_reduced(basis, delta=(3, 4)) -> bool:
    """Definition check with exact rational Gram-Schmidt (test oracle)."""
    b = [[Fraction(int(x)) for x in row] for row in basis]
    k = len(b)
    star = []
    mu = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        v = list(b[i])
        for j in range(i):
            denom = sum(x * x for x in star[j])
            mu[i][j] = sum(x * y for x, y in zip(b[i], star[j])) / denom
            v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
        star.append(v)
    dlt = Fraction(delta[0], delta[1])
    for i in range(k):
        for j in range(i):
            if abs(mu[i][j]) > Fraction(1, 2):
                return False
    for i in range(1, k):
        lhs = sum(x * x for x in star[i])
        rhs = (dlt - mu[i][i - 1] ** 2) * sum(x * x for x in star[i - 1])
        if lhs < rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# incremental rank over F_p

_BASE_ROWS = 12         # rows the echelon kernel eliminates one at a time
_CHUNK = 1 << 21        # elements of C updated per step of a merge
_MOD_BLOCK = 1 << 16    # elements per pass of _mod, small enough for cache


def _mod(X: np.ndarray, p: int) -> np.ndarray:
    """X mod p into [0, p), in place, for C-ordered float64 |X| <= 2^53 - p.

    floor(X * (1/p)) can be one off, leaving X - q*p in [-p, 2p), which one
    step each way corrects.  This is several times faster than np.fmod or %
    on the large quotients a product leaves; blocks keep the passes in cache.
    """
    rows = X[None] if X.ndim == 1 else X
    if not rows.size:
        return X
    step = max(1, _MOD_BLOCK // rows.shape[1])
    q = np.empty((min(step, len(rows)), rows.shape[1]))
    for lo in range(0, len(rows), step):
        x = rows[lo:lo + step]
        t = q[:len(x)]
        np.multiply(x, 1.0 / p, out=t)
        np.floor(t, out=t)
        t *= p
        x -= t
        np.add(x, p, out=x, where=x < 0)
        np.subtract(x, p, out=x, where=x >= p)
    return X


class ModularRankAccumulator:
    """Incremental reduced row echelon form mod p, stored as [I | C].

    Up to a column permutation the basis is [I | C]: row i is 1 in pivot
    column piv[i], 0 in the other pivot columns and C[i] on the free columns.
    Only C is kept, at most width^2 / 4 residues.  A block X is reduced by
    one product, Y = X[:, free] - X[:, piv] @ C (sparse for COO input), and
    echelonised by a recursive kernel whose updates are products; one more
    product clears the new pivots from C, whose columns are then compacted
    out in place.  Residues are float64 in [0, p) for BLAS.  a - b*c is done
    as a + (p - b)*c, so every term is nonnegative and a sum of up to width
    of them stays below p^2 * width < 2^53, where float64 is exact.
    """

    def __init__(self, width: int, p: int = 101):
        if p < 2 or any(p % q == 0 for q in range(2, min(p, int(p ** 0.5) + 2))):
            raise ValueError(f"p = {p} is not prime")
        if p * p * max(width, 1) >= 2 ** 53:
            raise ValueError("width too large for exact float64 products")
        self.width = width
        self.p = p
        self._piv = np.empty(0, dtype=np.int64)
        self._free = np.arange(width, dtype=np.int64)
        # column c is free column pos[c] when pos[c] >= 0, else the pivot
        # of row -1 - pos[c]
        self._pos = np.arange(width, dtype=np.int64)
        self._buf = np.empty(0, dtype=np.float64)   # C, row-major

    def rank(self) -> int:
        return len(self._piv)

    def add_batch(self, rows) -> int:
        """Reduce a dense block of rows; returns the number of new pivots."""
        X = np.asarray(rows, dtype=np.float64, order="C")
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.width:
            raise ValueError(
                f"rows have {X.shape[1]} columns, not {self.width}")
        Y = _mod(np.take(X, self._free, axis=1), self.p)
        if self.rank() and Y.size:
            A = _mod(np.take(X, self._piv, axis=1), self.p)
            Y += np.subtract(self.p, A, out=A) @ self._c()
        return self._absorb(Y)

    def add_sparse_batch(self, row_idx, col_idx, vals, nrows: int) -> int:
        """Reduce nrows COO rows (duplicates summed); returns new pivots."""
        p = self.p
        f = len(self._free)
        pos = self._pos[np.asarray(col_idx, dtype=np.int64)]
        # free columns first, then the pivot columns in row order
        X = _sparse.csr_matrix(
            (np.asarray(vals, dtype=np.float64),
             (np.asarray(row_idx, dtype=np.int64),
              np.where(pos >= 0, pos, f - 1 - pos))),
            shape=(nrows, self.width))
        _mod(X.data, p)
        F = X[:, :f].tocoo()
        if self.rank() and f:
            S = X[:, f:]
            S.data = p - S.data
            Y = S @ self._c()
            Y[F.row, F.col] += F.data     # X is summed: no repeated entries
        else:
            Y = F.toarray()
        return self._absorb(Y)

    # -- internals -----------------------------------------------------------

    def _c(self) -> np.ndarray:
        r, f = self.rank(), len(self._free)
        return self._buf[:r * f].reshape(r, f)

    def _absorb(self, Y: np.ndarray) -> int:
        """Echelonise reduced rows Y (free columns) and merge their pivots."""
        if not Y.size:
            return 0
        _mod(Y, self.p)
        piv = self._rref(Y)
        if piv:
            self._merge(Y[:len(piv)], np.asarray(piv, dtype=np.int64))
        return len(piv)

    def _rref(self, Y: np.ndarray) -> list:
        """Echelonise the rows of Y into Y[:len(pivots)]; returns pivots.

        Drop zero rows, echelonise the first half, reduce the second half by
        it, echelonise that, and use it to clear the first.
        """
        p = self.p
        alive = Y.any(axis=1)
        if not alive.all():
            m = int(alive.sum())
            Y[:m] = Y[alive]
            Y = Y[:m]
        if len(Y) <= _BASE_ROWS:
            return self._rref_rows(Y)
        half = len(Y) // 2
        P1 = self._rref(Y[:half])
        k1 = len(P1)
        Y2 = Y[half:]
        if k1:
            Y2 += (p - Y2[:, P1]) @ Y[:k1]
            _mod(Y2, p)
        P2 = self._rref(Y2)
        k2 = len(P2)
        if k2:
            if k1:
                R1 = Y[:k1]
                R1 += (p - R1[:, P2]) @ Y2[:k2]
                _mod(R1, p)
            Y[k1:k1 + k2] = Y2[:k2]
        return P1 + P2

    def _rref_rows(self, Y: np.ndarray) -> list:
        """Kernel base case: Gauss-Jordan one row at a time, in place."""
        p = self.p
        piv: list = []
        for y in Y:
            k = len(piv)
            if k:
                a = y[piv]
                if a.any():
                    y = _mod(y + (p - a) @ Y[:k], p)
            nz = np.flatnonzero(y)
            if nz.size == 0:
                continue
            j = int(nz[0])
            inv = pow(int(y[j]), -1, p)
            if inv != 1:
                y = _mod(y * inv, p)
            if k:
                a = Y[:k, j]
                if a.any():
                    Y[:k] += np.outer(p - a, y)
                    _mod(Y[:k], p)
            Y[k] = y
            piv.append(j)
        return piv

    def _merge(self, R: np.ndarray, P: np.ndarray) -> None:
        """Add echelon rows R over the free columns, pivots at positions P."""
        r, f, k = self.rank(), len(self._free), len(P)
        keep = np.ones(f, dtype=bool)
        keep[P] = False
        keep = np.flatnonzero(keep)
        fk = len(keep)
        N = np.take(R, keep, axis=1)
        np.subtract(self.p, N, out=N)
        self._clear_and_compact(P, keep, N)
        need = (r + k) * fk
        if self._buf.size != need:
            # realloc: grows or shrinks without a second full-size copy
            self._buf.resize(need, refcheck=False)
        np.subtract(self.p, N, out=self._buf[r * fk:].reshape(k, fk))
        self._piv = np.concatenate([self._piv, self._free[P]])
        self._free = self._free[keep]
        self._pos[self._free] = np.arange(fk)
        self._pos[self._piv[r:]] = -1 - np.arange(r, r + k)

    def _clear_and_compact(self, P, keep, N) -> None:
        """C <- C[:, keep] - C[:, P] @ R[:, keep] in place, N = p - R[:, keep].

        At the narrower row stride a chunk's destination ends before the
        next chunk's source starts, so a gathered chunk can be overwritten.
        """
        r, f, fk = self.rank(), len(self._free), len(keep)
        step = max(1, min(r, _CHUNK // f))
        G = np.empty((step, len(P)))
        T = np.empty((step, fk))
        for lo in range(0, r, step):
            n = min(step, r - lo)
            old = self._buf[lo * f:(lo + n) * f].reshape(n, f)
            np.take(old, P, axis=1, out=G[:n])
            np.take(old, keep, axis=1, out=T[:n])
            new = self._buf[lo * fk:(lo + n) * fk].reshape(n, fk)
            np.matmul(G[:n], N, out=new)
            new += T[:n]
            _mod(new, self.p)


def modular_rank(M, p: int = 101) -> int:
    """Rank of an integer matrix mod p via the accumulator."""
    M = np.asarray(M)
    if M.size == 0:
        return 0
    acc = ModularRankAccumulator(M.shape[1], p)
    acc.add_batch(M)
    return acc.rank()
