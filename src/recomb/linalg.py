"""Exact integer and rational linear algebra.

Everything here is exact: row canonical form over the rationals, canonical
integer nullspace bases, Hermite normal form with a unimodular transform,
integer LLL lattice reduction, and an incremental mod-p rank accumulator.

The exact kernels (RCF, HNF, the LLL Gram matrix) work on numpy integer
arrays whose row operations are whole-array steps.  One magnitude guard
picks the dtype: int64 while every step's bound |x| + |q| |y| (for a
product, max|a| max|b| inner) stays below 2^62, dtype=object holding
Python ints once it does not.  The same numpy code runs on both, and the
results are lists of Python ints either way.  The insertion HNF touches
only the columns that can change: a reduction's product skips the unit
pivots, where H is zero but in the pivot's own row, and a new pivot row
updates the rows above it only where it is nonzero; its guards bound |H|
by a running maximum instead of rescanning it, and its pivot structure is
rebuilt only when a placement changes it.

LLL starts from the integral Gram-Schmidt data d_j and lam_ij (Cohen,
Alg. 2.6.7), unique to the basis, so computed from residues mod a stack of
primes below 2^21 and CRT, exact by two integer checks (_lll_initialize).
The reduction loop keeps the basis as one int64 array and applies the
size reductions of a pass to it as one product, b_k -= sum_j q_j b_j, in
int64 while max|b_k| + sum_j |q_j| max_j |b_j| < 2^62.

The mod-p accumulator keeps the reduced echelon basis as [I | C] and
stores only C, the rows on the non-pivot columns, as float residues.
Residues mod p have one format, the dtype of _residue_type(p): _residues
converts integer input of any size to it, and the accumulator and the
module engine (recomb.symmetric) compute in it and hand it on as it is.
Rows go in sparse, as (columns, coefficients): the free entries are
scattered into a block Y and each pivot entry v adds (p - v) times its row
of C, one pass per entry position across the whole block.  Every product
of residues, in the accumulator, the module engine and _gram_residues, is
one call of _addmul, which keeps its sums exact (K terms at a time, see
there) and runs each slab by _blas, the one BLAS helper it shares with
the LLL Gram product: a product past the 2^18 multiply-adds that OpenBLAS
keeps on the calling thread goes in row tiles within that bound when its
right factor has at most 512 columns, so that no helper thread wakes to
spin beside the caller; every other product goes to BLAS whole.  The
dtype is float32 (K = 1644 at p = 101) while K >= 64, that is p <= 509,
float64 for larger primes, up to the largest with p^2 < 2^53, where K = 1.
Neither the width nor the block size enters exactness.  Reduction mod p
is floor division by p, exact in that range with no correction step
(_mod).  The echelon kernel stops reading a block once its rows pivot
every free column: the rest lie in their span.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, islice
from typing import NamedTuple

import numpy as np


class DependentRowsError(ValueError):
    """Input rows are linearly dependent where independence is required."""


# ---------------------------------------------------------------------------
# exact integer rows: int64 while safe, Python ints otherwise

_SAFE = 1 << 62     # |x| + |q| |y| below this cannot overflow int64


def _absmax(a) -> int:
    a = np.asarray(a)
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _integer(x) -> int:
    """x as a Python int; ValueError unless x is integral."""
    n = int(x)
    if n != x:
        raise ValueError(f"non-integral entry {x!r}")
    return n


def _int_matrix(M) -> np.ndarray:
    """M as a new 2-d integer array: int64 when every entry is below 2^62,
    else dtype=object holding Python ints; non-integral entries raise.
    Integer input is read into one array, which the cast keeps."""
    A = np.array(M, order="C")
    if A.dtype.kind not in "biu":
        A = np.array([[_integer(x) for x in row] for row in M], dtype=object)
    if A.ndim != 2:
        return np.zeros((len(A), 0), dtype=np.int64)
    return A.astype(np.int64 if _absmax(A) < _SAFE else object, copy=False)


def _lincomb(fa, X, fb, Y) -> np.ndarray:
    """fa*X - fb*Y exactly: in int64 while |fa||X| + |fb||Y| < 2^62, else
    in Python ints.  The factors broadcast as numpy operands."""
    if (X.dtype == object or Y.dtype == object or
            _absmax(fa) * max(_absmax(X), 1) +
            _absmax(fb) * max(_absmax(Y), 1) >= _SAFE):
        X, Y = X.astype(object), Y.astype(object)
    return fa * X - fb * Y


def _matmul(A, B) -> np.ndarray:
    """Exact A @ B: int64 when max|A| max|B| inner < 2^62, else Python ints."""
    if (A.dtype == object or B.dtype == object or
            _absmax(A) * _absmax(B) * A.shape[-1] >= _SAFE):
        A, B = A.astype(object), B.astype(object)
    return A @ B


def _put(A, idx, X) -> np.ndarray:
    """A[idx] = X, widening A to Python ints first when X holds them."""
    if X.dtype != A.dtype:
        A = A.astype(object)
    A[idx] = X
    return A


# ---------------------------------------------------------------------------
# small matrix helpers (lists of python ints)

def _row_norms(A: np.ndarray) -> list:
    """Squared norm of each row of an integer array, as Python ints: in
    int64 while max|A|^2 width < 2^62, else in Python ints."""
    if A.dtype != object and _absmax(A) ** 2 * A.shape[1] >= _SAFE:
        A = A.astype(object)
    return np.einsum("ij,ij->i", A, A).tolist()


def squared_norm(v) -> int:
    """Sum of squares of an integer vector."""
    return _row_norms(_int_matrix([v]))[0]


def _sorted_by_norm(vectors) -> tuple:
    """(squared norms, vectors) sorted by squared norm, each taken once;
    ties break lexicographically on the entries.  The caller's rows are
    permuted, not copied; an array is turned into lists of ints first.
    The norms are taken _CHUNK entries at a time."""
    rows = vectors.tolist() if isinstance(vectors, np.ndarray) else vectors
    step = max(1, _CHUNK // max(len(rows[0]), 1)) if rows else 1
    norms = [q for lo in range(0, len(rows), step)
             for q in _row_norms(_int_matrix(rows[lo:lo + step]))]
    pairs = sorted(zip(norms, rows))
    return [q for q, _ in pairs], [v for _, v in pairs]


def sort_vectors_by_norm(vectors):
    """Sort by squared norm; ties break lexicographically on the entries."""
    return _sorted_by_norm(vectors)[1]


def int_matmul(A, B):
    """Exact product of integer matrices."""
    return _matmul(_int_matrix(A), _int_matrix(B)).tolist()


# ---------------------------------------------------------------------------
# row canonical form over Q

class RcfResult(NamedTuple):
    rows: list          # reduced row echelon form, Fractions
    rank: int
    pivots: list        # pivot column per pivot row


def _echelon(M) -> tuple:
    """Fraction-free Gauss-Jordan: (A, pivots), pivot rows on top.

    Row i < rank is the RCF row i times A[i, pivots[i]]; the other rows are
    zero.  Rational rows are first scaled by their denominators' LCM.  Each
    pivot step clears column c from every other row at once by
    fa*A[i] - fb*A[r] and divides the changed rows by their content.
    """
    if np.asarray(M).dtype == object:      # Fractions or big ints
        scaled = []
        for row in M:
            row = [x if isinstance(x, Fraction) else Fraction(_integer(x))
                   for x in row]
            L = math.lcm(*(x.denominator for x in row))
            scaled.append([int(x * L) for x in row])
        M = scaled
    A = _int_matrix(M)
    m, n = A.shape
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        nz = np.flatnonzero(A[r:, c])
        if not nz.size:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        others = np.flatnonzero(A[:, c])
        others = others[others != r]
        if others.size:
            a, b = A[r, c], A[others, c]
            g = np.gcd(b, a)
            X = _lincomb((a // g)[:, None], A[others], (b // g)[:, None], A[r])
            content = np.gcd.reduce(X, axis=1)
            content[content == 0] = 1
            A = _put(A, others, X // content[:, None])
        pivots.append(c)
    return A, pivots


def rcf(M) -> RcfResult:
    """Unique reduced row echelon form over the rationals."""
    A, pivots = _echelon(M)
    m, n = A.shape
    rows = [[Fraction(x, row[c]) for x in row]
            for row, c in zip(A[:len(pivots)].tolist(), pivots)]
    rows += [[Fraction(0)] * n for _ in range(m - len(pivots))]
    return RcfResult(rows, len(pivots), pivots)


def rcf_nullspace(M) -> list:
    """Canonical integer nullspace basis from the RCF.

    One vector per free column: free coordinate set to 1, pivots back-solved,
    then the vector is scaled by the LCM of its denominators, which leaves
    its entries coprime.  Returned in free-column order, built as lists
    _CHUNK entries at a time.
    """
    A, pivots = _echelon(M)
    n = A.shape[1]
    free = np.setdiff1d(np.arange(n), pivots)
    k = len(pivots)
    P = A[:k]
    a = P[np.arange(k), pivots]
    # RCF entry (i, f) is N[i, f] / a[i] = num / den in lowest terms
    N = P[:, free] * np.sign(a)[:, None]
    a = np.abs(a)[:, None]
    g = np.gcd(N, a)
    num, den = N // g, a // g
    L = np.lcm.reduce(den.astype(object), axis=0, initial=1)
    if _absmax(num) * _absmax(L) < _SAFE:
        L = L.astype(np.int64)
    else:
        num = num.astype(object)
    Q = (-num * (L // den)).T       # the pivot entries, one row per vector
    rows, step = [], max(1, _CHUNK // max(n, 1))
    for lo in range(0, len(free), step):
        W = np.zeros((len(Q[lo:lo + step]), n), dtype=Q.dtype)
        W[:, pivots] = Q[lo:lo + step]
        W[np.arange(len(W)), free[lo:lo + step]] = L[lo:lo + step]
        rows += W.tolist()
    return rows


# ---------------------------------------------------------------------------
# Hermite normal form

class HnfResult(NamedTuple):
    h: list             # m x n HNF
    u: list             # m x m unimodular transform, u @ M = h
    rank: int
    pivots: list        # pivot column per nonzero row


def hnf_with_transform(M) -> HnfResult:
    """Row HNF of an integer matrix with a unimodular transform.

    H satisfies: zeros left of each pivot, pivots >= 1, entries above a pivot
    reduced into [0, pivot), zero rows at the bottom.  H is unique; U is not.
    The column steps run on [M | I], which they turn into [H | U].  Column
    by column, remainder rounds shrink the entries below the pivot row
    until one is left; above-pivot entries are reduced as soon as each
    pivot settles, which keeps the transform entries small.  Each round's
    row operations use one fixed pivot row, so they run as one array step.
    """
    h = _int_matrix(M)
    m, n = h.shape
    h = np.hstack([h, np.eye(m, dtype=np.int64)])
    pivots = []

    def reduce_rows(rows, q, r):
        nonlocal h
        sel = np.flatnonzero(q)
        if sel.size:
            rows = rows[sel]
            h = _put(h, rows, _lincomb(1, h[rows], q[sel][:, None], h[r]))

    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        while True:
            col = h[r:, c]
            live = np.flatnonzero(col)
            if not live.size:
                break
            i0 = r + int(live[np.argmin(np.abs(col[live]))])
            if i0 != r:
                h[[r, i0]] = h[[i0, r]]
            if live.size == 1:
                break
            # floor keeps remainders in [0, |a|)
            reduce_rows(np.arange(r + 1, m), h[r + 1:, c] // h[r, c], r)
        if h[r, c]:
            if h[r, c] < 0:
                h[r] = -h[r]
            reduce_rows(np.arange(r), h[:r, c] // h[r, c], r)
            pivots.append(c)
    return HnfResult(h[:, :n].tolist(), h[:, n:].tolist(), len(pivots), pivots)


def _pivots(H, slot) -> tuple:
    """(pivot columns of H in order, their rows, their pivot entries).

    Only a placement changes them: the row steps of _place never touch a
    pivot entry, so hnf_rows rebuilds this once per change of slot.
    """
    cols = (slot >= 0).nonzero()[0]
    rows = slot[cols]
    return cols, rows, H[rows, cols]


def _reduce_by(v, H, piv, top) -> np.ndarray:
    """v minus lattice rows of H, with v[c] in [0, pivot) at every pivot c.

    H is fully reduced, so it is zero at every unit pivot column but the
    row's own: v is cleared at all of those by one product, taken only on
    the other columns, and the other pivot columns, whose rows are zero at
    unit columns, follow in order.  A running bound |v| + sum |q| top, top
    bounding |H|, keeps each step in int64 while it stays below 2^62.
    piv is _pivots(H, slot).
    """
    cols, rows, a = piv
    unit = a == 1
    nz = v[cols[unit]].nonzero()[0]
    bound = _absmax(v)              # bounds |v| as the steps go
    if nz.size:
        bound *= 1 + nz.size * top
        v = v.astype(object) if H.dtype == object or bound >= _SAFE else \
            v.copy()
        rest = np.ones(len(v), dtype=bool)
        rest[cols[unit]] = False
        q, urows = v[cols[unit][nz]], rows[unit][nz]
        v[rest] -= q @ H[urows[:, None], rest]
        v[cols[unit]] = 0
    for c, s, ac in zip(cols[~unit], rows[~unit], a[~unit]):
        q = int(v[c]) // int(ac)
        if q:
            bound += abs(q) * top
            if H.dtype == object or bound >= _SAFE:
                v = v.astype(object)
            v = v - q * H[s].astype(v.dtype)
    return v


def _place(H, slot, piv, s, w, top) -> tuple:
    """Make w the pivot row of its leading column c, in row s of H.

    w is reduced by H and positive at c, which is not a pivot of H; H is
    fully reduced and stays so.  The rows above c are reduced at c by w,
    then at each non-unit pivot right of c (w is zero at the unit ones), a
    step X - f y touching only the columns where y is nonzero.  top bounds
    |H|, so |f| <= top and a step stays in int64 while top (1 + |y|) <
    2^62.  piv is _pivots(H, slot).  Returns (H, top).
    """
    c = int(w.nonzero()[0][0])
    cols, rows, a = piv
    above = rows[cols < c]
    wtop = _absmax(w)
    for p in [c, *cols[(cols > c) & (a != 1)]]:
        y, ytop = (w, wtop) if p == c else (H[slot[p]], top)
        f = H[above, p]
        f = (f if f.dtype == y.dtype else f.astype(object)) // y[p]
        sel = f.nonzero()[0]
        if sel.size:
            f = f[sel, None] if top * (1 + ytop) < _SAFE else \
                f[sel, None].astype(object)
            idx = above[sel, None], y.nonzero()[0]
            X = H[idx] - f * y[idx[1]]
            H = _put(H, idx, X)
            top = max(top, _absmax(X))
    H = _put(H, s, w)
    slot[c] = s
    return H, max(top, wtop)


def hnf_rows(M) -> list:
    """Nonzero rows of the HNF (no transform); canonical for lattice tests.

    Rows are inserted one at a time into a fully reduced HNF, combining
    with the pivot row by an extended gcd where the pivot does not divide
    (Kannan and Bachem).  Entries stay small: 10 bits on the degree-7
    lattice, where eliminating column by column reaches 1,251 bits.  A
    running bound top on |H| spares the int64 guards a rescan of H, and
    the pivot structure is rebuilt only when a placement changes it.
    """
    A = _int_matrix(M)
    m, n = A.shape
    H = np.zeros((min(m, n), n), dtype=A.dtype)
    slot = np.full(n, -1)       # row of H whose pivot is column c, or -1
    used = top = 0
    piv = _pivots(H, slot)
    for v in A:
        while True:
            v = _reduce_by(v, H, piv, top)
            nz = v.nonzero()[0]
            if not nz.size:
                break
            c = int(nz[0])
            s = slot[c]
            if s < 0:
                if v[c] < 0:
                    v = _reduce_by(-v, H, piv, top)
                H, top = _place(H, slot, piv, used, v, top)
                piv = _pivots(H, slot)
                used += 1
                break
            # 0 < v[c] < pivot: the gcd row x H[s] + y v replaces the pivot
            # row, x a + y b = g by x = (a / g)^-1 mod b / g
            a, b = int(H[s, c]), int(v[c])
            g = math.gcd(a, b)
            x = pow(a // g, -1, b // g)
            w = _lincomb(x, H[s], (x * a - g) // b, v)
            v = _lincomb(a // g, v, b // g, H[s])
            slot[c] = -1
            piv = _pivots(H, slot)
            H, top = _place(H, slot, piv, s, _reduce_by(w, H, piv, top), top)
            piv = _pivots(H, slot)
    return H[slot[slot >= 0]].tolist()


def nullspace_lattice(M) -> list:
    """Lattice basis of {x : M x = 0} over Z.

    Bottom rows of the transform U with U M^t = HNF(M^t); every integer
    nullspace vector is an integer combination of these rows.
    """
    res = hnf_with_transform(_int_matrix(M).T)
    return res.u[res.rank:]


def lattices_equal(A, B) -> bool:
    """Same integer row span (HNF is a lattice invariant)."""
    return hnf_rows(A) == hnf_rows(B)


# ---------------------------------------------------------------------------
# integer LLL

_LOVASZ = (3, 4)        # delta = 3/4, the classical Lovasz condition
_PRIME_BITS = 21        # Gram-Schmidt residues are taken mod primes < 2^21


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))


def _check_modulus(p: int) -> None:
    """Ranks mod p need a prime p with p^2 < 2^53: a residue product must be
    an exact float64 integer.  The size comes first, since trial division
    of a larger p would take minutes."""
    if p * p >= 2 ** 53:
        raise ValueError(f"p = {p} is too large: ranks mod p need p^2 < 2^53")
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def _primes():
    """The primes below 2^_PRIME_BITS, largest first."""
    return (p for p in range((1 << _PRIME_BITS) - 1, 1, -1) if _is_prime(p))


def _prime_count(G) -> int:
    """How many primes the checks of _lll_initialize will likely ask for.

    A float64 Cholesky G = L D L^T, the elimination of _gram_residues
    without the modulus, gives the pivots a_j = d_{j+1} / d_j, hence log2 d
    and the bits of both checks; the count covers one bit more at
    _PRIME_BITS - 0.1 bits a prime.  Only a hint, and 1 when G is not
    numerically positive definite.
    """
    try:
        A = G.astype(np.float64)
    except OverflowError:
        return 1
    a = np.diagonal(A)
    for j in range(len(A)):
        A[j, j:] -= (A[:j, j] / a[:j]) @ A[:j, j:]
        if not a[j] > 0:
            return 1
    ld = np.concatenate([[0.0], np.cumsum(np.log2(a))])
    g = np.log2(np.diagonal(G).astype(np.float64))
    bits = np.max([np.max(ld[:-1] + g, initial=0),
                   (2 + np.max(g, initial=0) +
                    np.max(ld[:-1] + ld[1:], initial=0)) / 2])
    if not np.isfinite(bits):
        return 1
    return max(1, math.ceil((bits + 1) / (_PRIME_BITS - 0.1)))


def _gram(B) -> np.ndarray:
    """B B^T exactly: in float64 while max|B|^2 width < 2^53, as every
    partial sum is then an exact integer, else by _matmul; _blas tiles it."""
    if B.dtype == object or _absmax(B) ** 2 * B.shape[1] >= 1 << 53:
        return _matmul(B, B.T)
    F = B.astype(np.float64)
    return _blas(F, F.T).astype(np.int64)


def _gram_residues(G, P):
    """Residues of d and lam mod every prime of P, and which primes live.

    Symmetric elimination of G mod all the primes at once, in one float64
    stack of shape (t, k, k), p broadcast along its first axis: pivot j is
    a_j = d_{j+1} / d_j and row j, once reduced, holds lam_ij / d_j at
    column i > j.  Row j takes the updates of all earlier pivot rows by one
    stacked _addmul, a matrix-vector product per prime with the moduli
    broadcast, as it is reduced; each pivot row, divided by its pivot, is
    kept transposed in the unused lower triangle.  A zero pivot mod p kills
    p (its inverse becomes 0, so its column stays in range); the others go
    on, and the elimination stops early only when none is left.  Returns
    (R, live): live[s] is False where P[s] met a zero pivot, and row s of
    the int64 array R holds, for a live P[s], d mod P[s] and then the lower
    triangle of lam mod P[s] packed row by row.
    """
    t, k = len(P), len(G)
    A = np.empty((t, k, k))
    for a, p in zip(A, P.tolist()):
        # reduced as integers, G may be big, straight into the stack
        np.remainder(G, p, out=a, casting="unsafe")
    p2 = P[:, None].astype(np.float64)
    live, plist = np.ones(t, dtype=bool), P.tolist()
    for j in range(k):
        row = A[:, j, j:]
        _addmul(row[:, :, None], A[:, j:, :j],
                (p2 - A[:, :j, j])[:, :, None], p2[:, None])
        live &= row[:, 0] > 0
        if not live.any():
            return None, live
        inv = [pow(int(a), -1, p) if a else 0
               for a, p in zip(row[:, 0].tolist(), plist)]
        A[:, j + 1:, j] = _mod(row[:, 1:] * np.array(inv, float)[:, None], p2)
    a = np.diagonal(A, axis1=1, axis2=2).astype(np.int64)
    R = np.empty((t, k + 1 + k * (k - 1) // 2), dtype=np.int64)
    R[:, :k + 1] = [list(accumulate(x, lambda y, z: y * z % p, initial=1))
                    for x, p in zip(a.tolist(), plist)]
    # np.take gathers in C order; _mod is slow on A[:, j, i]'s column order
    i, j = np.tril_indices(k, -1)
    lam = np.take(A.reshape(t, k * k), j * k + i, axis=1)
    lam *= np.take(R, j, axis=1)
    R[:, k + 1:] = _mod(lam, p2)
    return R, live


def _shortfall(d, g, M) -> int:
    """Bits M lacks for the two checks of _lll_initialize; 0 when both hold.

    The checks are d_j g_j < M for every j and 4 max g max d_j d_{j+1} <
    M^2.  Where d_j g_j >= M first, the rebuilt d may be wrong from
    d_{j+1} on; there it is bounded by d_{j+1} <= d_j g_j instead, so that
    primes of the returned bits (over 20 each) make both checks hold.
    """
    D, exact = [1], True
    for j, x in enumerate(g):
        exact = exact and D[j] * x < M
        D.append(d[j + 1] if exact else D[j] * x)
    top = max(max(map(math.prod, zip(D, g)), default=0),
              math.isqrt(4 * max(g, default=0) *
                         max(map(math.prod, zip(D, D[1:])), default=0)))
    return top.bit_length() - M.bit_length() + 1 if top >= M else 0


def _crt(digits, primes) -> np.ndarray:
    """Values in [0, M) from their Garner digits, as Python ints.

    Three digits make one int64 word (p^3 < 2^63), so the Python-int Horner
    steps are a third as many as the primes.
    """
    x = np.zeros(len(digits[0]), dtype=object)
    for t in reversed(range(0, len(primes), 3)):
        w = np.zeros(len(digits[0]), dtype=np.int64)
        for q, v in zip(reversed(primes[t:t + 3]), reversed(digits[t:t + 3])):
            w = w * q + v
        x *= math.prod(primes[t:t + 3])     # in place: a third faster
        x += w.astype(object)
    return x


def _lll_initialize(B):
    """Integer Gram-Schmidt data: d[i] = det Gram(b1..bi), lam scaled mu.

    lam[i] holds lam[i][j] = d[j + 1] mu[i][j] for j < i.  Both are unique
    to the basis, so they are computed mod primes p < 2^21 by elimination
    of the Gram matrix G = B B^T (_gram_residues, a stack of primes at a
    time) and rebuilt exactly by CRT over M, the product of the primes.
    Exactness rests on two integer checks, never on floats (_shortfall): d
    is rebuilt in [0, M), exact by induction when d_j G_jj < M for every j,
    since d_{j+1} <= d_j |b_j|^2; lam is rebuilt in (-M/2, M/2), exact when
    4 max G_ii max d_j d_{j+1} < M^2, since lam_ij^2 <= |b_i|^2 d_j d_{j+1}.
    The first stack has as many primes as a float64 estimate of d asks for
    (_prime_count); while the checks fail, a stack of the primes they lack
    follows.  A zero pivot mod p means p divides some d_j, and the prime is
    replaced, or the rows are dependent, which one exact rank decides.  A
    stack holds at most _CHUNK float64 entries, and at least one prime.
    Each prime is folded into Garner mixed-radix digits as it comes.
    B is the integer array of the basis (_int_matrix), which is only read.
    """
    k = len(B)
    G = _gram(B)
    g = [int(x) for x in np.diagonal(G).tolist()]
    source, stack = _primes(), max(1, _CHUNK // max(k * k, 1))
    digits, primes = [], []     # value = sum_t digits[t] * prod(primes[:t])
    M, want, independent = 1, _prime_count(G), None
    while True:
        while len(primes) < want:
            P = np.array(list(islice(source, min(want - len(primes), stack))))
            R, live = _gram_residues(G, P)
            if not live.all():
                if independent is None:
                    independent = len(_echelon(B)[1]) == k
                if not independent:
                    raise DependentRowsError("rows are linearly dependent")
            for s in np.flatnonzero(live):
                # digit t = (value - (digits so far)) / (p_0 ... p_{t-1}) mod
                # p: h sums digit_u (p_0 ... p_{u-1} mod p), terms below 2^42
                p, r = int(P[s]), R[s]
                h, w = np.zeros(len(r), dtype=np.int64), 1
                for q, v in zip(primes, digits):
                    h += v * w
                    w = w * q % p
                digits.append((r - h % p) * pow(M, -1, p) % p)
                primes.append(p)
                M *= p
        d = _crt([x[:k + 1] for x in digits], primes).tolist()
        short = _shortfall(d, g, M)
        if not short:
            break
        want = len(primes) + -(-short // (_PRIME_BITS - 1))
    lam = _crt([x[k + 1:] for x in digits], primes)
    lam[lam > M // 2] -= M
    lam = lam.tolist()
    return d, [lam[i * (i - 1) // 2:i * (i + 1) // 2] for i in range(k)]


def lll_reduce(basis) -> list:
    """LLL-reduced basis of the same lattice, in exact integer arithmetic.

    The Lovasz parameter is delta = 3/4 (_LOVASZ), which gives the classical
    guarantees.  Raises DependentRowsError when the input rows are
    dependent, a single zero row included.  The basis is one integer array
    whose rows swap through an index list.  The size reductions of a pass
    update lam one at a time but b_k once, at its end, by the product
    sum_j q_j b_j over the steps of the pass, whose b_j it leaves unchanged:
    in int64 while max|b_k| + sum_j |q_j| max_j |b_j| < 2^62, else widened
    to Python ints (_put).
    """
    b = _int_matrix(basis)
    k = len(b)
    if not k:
        return []
    num, den = _LOVASZ
    d, lam = _lll_initialize(b)
    half = [x >> 1 for x in d]              # 2|x| > d_j iff |x| > half[j]
    at = list(range(k))                     # row of b holding basis vector i
    qs, src = [], []                        # the pass's steps b_k -= q b[s]

    def red(i, j):
        """lam_i -= q lam_j for q the integer nearest to mu_ij."""
        li, dj = lam[i], d[j + 1]
        q = (li[j] + half[j + 1]) // dj
        li[j] -= q * dj
        li[:j] = [x - q * y for x, y in zip(li, lam[j])]
        qs.append(q)
        src.append(at[j])

    kk = 1
    while kk < k:
        lk, r = lam[kk], at[kk]
        if abs(lk[kk - 1]) > half[kk]:
            red(kk, kk - 1)
        lam_k = lk[kk - 1]
        if den * (d[kk + 1] * d[kk - 1] + lam_k * lam_k) < num * d[kk] * d[kk]:
            # swap b[kk-1], b[kk] and patch the Gram data
            at[kk - 1], at[kk] = at[kk], at[kk - 1]
            lam[kk - 1], lam[kk] = lk[:kk - 1], lam[kk - 1] + [lam_k]
            dk, dk1 = d[kk], d[kk + 1]
            B = (d[kk - 1] * dk1 + lam_k * lam_k) // dk
            for li in lam[kk + 1:]:
                t = li[kk]
                li[kk] = u = (dk1 * li[kk - 1] - lam_k * t) // dk
                li[kk - 1] = (B * t + lam_k * u) // dk1
            d[kk], half[kk] = B, B >> 1
            kk = max(kk - 1, 1)
        else:
            for j in range(kk - 2, -1, -1):
                if abs(lk[j]) > half[j + 1]:
                    red(kk, j)
            kk += 1
        if qs:
            bound = _absmax(b[r]) + sum(map(abs, qs)) * _absmax(b[src])
            q = np.array(qs, dtype=np.int64 if bound < _SAFE else object)
            b = _put(b, r, b[r] - q @ b[src])
            del qs[:], src[:]
    return b[at].tolist()


# ---------------------------------------------------------------------------
# incremental rank over F_p

_BASE_ROWS = 12         # rows the echelon kernel eliminates one at a time
_CHUNK = 1 << 21        # elements gathered, updated or built per step
_MOD_BLOCK = 1 << 16    # elements per pass of _mod, small enough for cache
# Fewest terms per exact sum (K) at which residues are float32.  At small K
# products go in many short slabs, whose fixed cost swamps the halved bytes:
# at K = 1 (p = 4093) the degree-9 expansion rank takes 0.040-0.044 s in
# float32 against 0.017-0.018 s in float64 (0.85 s against 0.05 s while
# blocks held K rows).  At K = 32 (p = 719) float32 wins (0.012 s against
# 0.017-0.020 s; it lost while blocks held K rows), as at K = 64 (p = 509)
# over float64 at p = 521 (0.009-0.012 s against 0.018-0.020 s; warm,
# minimum of 5 calls, 2 vCPUs, OpenBLAS).
_FLOAT32_MIN_TERMS = 64
# Multiply-adds of a matrix product that OpenBLAS keeps on the calling
# thread whatever the layout.  A larger one may wake a helper thread, which
# then spins beside the caller and doubles the CPU time.  OpenBLAS 0.3.31 on
# 2 vCPUs, by process over thread CPU time: with both factors C-ordered, up
# to 10^6 ran on one thread (40 x 160 by 160 x 156, 998,400; two threads at
# 160 x 157); with a transposed right factor, as in the Gram product B B^T,
# 7 x 280 by 280 x 267 (523,320) ran on one and 280 x 268 (525,280) on two.
# No product of at most 2^18 took two.
_THREAD_TERMS = 1 << 18
# Most columns of a right factor that _blas cuts into row tiles.  The module
# engine's block products have one type's monomials as columns, 360 at most
# at (2,6): tiled, `generators -n 2 -d 6` took 2.2-2.7 s of CPU, as with one
# vector-matrix product per vector, against 4.1-4.3 s with 256 here.  The
# certify closure's right factors have 13,406 to 15,400 columns over the 1
# to 126 pivots that their rows use (_addmul's skip rule), so
# their tiles would hold 18 rows at most, 8 in the median (seed 0).
_NARROW = 512


def _residues(x, p: int) -> np.ndarray:
    """Integers x mod p as residues of _residue_type(p), exact at any size;
    a non-integral entry raises ValueError.  An integer array reduces by %
    in int64 straight into the residues, with no int64 result beside x,
    anything else entry by entry, as a list that numpy reads as floats
    would round its big ints."""
    a = np.asarray(x)
    dtype = _residue_type(p)[0]
    if np.can_cast(a.dtype, np.int64):
        return np.remainder(a.astype(np.int64, copy=False), p,
                            out=np.empty(a.shape, dtype), casting="unsafe")
    return np.array([_integer(v) % p for v in np.array(x, dtype=object).flat],
                    dtype=dtype).reshape(a.shape)


def _residue_type(p: int) -> tuple:
    """(dtype, K) of residues mod p: a residue plus K products below p^2
    is exact and in _mod's range while K p^2 <= 2^m - p, 2^m = 2^24 in
    float32, 2^53 in float64; float32 while its K >= _FLOAT32_MIN_TERMS."""
    k = (2 ** 24 - p) // (p * p)
    if k >= _FLOAT32_MIN_TERMS:
        return np.float32, k
    return np.float64, (2 ** 53 - p) // (p * p)


def _blas(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B of float arrays by BLAS, on the calling thread where it can.

    The rule depends on the shapes alone.  A 2-d product of more than
    _THREAD_TERMS multiply-adds whose right factor has at most _NARROW
    columns goes in tiles of whole rows, as many as keep each tile within
    _THREAD_TERMS, so that OpenBLAS runs every tile on the calling thread.
    Any other product is one call: a vector-matrix product, a wide right
    factor, or one that a single row already takes past _THREAD_TERMS.
    """
    k, n = B.shape[-2:]
    rows = _THREAD_TERMS // max(k * n, 1)
    if A.ndim != 2 or n > _NARROW or not rows or len(A) <= rows:
        return np.matmul(A, B)
    out = np.empty((len(A), n), dtype=np.result_type(A, B))
    for lo in range(0, len(A), rows):
        np.matmul(A[lo:lo + rows], B, out=out[lo:lo + rows])
    return out


def _addmul(X: np.ndarray, A: np.ndarray, B: np.ndarray, p) -> np.ndarray:
    """X <- X + A @ B mod p in place, returning X; every residue product.

    X and B hold residues of _residue_type(p), A entries in [0, p], as a -
    b*c goes in as a + (p - b)*c: every term is an integer in [0, p^2).  The
    inner dimension goes K terms at a time, X reduced mod p in between, so
    no sum passes a residue plus K terms, exact by _residue_type.  p is an
    int, or moduli along X's leading axes, (t, 1, 1) for a stack of t.  An
    entry 0 or p of A adds 0 mod p: past _THREAD_TERMS multiply-adds a 2-d
    product leaves out the rows and columns of A with no other entry when
    that at least halves it, _CHUNK elements of X at a time.
    """
    n = B.shape[-1]
    if A.ndim == 2 and A.size * n > _THREAD_TERMS:
        live = (A != 0) & (A != p)
        rows, cols = (np.flatnonzero(live.any(axis=a)) for a in (1, 0))
        if 2 * len(rows) * len(cols) <= A.size:
            B, step = B[cols], max(1, _CHUNK // n)
            for lo in range(0, len(rows), step):
                i = rows[lo:lo + step]
                X[i] = _addmul(X[i], A[np.ix_(i, cols)], B, p)
            return X
    k = _residue_type(p if isinstance(p, int) else int(p.max()))[1]
    for lo in range(0, A.shape[-1], k):
        if lo:
            _mod(X, p)
        a, b = A[..., lo:lo + k], B[..., lo:lo + k, :]
        # numpy's matmul runs a single term by a slow loop of its own
        X += _blas(a, b) if a.shape[-1] > 1 else (a * b).reshape(X.shape)
    return _mod(X, p)


def _mod(X: np.ndarray, p) -> np.ndarray:
    """X mod p into [0, p), in place, for a float array or a view of one.

    p is an int, or an array of moduli, one for each leading index of X.
    Exact for integers |X| <= 2^24 - p in float32 and |X| <= 2^53 - p in
    float64, by q = floor(X / p) alone: X / p is an integer or lies at
    least 1/p from one, and below 2^m / p half an ulp is less than 1/p, so
    the rounded quotient never crosses an integer, and q*p stays within the
    exact integers.  This is several times faster than np.fmod or % on the
    large quotients a product leaves; blocks keep the passes in cache.
    """
    rows = X[None] if X.ndim == 1 else X
    if not rows.size:
        return X
    step = max(1, _MOD_BLOCK // rows[0].size)
    q = np.empty((min(step, len(rows)), *rows.shape[1:]), dtype=X.dtype)
    for lo in range(0, len(rows), step):
        x = rows[lo:lo + step]
        m = p[lo:lo + step] if isinstance(p, np.ndarray) else p
        t = q[:len(x)]
        np.divide(x, m, out=t)
        np.floor(t, out=t)
        t *= m
        x -= t
    return X


class ModularRankAccumulator:
    """Incremental reduced row echelon form mod p, stored as [I | C].

    Up to a column permutation the basis is [I | C]: row i is 1 in pivot
    column piv[i], 0 in the other pivot columns and C[i] on the free columns.
    Only C is kept, at most width^2 / 4 residues.  add_rows is the one
    input: sparse rows, reduced in blocks.  A block's free entries are
    scattered into Y, and pass s adds (p - v) * C[row of the pivot] for the
    s-th pivot entry v of every row that has one, so Y = X[:, free] -
    X[:, piv] @ C without a product over the zeros of X.  A recursive
    kernel echelonises Y and the new pivots are cleared from C, whose
    columns are then compacted out in place.  Each of those products is an
    update X <- X + (p - X[:, P]) @ R by _addmul, which keeps it exact and
    leaves out the zero rows and columns of X[:, P] where that pays.

    Residues in [0, p) are floats for BLAS, of _residue_type(p)'s dtype and
    K (1644 at p = 101, 1 at the largest p, 94,906,249); a row's entries go
    in K-entry slabs, reduced mod p in between.  So neither the width nor
    the block size enters exactness, and p need only be prime with p^2 <
    2^53 (_check_modulus).  Once a block's first rows hold a pivot in every
    free column, the kernel leaves the others unread, since they lie in the
    span.
    """

    def __init__(self, width: int, p: int):
        _check_modulus(p)
        self.width = width
        self.p = p
        self._dtype, self._k = _residue_type(p)
        self._piv = np.empty(0, dtype=np.int64)
        self._free = np.arange(width, dtype=np.int64)
        # column c is free column pos[c] when pos[c] >= 0, else the pivot
        # of row -1 - pos[c]
        self._pos = np.arange(width, dtype=np.int64)
        self._buf = np.empty(0, dtype=self._dtype)   # C, row-major

    def rank(self) -> int:
        return len(self._piv)

    @property
    def pivots(self) -> np.ndarray:
        """Pivot columns, in the order they were found (read-only)."""
        piv = self._piv.view()
        piv.flags.writeable = False
        return piv

    def kernel(self) -> np.ndarray:
        """Basis mod p of {x : row . x = 0 for every row added}, as the
        int64 columns of a width x (width - rank) array: free column j
        set to 1 and the pivots solved from [I | C]."""
        f = len(self._free)
        K = np.zeros((self.width, f), dtype=np.int64)
        K[self._free, np.arange(f)] = 1
        K[self._piv] = (self.p - self._c().astype(np.int64)) % self.p
        return K

    def add_rows(self, cols, coeffs) -> int:
        """Reduce sparse rows; returns the number of new pivots.

        cols and coeffs broadcast to one (N, t) shape, row i holding
        coeffs[i, j] in column cols[i, j]; a 1-d shape is one row.  Integer
        coefficients of any size are reduced mod p exactly.  Repeated columns
        in a row are summed and zero coefficients skipped, so a dense matrix
        M goes in as add_rows(np.arange(width), M).  Float residues of the
        accumulator's dtype, integral and in [0, p), go in as they are.
        Column indices outside 0..width-1 raise ValueError.

        Rows go in blocks of K, the size the engine was tuned at, and of at
        least _BASE_ROWS: exact at any size (_addmul), a block trades its one
        merge, a pass over all of C, against its rows over the free columns.
        """
        v = np.asarray(coeffs)
        if not (v.dtype == self._dtype and 0 <= v.min(initial=0) and
                v.max(initial=0) < self.p and (v == np.floor(v)).all()):
            v = _residues(coeffs, self.p)
        cols, coeffs = map(np.atleast_2d, np.broadcast_arrays(
            np.asarray(cols, dtype=np.int64), v))
        if cols.size and not 0 <= cols.min() <= cols.max() < self.width:
            raise ValueError(f"columns must lie in 0..{self.width - 1}")
        k = max(self._k, _BASE_ROWS)
        return sum(self._add(cols[lo:lo + k], coeffs[lo:lo + k])
                   for lo in range(0, len(cols), k))

    # -- internals -----------------------------------------------------------

    def _c(self) -> np.ndarray:
        r, f = self.rank(), len(self._free)
        return self._buf[:r * f].reshape(r, f)

    def _add(self, cols: np.ndarray, v: np.ndarray) -> int:
        """Reduce and absorb one block of sparse rows, residues v on cols.

        Each row's nonzero pivot entries go first, and the rows with the
        most of them first, so pass s, which adds (p - v) * C[row of the
        pivot] for the s-th pivot entry v of every row that has one, runs
        over a leading slice of the rows.  Free entries are scattered in
        the slab of K entries they fall in.
        """
        p, k, f = self.p, self._k, len(self._free)
        if not f:
            return 0
        pos = self._pos[cols]
        piv = (pos < 0) & (v != 0)
        order = np.argsort(~piv, axis=1, kind="stable")
        pos, v = (np.take_along_axis(x, order, axis=1) for x in (pos, v))
        npiv = piv.sum(axis=1)
        order = np.argsort(-npiv, kind="stable")
        pos, v, npiv = pos[order], v[order], npiv[order]
        C = self._c()
        Y = np.zeros((len(v), f), dtype=self._dtype)
        step = max(1, _CHUNK // f)
        G = np.empty((min(step, len(Y)), f), dtype=self._dtype)
        for a in range(0, len(Y), step):
            y = Y[a:a + step]
            for lo in range(0, pos.shape[1], k):
                if lo:
                    _mod(y, p)
                r, j = np.nonzero(pos[a:a + step, lo:lo + k] >= 0)
                r, j = r + a, j + lo
                np.add.at(Y, (r, pos[r, j]), v[r, j])
                for s in range(lo, min(lo + k, npiv[a])):
                    m = np.count_nonzero(npiv[a:a + step] > s)
                    g = G[:m]
                    np.take(C, -1 - pos[a:a + m, s], axis=0, out=g,
                            mode="clip")
                    g *= p - v[a:a + m, s, None]
                    y[:m] += g
        return self._absorb(Y)

    def _absorb(self, Y: np.ndarray) -> int:
        """Echelonise reduced rows Y (free columns) and merge their pivots."""
        _mod(Y, self.p)
        piv = self._rref(Y)
        if piv:
            self._merge(Y[:len(piv)], np.asarray(piv, dtype=np.int64))
        return len(piv)

    def _rref(self, Y: np.ndarray) -> list:
        """Echelonise the rows of Y into Y[:len(pivots)]; returns pivots.

        Drop zero rows, echelonise the first half, reduce the second half by
        it, echelonise that, and use it to clear the first.  A first half
        with a pivot in every column spans the whole row space, so the
        second half, which can add no pivot, is left as it is.
        """
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
        if k1 == Y.shape[1]:
            return P1
        Y2, p = Y[half:], self.p
        if k1:
            _addmul(Y2, p - Y2[:, P1], Y[:k1], p)
        P2 = self._rref(Y2)
        k2 = len(P2)
        if k2:
            if k1:
                _addmul(Y[:k1], p - Y[:k1, P2], Y2[:k2], p)
            Y[k1:k1 + k2] = Y2[:k2]
        return P1 + P2

    def _rref_rows(self, Y: np.ndarray) -> list:
        """Kernel base case: Gauss-Jordan one row at a time, in place,
        stopping once every column holds a pivot."""
        p = self.p
        piv: list = []
        for y in Y:
            k = len(piv)
            a = y[piv]
            if a.any():
                _addmul(y, p - a, Y[:k], p)
            j = int((y != 0).argmax())
            if not y[j]:
                continue
            inv = pow(int(y[j]), -1, p)
            if inv != 1:
                y = _mod(y * inv, p)
            i = np.flatnonzero(Y[:k, j])
            if i.size:
                Y[i] = _addmul(Y[i], p - Y[i, j, None], y[None], p)
            Y[k] = y
            piv.append(j)
            if len(piv) == len(y):
                break
        return piv

    def _merge(self, R: np.ndarray, P: np.ndarray) -> None:
        """Add echelon rows R over the free columns, pivots at positions P."""
        r, f, k = self.rank(), len(self._free), len(P)
        keep = np.ones(f, dtype=bool)
        keep[P] = False
        keep = np.flatnonzero(keep)
        fk = len(keep)
        N = np.take(R, keep, axis=1)
        # C <- C[:, keep] + (p - C[:, P]) @ N by chunks of rows, compacted in
        # place: a chunk's destination ends before the next chunk's source,
        # and np.take buffers its output, so it may overwrite what it reads
        step = max(1, min(r, _CHUNK // f))
        for lo in range(0, r, step):
            n = min(step, r - lo)
            old = self._buf[lo * f:(lo + n) * f].reshape(n, f)
            A = self.p - old[:, P]
            new = self._buf[lo * fk:(lo + n) * fk].reshape(n, fk)
            np.take(old, keep, axis=1, out=new)
            _addmul(new, A, N, self.p)
        need = (r + k) * fk
        if self._buf.size != need:
            # realloc: grows or shrinks without a second full-size copy
            self._buf.resize(need, refcheck=False)
        self._buf[r * fk:] = N.ravel()
        self._piv = np.concatenate([self._piv, self._free[P]])
        self._free = self._free[keep]
        self._pos[self._free] = np.arange(fk)
        self._pos[self._piv[r:]] = -1 - np.arange(r, r + k)
