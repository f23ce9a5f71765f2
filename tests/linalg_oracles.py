"""Pure-Python reference implementations of recomb's exact kernels.

`rcf`, `rcf_nullspace`, `hnf_with_transform`, `hnf_rows` and `lll_reduce`
are the list-of-ints versions that `recomb.linalg` replaced by numpy
integer kernels, and `_lll_initialize` the integral Gram-Schmidt recurrence
it replaced by residues mod word-size primes and CRT; the tests require the
kernels to return exactly what these return.  `is_lll_reduced` and `rational_span_equal` are test oracles that
the package itself never needed.
"""

import math
from fractions import Fraction

from recomb.linalg import DependentRowsError, HnfResult, RcfResult
from recomb.linalg import hnf_rows as _fast_hnf_rows


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
    return HnfResult(h, u, r, pivots)


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


def rational_span_equal(A, B) -> bool:
    """Equal row spans over Q, by a mutual rank test.

    Ranks come from integer HNFs: HNF rows are independent over Q, so the
    nonzero-row count is the rational rank, without Fraction arithmetic.
    The HNFs are recomb's own, row insertion: the column algorithm above
    lets entries grow to over a thousand bits on the degree-7 lattice.
    """
    ra = len(_fast_hnf_rows(A))
    rb = len(_fast_hnf_rows(B))
    if ra != rb:
        return False
    return len(_fast_hnf_rows(list(A) + list(B))) == ra


def _lll_initialize(b):
    """Integer Gram-Schmidt data: d[i] = det Gram(b1..bi), lam scaled mu.

    The integral recurrence of Cohen, Alg. 2.6.7, in Python ints; lam[i]
    holds lam[i][j] for j < i.
    """
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
    return d, [row[:i] for i, row in enumerate(lam)]


def lll_reduce(basis, delta=(3, 4)) -> list:
    """LLL-reduced basis of the same lattice, in exact integer arithmetic.

    delta is the Lovasz parameter as an integer pair (num, den); the default
    3/4 gives the classical guarantees.  Raises DependentRowsError when the
    input rows are dependent, a single zero row included.
    """
    b = [[int(x) for x in row] for row in basis]
    k = len(b)
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
