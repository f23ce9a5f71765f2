"""Reference versions of recomb's module ranks and generator sieve.

`module_rank` and `generator_sieve` are the orbit versions that
`recomb.identities` replaced by block rows per irreducible
(`recomb.symmetric`): every permutation of a combination goes into the
mod-p accumulator as one sparse row, so the rank of those rows is the
module's dimension mod p by definition.  The tests require the package to
return exactly what these return.
"""

import numpy as np

from recomb.identities import _permuted_rows
from recomb.linalg import ModularRankAccumulator, squared_norm
from recomb.monomials import get_context, permutation_rows


def _add_orbit(acc, ctx, vector) -> None:
    """Add the S_d-orbit of a coefficient vector to the accumulator.

    The accumulator only ever holds whole orbits, so its span is
    S_d-invariant: when the vector alone adds no rank, its whole orbit is
    already inside and is skipped.  Otherwise the orbit goes in as one
    sparse row per permutation, duplicates dropped.
    """
    vector = np.asarray(vector, dtype=np.int64)
    nz = np.flatnonzero(vector)
    if not acc.add_rows(nz, vector[nz]):
        return
    idc = ctx.combination_of(vector.tolist())
    cols, coeffs = _permuted_rows(ctx, ctx.term_groups(idc),
                                  permutation_rows(ctx.d))
    order = np.argsort(cols, axis=1)
    rows = np.unique(np.hstack([np.take_along_axis(cols, order, axis=1),
                                np.take_along_axis(coeffs, order, axis=1)]),
                     axis=0)
    t = cols.shape[1]
    for lo in range(0, len(rows), 2048):
        acc.add_rows(rows[lo:lo + 2048, :t], rows[lo:lo + 2048, t:])


def module_rank(vectors, n, d, p) -> int:
    """Rank mod p of all permutations of the given coefficient vectors."""
    ctx = get_context(n, d)
    acc = ModularRankAccumulator(ctx.num_monomials, p)
    for v in vectors:
        _add_orbit(acc, ctx, v)
    return acc.rank()


def generator_sieve(vectors, n, d, p) -> list:
    """(position, squared norm, cumulative rank) of every vector whose orbit
    raises the rank, until the rank reaches the number of vectors."""
    ctx = get_context(n, d)
    acc = ModularRankAccumulator(ctx.num_monomials, p)
    out = []
    for pos, v in enumerate(vectors, start=1):
        before = acc.rank()
        _add_orbit(acc, ctx, v)
        if acc.rank() > before:
            out.append((pos, squared_norm(v), acc.rank()))
        if acc.rank() >= len(vectors):
            break
    return out
