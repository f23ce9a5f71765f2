"""Module structure of identity spaces under the symmetric group.

An identity in degree d spans an S_d-module: the span of all variable
permutations of its coefficient vector.  Ranks of such spans (mod p) decide
which nullspace vectors are genuinely new generators and whether higher
degrees contain identities that are not consequences of lower ones.

Module dimensions come one irreducible at a time (recomb.symmetric): each
combination becomes block rows in Young's seminormal form, one block per
partition of d, and the module's dimension is the rank of the stacked
blocks weighted by the irreducibles' dimensions.  The certify closure
samples permutations instead: DegreeContext's vectorised straightening
maps leaf rows relabelled by a block of permutations to monomial columns,
so each permutation of a combination becomes a sparse row of a handful of
columns.  No command runs it: it is kept only for the benchmark's
deg9-closure workload, and goes when that workload times the exact closure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import golden
from .expansion import column_blocks, evaluate_identity
from .linalg import ModularRankAccumulator, _is_prime, squared_norm
from .monomials import (
    DegreeContext,
    IdentityCombination,
    get_context,
    is_leaf,
    leaves,
    relabel,
    shape_of,
    straighten,
    tree_degree,
)


def _check_prime(p: int, d: int | None) -> None:
    """Module ranks are taken mod a prime p > d: the seminormal entries
    divide by axial distances 1..d-1, and p > d does not divide d!, so
    F_p[S_d] is semisimple and p does not divide |Aut T| either.  With d
    None only the primality is checked."""
    if d is not None and p <= d:
        raise ValueError(f"need a prime p > degree, got p={p}, d={d}")
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def _permuted_rows(ctx: DegreeContext, terms: list, sigmas) -> tuple:
    """(columns, coefficients), one row per permutation of a combination.

    Row i is the sparse coefficient vector of sigmas[i] . combination, whose
    type-grouped terms are `terms`; both arrays are (len(sigmas), #terms).
    """
    cols = np.hstack([ctx.relabelled_columns(ti, lvs, sigmas)
                      for ti, lvs, _ in terms])
    coeffs = np.concatenate([c for _, _, c in terms])
    return cols, np.broadcast_to(coeffs, cols.shape)


def _add_sparse_rows(acc: ModularRankAccumulator, blocks) -> None:
    """Reduce blocks of (columns, coefficients) rows as one batch, the
    shorter rows padded with zero coefficients."""
    t = max(c.shape[1] for c, _ in blocks)
    cols, coeffs = (np.vstack([np.pad(a, ((0, 0), (0, t - a.shape[1])))
                               for a in arrays]) for arrays in zip(*blocks))
    acc.add_rows(cols, coeffs)


def _module_dims(ctx: DegreeContext, vectors, p: int):
    """Dimension mod p of the S_d-module the first k vectors span, for
    k = 1, 2, ...: each vector's block rows go into one accumulator over
    the irreducibles' columns (see recomb.symmetric)."""
    if not len(vectors):
        return
    irr = ctx.irreducibles(p)
    acc = ModularRankAccumulator(irr.width, p)
    for B in irr.blocks(vectors):
        acc.add_rows(irr.columns, B)
        yield irr.dimension(acc)


def module_rank(ids, p: int = 101) -> int:
    """Dimension mod p of the S_d-module spanned by the given identities."""
    ids = list(ids)
    if not ids:
        return 0
    n, d = ids[0].n, ids[0].degree
    _check_prime(p, d)
    for idc in ids:
        if (idc.n, idc.degree) != (n, d):
            raise ValueError("mixed arities or degrees")
    ctx = get_context(n, d)
    return list(_module_dims(ctx, [ctx.vector_of(idc) for idc in ids], p))[-1]


@dataclass
class SieveGenerator:
    position: int               # 1-based position in the processed order
    norm_sq: int
    identity: IdentityCombination
    cumulative_rank: int


def generator_sieve(vectors, n: int, d: int, p: int = 101) -> list:
    """Scan nullspace vectors in the given order, keeping module generators.

    A vector is a generator when it strictly increases the dimension of
    the accumulated S_d-module.  Stops once the dimension reaches the
    number of vectors, the nullspace dimension for a nullspace basis.
    """
    _check_prime(p, d)
    vectors = [list(map(int, v)) for v in vectors]
    ctx = get_context(n, d)
    dims = _module_dims(ctx, [[x % p for x in v] for v in vectors], p)
    out: list = []
    rank = 0
    for pos, (vec, new_rank) in enumerate(zip(vectors, dims), start=1):
        if new_rank > rank:
            out.append(SieveGenerator(pos, squared_norm(vec),
                                      ctx.combination_of(vec).normalized(),
                                      new_rank))
            rank = new_rank
        if rank >= len(vectors):
            break
    return out


def single_generator(vectors, n: int, d: int, p: int = 101) -> int | None:
    """1-based position of the first vector whose S_d-module alone has
    dimension len(vectors), or None."""
    _check_prime(p, d)
    vectors = [[int(x) % p for x in v] for v in vectors]
    if not vectors:
        return None
    irr = get_context(n, d).irreducibles(p)
    for pos, B in enumerate(irr.blocks(vectors), start=1):
        acc = ModularRankAccumulator(irr.width, p)
        acc.add_rows(irr.columns, B)
        if irr.dimension(acc) == len(vectors):
            return pos
    return None


# ---------------------------------------------------------------------------
# degree lifting

@dataclass
class LiftedConsequence:
    source: IdentityCombination
    kind: str                   # "substitute" or "embed"
    variable: int | None        # substituted variable, None for embeddings
    result: IdentityCombination


def _substitute_leaf(tree, var: int, replacement):
    if is_leaf(tree):
        return replacement if tree == var else tree
    return tuple(_substitute_leaf(c, var, replacement) for c in tree)


def lift_identity(idc: IdentityCombination) -> list:
    """All one-step consequences of an identity in the next degree.

    One consequence per variable x (replace x by the operation applied to
    x and n-1 fresh variables) plus one embedding of the whole identity in
    an operation with n-1 fresh variables.  Fresh variables take indices
    d, d+1, ..., d+n-2.
    """
    n, d = idc.n, idc.degree
    fresh = tuple(range(d, d + n - 1))
    out: list = []
    for x in range(d):
        node = (x,) + fresh
        res = IdentityCombination.from_terms(
            n, [(c, _substitute_leaf(t, x, node)) for t, c in idc.terms.items()],
            d + n - 1)
        if not res.terms:
            raise ValueError(f"substitution consequence for {x} collapsed")
        out.append(LiftedConsequence(idc, "substitute", x, res))
    res = IdentityCombination.from_terms(
        n, [(c, (t,) + fresh) for t, c in idc.terms.items()], d + n - 1)
    if not res.terms:
        raise ValueError("embedding consequence collapsed")
    out.append(LiftedConsequence(idc, "embed", None, res))
    return out


# ---------------------------------------------------------------------------
# closure: are there new identities in degree d?

@dataclass
class ClosureResult:
    """Degree-d nullspace against the span of the lifted consequences.

    Dimensions are ranks mod p, and rank_p <= rank_Q.  E has only C(d,n)
    distinct rows, so rank_p(E) <= rank_Q(E) <= C(d,n): `nullspace_dim` =
    width - rank_p(E) is exact over Q when rank_p(E) = C(d,n), as in every
    case computed so far, and an upper bound on the rational nullspace
    dimension otherwise.  `final_dim` = rank_p(consequences) is a lower
    bound on the consequences' rational rank.  Every consequence lies in
    ker_Q(E), so final_dim <= rank_Q(consequences) <= dim ker_Q(E) <=
    nullspace_dim, and equality of the two ends forces equality throughout:
    "no new identities" is then exact over Q.  A shortfall may come from an
    unlucky prime, so exact mode reports "new identities" only when a
    second prime gives the same dimensions, and "inconclusive" when it does
    not.  Certify mode (kept for the benchmark alone, see new_identity_test)
    reports "inconclusive" when it runs out of samples; when it stops short
    of the nullspace before that (there are no consequences to sample), it
    applies exact mode's rule.
    """

    degree: int
    nullspace_dim: int
    consequence_dims: list      # cumulative dims (exact mode), else [final]
    final_dim: int
    verdict: str                # "no new identities" | "new identities" | "inconclusive"
    samples: int                # permutations processed (certify mode)


def expansion_rank(n: int, d: int, p: int = 101) -> tuple:
    """(rank of E mod p, nullspace dimension) for degree d.

    E has C(d,n) distinct rows, so rank_p(E) <= rank_Q(E) <= C(d,n): when
    the rank mod p reaches C(d,n) it is the rational rank and the nullspace
    dimension is exact over Q.  The columns of E on its subset rows stream
    through the accumulator block by block.
    """
    ctx = get_context(n, d)
    acc = ModularRankAccumulator(math.comb(d, n), p)
    for _, rows, coeffs in column_blocks(ctx):
        acc.add_rows(rows, coeffs)
    rank = acc.rank()
    return rank, ctx.num_monomials - rank


def _consequence_dims(ctx: DegreeContext, consequences, p: int) -> list:
    """Module dimension mod p after each consequence in turn."""
    return list(_module_dims(ctx, [ctx.vector_of(idc) for idc in consequences],
                             p))


def new_identity_test(d: int, known, p: int = 101, *, n: int | None = None,
                      mode: str = "exact", seed: int = 0,
                      max_samples: int | None = None) -> ClosureResult:
    """Compare the degree-d nullspace with the span of lifted consequences.

    `known` holds identities of degree d-(n-1); their lifts are the degree-d
    consequences.  Exact mode reports the dimension of the module the
    consequences span after each one, taken per irreducible (see
    recomb.symmetric): the rank mod p of all their permutations, without
    forming one.  A span short of the nullspace is checked at a second
    prime (see ClosureResult).  Certify mode samples random permutations
    round-robin until the span reaches the nullspace dimension (proof of
    "no new identities"), or gives up as inconclusive.  It has no CLI path:
    only the benchmark's deg9-closure workload calls it, and it goes when
    that workload times the exact closure.
    """
    known = list(known)
    if n is None:
        if not known:
            raise ValueError("need identities or an explicit arity")
        n = known[0].n
    _check_prime(p, d)
    rank, null_dim = expansion_rank(n, d, p)
    consequences = [lc.result for idc in known for lc in lift_identity(idc)]
    for idc in consequences:
        if idc.degree != d:
            raise ValueError("consequence degree mismatch")

    ctx = get_context(n, d)

    def shortfall_verdict(dims):
        """A span short of the nullspace, checked at a second prime."""
        q = golden.scalars()["check_prime"]
        if p == q:
            q = golden.scalars()["default_prime"]
        agree = (expansion_rank(n, d, q)[1] == null_dim
                 and _consequence_dims(ctx, consequences, q) == dims)
        return "new identities" if agree else "inconclusive"

    if mode == "exact":
        dims = _consequence_dims(ctx, consequences, p)
        final = dims[-1] if dims else 0
        verdict = ("no new identities" if final == null_dim
                   else shortfall_verdict(dims))
        return ClosureResult(d, null_dim, dims, final, verdict, 0)

    if mode != "certify":
        raise ValueError(f"unknown mode {mode!r}")
    acc = ModularRankAccumulator(ctx.num_monomials, p)
    if max_samples is None:
        max_samples = 40 * null_dim + 10000
    rng = np.random.default_rng(seed)
    groups = [ctx.term_groups(idc) for idc in consequences]
    samples = 0
    # the rank only moves between batches of 512 samples, so the sample
    # count at which the span is complete is a multiple of 512
    while groups and samples < max_samples and acc.rank() < null_dim:
        b = min(512, max_samples - samples)
        sigmas = np.array([rng.permutation(d) for _ in range(b)], dtype=np.int8)
        which = (samples + np.arange(b)) % len(groups)
        _add_sparse_rows(acc, [_permuted_rows(ctx, terms, sigmas[which == k])
                               for k, terms in enumerate(groups)])
        samples += b
    final = acc.rank()
    if final == null_dim:
        verdict = "no new identities"
    elif samples >= max_samples:
        verdict = "inconclusive"
    else:
        # the loop stops before the cap only when there are no consequences
        verdict = shortfall_verdict([])
    return ClosureResult(d, null_dim, [final], final, verdict, samples)


# ---------------------------------------------------------------------------
# rewriting the second association type into the first

def _rewrite_template(n: int) -> IdentityCombination:
    if n == 3:
        return golden.load_identity("second_type_rewrite_n3")
    if n == 2:
        return golden.load_identity("binary_recombination_reduced")
    raise ValueError(f"no rewrite template for arity {n}")


def rewrite_second_type(m, n: int | None = None) -> IdentityCombination:
    """Express a second-association-type monomial in the first type.

    Instantiates the bundled rewrite identity (whose unique second-type term
    has coefficient +1) under the variable substitution matching m, and
    returns the equivalent first-type combination.
    """
    if n is None:
        if is_leaf(m):
            raise ValueError("need an arity for a bare variable")
        n = len(m)
    m = straighten(m, n)
    d = tree_degree(m)
    template = _rewrite_template(n)
    if template.degree != d:
        raise ValueError(f"no rewrite template for arity {n}, degree {d}")
    second_type = get_context(n, d).types[1]
    if shape_of(m) != second_type:
        raise ValueError("monomial is not of the second association type")
    t0 = next(t for t in template.terms if shape_of(t) == second_type)
    c0 = template.terms[t0]
    if abs(c0) != 1:
        raise ValueError(f"rewrite template has coefficient {c0} on its "
                         "second-type term, expected +-1")
    src = leaves(t0)
    dst = leaves(m)
    sigma = [0] * d
    for a, b in zip(src, dst):
        sigma[a] = b
    return IdentityCombination.from_terms(
        n, [(-coeff * c0, relabel(tree, sigma))
            for tree, coeff in template.terms.items() if tree != t0], d)


def verify_identity(idc: IdentityCombination) -> int:
    """Number of residual slot tuples after expansion (0 iff identity)."""
    return len(evaluate_identity(idc))
