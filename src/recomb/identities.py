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
from .expansion import _height, _template, column_blocks
from .linalg import ModularRankAccumulator, _check_modulus, squared_norm
from .monomials import DegreeContext, IdentityCombination, get_context, relabel
from .symmetric import irreducibles


def _check_prime(p: int, d: int | None) -> None:
    """Module ranks are taken mod a prime p > d: the seminormal entries
    divide by axial distances 1..d-1, and p > d does not divide d!, so
    F_p[S_d] is semisimple and p does not divide |Aut T| either.  With d
    None only the accumulators' rule is checked: p prime with p^2 < 2^53
    (_check_modulus), the size before the primality."""
    if d is not None and p <= d:
        raise ValueError(f"need a prime p > degree, got p={p}, d={d}")
    _check_modulus(p)


def _second_prime(p: int) -> int:
    """The prime that confirms a rank found mod p: the golden check prime
    (103), or the default prime (101) when p is the check prime."""
    sc = golden.scalars()
    return sc["check_prime"] if p != sc["check_prime"] else sc["default_prime"]


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
    irr = irreducibles(ctx, p)
    acc = ModularRankAccumulator(irr.width, p)
    for B in irr.blocks(vectors):
        acc.add_rows(irr.columns, B)
        yield irr.dimension(acc)


def _combination_dims(ctx: DegreeContext, ids, p: int) -> list:
    """Module dimension mod p after each combination in turn."""
    return list(_module_dims(ctx, [ctx.vector_of(idc) for idc in ids], p))


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
    return _combination_dims(get_context(n, d), ids, p)[-1]


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
    vectors = list(vectors)
    ctx = get_context(n, d)
    dims = _module_dims(ctx, vectors, p)
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


def single_generator(vectors, gens, n: int, d: int,
                     p: int = 101) -> int | None:
    """1-based position of the first vector whose S_d-module alone has
    dimension N = len(vectors), or None.  gens is generator_sieve(vectors,
    n, d, p).  Such a vector takes the sieve's running dimension to N, and
    the sieve stops where it first gets there, at its last generator: the
    scan starts at that one (at 1 when there is none)."""
    _check_prime(p, d)
    vectors = list(vectors)
    if not vectors:
        return None
    irr = irreducibles(get_context(n, d), p)
    start = gens[-1].position if gens else 1
    for pos, B in enumerate(irr.blocks(vectors[start - 1:]), start=start):
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
        sub = list(range(d))
        sub[x] = (x,) + fresh
        res = IdentityCombination.from_terms(
            n, [(c, relabel(t, sub)) for t, c in idc.terms.items()], d + n - 1)
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

    E has C(d,n) distinct rows (one at degree 1), so rank_p(E) <= rank_Q(E)
    <= C(d,n): when the rank mod p reaches C(d,n) it is the rational rank
    and the nullspace dimension is exact over Q.  The columns of E on its
    subset rows stream through the accumulator block by block, and the
    stream stops once the rank reaches C(d,n), the accumulator's width: no
    later column can raise it, so the early stop changes no answer.
    """
    ctx = get_context(n, d)
    height = _height(n, d)
    acc = ModularRankAccumulator(height, p)
    for _, rows, coeffs in column_blocks(ctx):
        acc.add_rows(rows, coeffs)
        if acc.rank() == height:
            break
    rank = acc.rank()
    return rank, ctx.num_monomials - rank


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
        q = _second_prime(p)
        agree = (expansion_rank(n, d, q)[1] == null_dim
                 and _combination_dims(ctx, consequences, q) == dims)
        return "new identities" if agree else "inconclusive"

    if mode == "exact":
        dims = _combination_dims(ctx, consequences, p)
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


def verify_identity(idc: IdentityCombination) -> int:
    """Number of residual slot tuples after expansion (0 iff identity):
    n! for each n-subset whose coefficients sum to nonzero, since by the
    closed form (recomb.expansion) all orderings of a subset share its
    coefficient, or 1 for the lone variable's tuple below degree n."""
    acc: dict = {}
    for tree, coeff in idc.terms.items():
        for s, c in zip(*_template(tree, idc.n)):
            acc[s] = acc.get(s, 0) + coeff * c
    orderings = math.factorial(idc.n) if idc.degree >= idc.n else 1
    return orderings * sum(1 for c in acc.values() if c)
