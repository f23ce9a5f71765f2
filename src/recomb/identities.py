"""Module structure of identity spaces under the symmetric group.

An identity in degree d spans an S_d-module: the span of all variable
permutations of its coefficient vector.  Ranks of such spans (mod p) decide
which nullspace vectors are genuinely new generators and whether higher
degrees contain identities that are not consequences of lower ones.

One orbit engine feeds the rank accumulator: DegreeContext's vectorised
straightening, which maps leaf rows relabelled by any block of permutations
to monomial columns.  Where d! is small enough to tabulate (degree <= 7
here) it builds a gather table once and orbits are dense gathers; at degree
9 it turns each permutation of a combination into a sparse row of a
handful of columns.  An orbit whose seed already lies in the accumulated
(S_d-invariant) span is skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import golden
from .expansion import build_expansion_matrix, evaluate_identity
from .linalg import ModularRankAccumulator, squared_norm
from .monomials import (
    DegreeContext,
    IdentityCombination,
    get_context,
    is_leaf,
    leaves,
    permutation_rows,
    relabel,
    shape_of,
    straighten,
    tree_degree,
)

_TABLE_LIMIT = 45000  # largest d! worth tabulating


def _term_groups(ctx: DegreeContext, idc: IdentityCombination) -> list:
    """Terms of a combination by type: [(type index, leaf rows, coeffs)]."""
    by_type: dict = {}
    for tree, coeff in idc.terms.items():
        by_type.setdefault(ctx.type_index[shape_of(tree)], []).append(
            (leaves(tree), coeff))
    return [(ti, np.array([lv for lv, _ in g], dtype=np.int8),
             np.array([c for _, c in g], dtype=np.int64))
            for ti, g in sorted(by_type.items())]


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
    """Reduce blocks of (columns, coefficients) rows as one sparse batch."""
    width = np.concatenate([np.full(len(c), c.shape[1]) for c, _ in blocks])
    acc.add_sparse_batch(np.repeat(np.arange(len(width)), width),
                         np.concatenate([c.ravel() for c, _ in blocks]),
                         np.concatenate([v.ravel() for _, v in blocks]),
                         len(width))


def _add_orbit(acc: ModularRankAccumulator, ctx: DegreeContext,
               idc: IdentityCombination, p: int) -> None:
    """Add the S_d-orbit of a combination to the accumulator.

    The accumulator only ever holds whole orbits, so its span is
    S_d-invariant: when the combination alone adds no rank, its whole orbit
    is already inside and is skipped.  Above the table limit the orbit goes
    in as sparse rows, duplicates dropped, in first-occurrence order.
    """
    v = ctx.vector_of(idc) % p
    if not acc.add_batch(v):
        return
    if math.factorial(ctx.d) <= _TABLE_LIMIT:
        acc.add_batch(v.astype(np.float64)[ctx.perm_table_inv()])
        return
    cols, coeffs = _permuted_rows(ctx, _term_groups(ctx, idc),
                                  permutation_rows(ctx.d))
    order = np.argsort(cols, axis=1)
    cols = np.take_along_axis(cols, order, axis=1)
    coeffs = np.take_along_axis(coeffs, order, axis=1)
    _, first = np.unique(np.hstack([cols, coeffs]), axis=0, return_index=True)
    first.sort()
    for lo in range(0, len(first), 2048):
        sel = first[lo:lo + 2048]
        _add_sparse_rows(acc, [(cols[sel], coeffs[sel])])


def module_rank(ids, p: int = 101, *, n: int | None = None,
                d: int | None = None) -> int:
    """Dimension mod p of the S_d-module spanned by the given identities."""
    ids = list(ids)
    if not ids:
        return 0
    n = ids[0].n if n is None else n
    d = ids[0].degree if d is None else d
    if p <= d:
        raise ValueError(f"need a prime p > degree, got p={p}, d={d}")
    for idc in ids:
        if (idc.n, idc.degree) != (n, d):
            raise ValueError("mixed arities or degrees")
    ctx = get_context(n, d)
    acc = ModularRankAccumulator(ctx.num_monomials, p)
    for idc in ids:
        _add_orbit(acc, ctx, idc, p)
    return acc.rank()


@dataclass
class SieveGenerator:
    position: int               # 1-based position in the processed order
    norm_sq: int
    identity: IdentityCombination
    cumulative_rank: int


def generator_sieve(vectors, n: int, d: int, p: int = 101,
                    target: int | None = None) -> list:
    """Scan nullspace vectors in the given order, keeping module generators.

    A vector is a generator when its orbit strictly increases the rank of
    the accumulated S_d-module.  Stops once the cumulative rank reaches
    `target` (defaults to the number of vectors, i.e. the nullspace dim).
    """
    vectors = [list(map(int, v)) for v in vectors]
    if target is None:
        target = len(vectors)
    ctx = get_context(n, d)
    acc = ModularRankAccumulator(ctx.num_monomials, p)
    out: list = []
    rank = 0
    for pos, vec in enumerate(vectors, start=1):
        idc = ctx.combination_of(vec)
        _add_orbit(acc, ctx, idc, p)
        new_rank = acc.rank()
        if new_rank > rank:
            out.append(SieveGenerator(pos, squared_norm(vec),
                                      idc.normalized(), new_rank))
            rank = new_rank
        if rank >= target:
            break
    return out


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
        terms: dict = {}
        for tree, coeff in idc.terms.items():
            t2 = straighten(_substitute_leaf(tree, x, node), n)
            terms[t2] = terms.get(t2, 0) + coeff
        res = IdentityCombination(n, d + n - 1,
                                  {t: c for t, c in terms.items() if c},
                                  _trusted=True)
        if not res.terms:
            raise ValueError(f"substitution consequence for {x} collapsed")
        out.append(LiftedConsequence(idc, "substitute", x, res))
    terms = {}
    for tree, coeff in idc.terms.items():
        t2 = straighten((tree,) + fresh, n)
        terms[t2] = terms.get(t2, 0) + coeff
    res = IdentityCombination(n, d + n - 1,
                              {t: c for t, c in terms.items() if c},
                              _trusted=True)
    if not res.terms:
        raise ValueError("embedding consequence collapsed")
    out.append(LiftedConsequence(idc, "embed", None, res))
    return out


# ---------------------------------------------------------------------------
# closure: are there new identities in degree d?

@dataclass
class ClosureResult:
    """Degree-d nullspace against the span of the lifted consequences.

    Dimensions are ranks mod p.  Since rank_p <= rank_Q, `nullspace_dim` =
    width - rank_p(E) is an upper bound on the rational nullspace dimension
    and `final_dim` = rank_p(consequences) a lower bound on the consequences'
    rational rank.  Every consequence lies in ker_Q(E), so
    final_dim <= rank_Q(consequences) <= dim ker_Q(E) <= nullspace_dim, and
    equality of the two ends forces equality throughout: "no new identities"
    is then exact over Q.  A shortfall may come from an unlucky prime, so
    exact mode reports "new identities" only when a second prime gives the
    same dimensions, and "inconclusive" when it does not; certify mode
    reports "inconclusive" when it runs out of samples.
    """

    degree: int
    nullspace_dim: int
    consequence_dims: list      # cumulative dims (exact mode), else [final]
    final_dim: int
    verdict: str                # "no new identities" | "new identities" | "inconclusive"
    mode: str
    samples: int                # permutations processed (certify mode)


def expansion_rank(n: int, d: int, p: int = 101) -> tuple:
    """(rank of E mod p, nullspace dimension) for degree d."""
    E = build_expansion_matrix(n, d)
    acc = ModularRankAccumulator(E.array.shape[0], p)
    step = 4096
    for lo in range(0, E.array.shape[1], step):
        acc.add_batch(E.array[:, lo:lo + step].T)
    rank = acc.rank()
    return rank, E.array.shape[1] - rank


def _consequence_dims(ctx: DegreeContext, consequences, p: int) -> list:
    """Span dimension mod p after adding each consequence's orbit in turn."""
    acc = ModularRankAccumulator(ctx.num_monomials, p)
    dims = []
    for idc in consequences:
        _add_orbit(acc, ctx, idc, p)
        dims.append(acc.rank())
    return dims


def new_identity_test(d: int, known, p: int = 101, *, n: int | None = None,
                      mode: str = "exact", seed: int = 0,
                      max_samples: int | None = None) -> ClosureResult:
    """Compare the degree-d nullspace with the span of lifted consequences.

    `known` holds identities of degree d-(n-1); their lifts are the degree-d
    consequences.  Exact mode runs the full orbit of every consequence and
    reports the cumulative dimension after each one; a span short of the
    nullspace is checked at a second prime (see ClosureResult).  Certify
    mode samples random permutations round-robin until the span reaches the
    nullspace dimension (proof of "no new identities"), or gives up as
    inconclusive.
    """
    known = list(known)
    if n is None:
        if not known:
            raise ValueError("need identities or an explicit arity")
        n = known[0].n
    rank, null_dim = expansion_rank(n, d, p)
    consequences = [lc.result for idc in known for lc in lift_identity(idc)]
    for idc in consequences:
        if idc.degree != d:
            raise ValueError("consequence degree mismatch")

    ctx = get_context(n, d)

    if mode == "exact":
        dims = _consequence_dims(ctx, consequences, p)
        final = dims[-1] if dims else 0
        verdict = "no new identities"
        if final != null_dim:
            q = golden.scalars()["check_prime"]
            if p == q:
                q = golden.scalars()["default_prime"]
            agree = (expansion_rank(n, d, q)[1] == null_dim
                     and _consequence_dims(ctx, consequences, q) == dims)
            verdict = "new identities" if agree else "inconclusive"
        return ClosureResult(d, null_dim, dims, final, verdict, mode, 0)

    if mode != "certify":
        raise ValueError(f"unknown mode {mode!r}")
    acc = ModularRankAccumulator(ctx.num_monomials, p)
    if max_samples is None:
        max_samples = 40 * null_dim + 10000
    rng = np.random.default_rng(seed)
    groups = [_term_groups(ctx, idc) for idc in consequences]
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
        verdict = "new identities"
    return ClosureResult(d, null_dim, [final], final, verdict, "certify", samples)


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
    terms: dict = {}
    for tree, coeff in template.terms.items():
        if tree == t0:
            continue
        t2 = straighten(relabel(tree, sigma), n)
        terms[t2] = terms.get(t2, 0) - coeff * c0
    return IdentityCombination(n, d, {t: c for t, c in terms.items() if c},
                               _trusted=True)



def verify_identity(idc: IdentityCombination) -> int:
    """Number of residual slot tuples after expansion (0 iff identity)."""
    return len(evaluate_identity(idc))
