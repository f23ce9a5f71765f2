"""Reproduction harness: recompute published values and report pass/fail.

Each scope bundles the checks for one part of the computation; expected
values come exclusively from the golden data directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import golden
from .expansion import build_expansion_matrix
from .identities import (
    _check_prime,
    expansion_rank,
    generator_sieve,
    lift_identity,
    module_rank,
    new_identity_test,
    verify_identity,
)
from .linalg import (
    det_bareiss,
    hnf_with_transform,
    int_matmul,
    lattices_equal,
    lll_reduce,
    nullspace_lattice,
    rcf,
    rcf_nullspace,
    sort_vectors_by_norm,
    squared_norm,
    transpose,
)

SCOPES = ("binary", "deg5", "deg7", "deg9-rank", "deg9-closure")


@dataclass
class Check:
    name: str
    ok: bool
    expected: object
    actual: object
    stretch: bool = False


@dataclass
class Report:
    scope: str
    checks: list = field(default_factory=list)

    def add(self, name, expected, actual, stretch=False):
        ok = expected == actual
        self.checks.append(Check(name, ok, expected, actual, stretch))
        return ok

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks if not c.stretch)

    def lines(self) -> list:
        out = []
        for c in self.checks:
            if c.stretch:
                tag = "STRETCH-OK" if c.ok else "STRETCH-MISS"
            else:
                tag = "PASS" if c.ok else "FAIL"
            msg = f"[{tag}] {self.scope}: {c.name}"
            if not c.ok:
                msg += f" (expected {_short(c.expected)}, got {_short(c.actual)})"
            out.append(msg)
        return out


def _short(x, limit=60):
    s = repr(x)
    return s if len(s) <= limit else s[:limit] + "..."


def run_scope(scope: str, *, p: int | None = None) -> Report:
    sc = golden.scalars()
    p = p if p is not None else sc["default_prime"]
    # module ranks and the closure need p > d as well (see _check_prime)
    _check_prime(p, {"deg7": 7, "deg9-closure": 9}.get(scope))
    if scope == "binary":
        return _binary(sc)
    if scope == "deg5":
        return _deg5(sc)
    if scope == "deg7":
        return _deg7(sc, p)
    if scope == "deg9-rank":
        return _deg9_rank(sc, p)
    if scope == "deg9-closure":
        return _deg9_closure(sc, p)
    raise ValueError(f"unknown scope {scope!r}")


def _binary(sc) -> Report:
    rep = Report("binary")
    E = build_expansion_matrix(2, 4)
    rep.add("expansion matrix 12x15",
            [list(r) for r in golden.load_matrix("expansion_matrix_n2_d4")],
            E.array.tolist())
    R = rcf(E.array.tolist())
    rep.add("row canonical form",
            [list(r) for r in golden.load_matrix("rcf_n2_d4")],
            [[int(x) for x in row] for row in R.rows[:R.rank]])
    ns = sort_vectors_by_norm(rcf_nullspace(E.array.tolist()))
    rep.add("canonical nullspace basis (norm-sorted)",
            [list(r) for r in golden.load_matrix("nullspace_canonical_n2_d4")],
            ns)
    rep.add("canonical basis squared norms",
            sc["nullspace_norms_n2_d4"], [squared_norm(v) for v in ns])
    Et = transpose(E.array.tolist())
    H = hnf_with_transform(Et)
    rep.add("hermite normal form nonzero rows",
            [list(r) for r in golden.load_matrix("hnf_nonzero_rows_n2_d4")],
            H.h[:H.rank])
    rep.add("transform recomposition U*Et == H", True,
            int_matmul(H.u, Et) == H.h)
    rep.add("transform unimodular |det U| == 1", 1, abs(det_bareiss(H.u)))
    lat = nullspace_lattice(E.array.tolist())
    red = lll_reduce(lat)
    norms = sorted(squared_norm(v) for v in red)
    rep.add(f"reduced basis squared norms <= {sc['lll_norm_bound_n2_d4']}",
            True, max(norms) <= sc["lll_norm_bound_n2_d4"])
    rep.add("reduced basis spans the same lattice", True,
            lattices_equal(lat, red))
    rep.add("all reduced norms equal 6 (published output)",
            [sc["lll_norm_target_n2_d4"]] * len(red), norms, stretch=True)
    for name in ("binary_recombination", "binary_recombination_reduced"):
        rep.add(f"{name} expands to zero", 0,
                verify_identity(golden.load_identity(name)))
    return rep


def _deg5(sc) -> Report:
    rep = Report("deg5")
    E = build_expansion_matrix(3, 5)
    rep.add("matrix shape", (60, 10), E.array.shape)
    idx = [i - 1 for i in sc["full_rank_rows_n3_d5"]]
    rep.add("distinguished 10x10 submatrix",
            [list(r) for r in golden.load_matrix("full_rank_submatrix_n3_d5")],
            E.array[idx, :].tolist())
    sub_rcf = rcf(E.array[idx, :].tolist())
    rep.add("submatrix reduces to the identity", True,
            sub_rcf.rank == 10 and
            [[int(x) for x in row] for row in sub_rcf.rows]
            == np.eye(10, dtype=int).tolist())
    rep.add("rank", sc["expansion_rank"]["n3_d5"], rcf(E.array.tolist()).rank)
    rep.add("empty rational nullspace", [], rcf_nullspace(E.array.tolist()))
    rep.add("empty nullspace lattice", [], nullspace_lattice(E.array.tolist()))
    return rep


def _deg7(sc, p) -> Report:
    rep = Report("deg7")
    E = build_expansion_matrix(3, 7)
    rep.add("matrix shape", (210, 280), E.shape)
    rep.add("monomial counts per type", sc["monomial_counts"]["n3_d7"],
            E.ctx.type_counts)
    R = rcf(E.subset_rows)
    rep.add("rank", sc["expansion_rank"]["n3_d7"], R.rank)
    rep.add("row canonical form is integral", True,
            all(x.denominator == 1 for row in R.rows[:R.rank] for x in row))
    ns = rcf_nullspace(E.subset_rows)
    rep.add("nullspace dimension", sc["nullspace_dim"]["n3_d7"], len(ns))
    rep.add("canonical basis squared-norm multiset",
            sorted(golden.load_norms("norms_canonical_n3_d7")),
            sorted(squared_norm(v) for v in ns))
    lat = nullspace_lattice(E.subset_rows)
    red = lll_reduce(lat)
    rep.add("lattice basis size", sc["nullspace_dim"]["n3_d7"], len(lat))
    rep.add(f"reduced max squared norm <= {sc['lll_max_norm_n3_d7']}", True,
            max(squared_norm(v) for v in red) <= sc["lll_max_norm_n3_d7"])
    rep.add("reduction preserves the lattice", True, lattices_equal(lat, red))
    rep.add("reduced squared-norm multiset (published output)",
            sorted(golden.load_norms("norms_reduced_n3_d7")),
            sorted(squared_norm(v) for v in red), stretch=True)
    mr = sc["module_ranks_n3_d7"]
    P = golden.load_identity("reduced_generator_1")
    Q = golden.load_identity("reduced_generator_2")
    Rid = golden.load_identity("ternary_recombination")
    for name in ("reduced_generator_1", "reduced_generator_2",
                 "ternary_recombination", "canonical_generator_1",
                 "canonical_generator_2", "canonical_generator_3"):
        rep.add(f"{name} expands to zero", 0,
                verify_identity(golden.load_identity(name)))
    rep.add("module rank of reduced_generator_1", mr["reduced_generator_1"],
            module_rank([P], p))
    rep.add("module rank of reduced_generator_2", mr["reduced_generator_2"],
            module_rank([Q], p))
    rep.add("module rank of the pair", mr["reduced_generators_1_2"],
            module_rank([P, Q], p))
    rep.add("module rank of ternary_recombination",
            mr["ternary_recombination"], module_rank([Rid], p))
    gens = generator_sieve(sort_vectors_by_norm(red), 3, 7, p)
    rep.add("sieve on reduced basis: generator squared norms",
            sc["generator_norms_reduced_n3_d7"], [g.norm_sq for g in gens])
    rep.add("sieve reaches the nullspace dimension",
            sc["nullspace_dim"]["n3_d7"],
            gens[-1].cumulative_rank if gens else 0)
    gens_c = generator_sieve(sort_vectors_by_norm(ns), 3, 7, p)
    rep.add("sieve on canonical basis: generator squared norms",
            sc["generator_norms_canonical_n3_d7"], [g.norm_sq for g in gens_c])
    return rep


def _deg9_rank(sc, p) -> Report:
    rep = Report("deg9-rank")
    from .monomials import get_context
    ctx = get_context(3, 9)
    rep.add("monomial counts per type", sc["monomial_counts"]["n3_d9"],
            ctx.type_counts)
    rep.add("total monomials", sum(sc["monomial_counts"]["n3_d9"]),
            ctx.num_monomials)
    rep.add("slot tuples", 504, len(ctx.slot_tuples))
    rank, null_dim = expansion_rank(3, 9, p)
    rep.add(f"rank mod {p}", sc["expansion_rank"]["n3_d9"], rank)
    rep.add("nullspace dimension", sc["nullspace_dim"]["n3_d9"], null_dim)
    q = sc["check_prime"] if p != sc["check_prime"] else sc["default_prime"]
    rep.add(f"rank mod {q}", sc["expansion_rank"]["n3_d9"],
            expansion_rank(3, 9, q)[0])
    return rep


def _deg9_closure(sc, p) -> Report:
    rep = Report("deg9-closure[exact]")
    R = golden.load_identity("ternary_recombination")
    lifts = lift_identity(R)
    rep.add("number of lifted consequences", 8, len(lifts))
    rep.add("every consequence expands to zero", [0] * 8,
            [verify_identity(lc.result) for lc in lifts])
    res = new_identity_test(9, [R], p)
    rep.add("nullspace dimension", sc["nullspace_dim"]["n3_d9"],
            res.nullspace_dim)
    rep.add("cumulative consequence dimensions",
            sc["closure_cumulative_dims_n3_d9"], res.consequence_dims)
    rep.add("verdict", "no new identities", res.verdict)
    return rep
