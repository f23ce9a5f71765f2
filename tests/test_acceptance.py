"""Acceptance suite: every criterion at its stated budget, one line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The exact degree-9
closure (criterion 9, extended) replays the full permutation orbits and is
gated behind RECOMB_EXACT_CLOSURE=1; the certify mode always runs.
"""

import itertools
import os
import random
import time

import numpy as np
import pytest

from linalg_oracles import rational_span_equal
from recomb import golden
from recomb.expansion import build_expansion_matrix, expand_monomial
from recomb.identities import (
    expansion_rank,
    generator_sieve,
    lift_identity,
    module_rank,
    new_identity_test,
    verify_identity,
)
from recomb.linalg import (
    ModularRankAccumulator,
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
from recomb.monomials import get_context, relabel, straighten

SC = golden.scalars()
P101 = SC["default_prime"]
P103 = SC["check_prime"]


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok


@pytest.fixture(scope="module")
def deg7():
    """Degree-7 pipeline with per-stage wall times (built once, cold)."""
    t = {}
    t0 = time.perf_counter()
    E = build_expansion_matrix(3, 7)
    t["build"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    R = rcf(E.array.tolist())
    t["rcf"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    ns = rcf_nullspace(E.array.tolist())
    t["nullspace"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    lat = nullspace_lattice(E.array.tolist())
    t["hnf"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    red = lll_reduce(lat)
    t["lll"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    lat_eq = lattices_equal(lat, red)
    t["lattice_eq"] = time.perf_counter() - t0
    return {"E": E, "rcf": R, "ns": ns, "lat": lat, "red": red,
            "lat_eq": lat_eq, "t": t}


def test_criterion_1_binary_expansion_rcf_nullspace():
    t0 = time.perf_counter()
    E = build_expansion_matrix(2, 4)
    ok = E.array.tolist() == [list(r) for r in
                              golden.load_matrix("expansion_matrix_n2_d4")]
    R = rcf(E.array.tolist())
    ok &= [[int(x) for x in row] for row in R.rows[:R.rank]] == \
        [list(r) for r in golden.load_matrix("rcf_n2_d4")]
    ns = sort_vectors_by_norm(rcf_nullspace(E.array.tolist()))
    ok &= ns == [list(r) for r in golden.load_matrix("nullspace_canonical_n2_d4")]
    ok &= [squared_norm(v) for v in ns] == SC["nullspace_norms_n2_d4"]
    el = time.perf_counter() - t0
    ok &= el < 1.0
    report(1, ok, f"(2,4) expansion matrix, RCF and sorted nullspace "
                  f"match reference tables ({el:.2f}s < 1s)")


def test_criterion_2_binary_hnf():
    E = build_expansion_matrix(2, 4)
    t0 = time.perf_counter()
    Et = transpose(E.array.tolist())
    res = hnf_with_transform(Et)
    ok = res.h[:res.rank] == [list(r) for r in
                              golden.load_matrix("hnf_nonzero_rows_n2_d4")]
    ok &= all(not any(row) for row in res.h[res.rank:])
    ok &= int_matmul(res.u, Et) == res.h
    ok &= abs(det_bareiss(res.u)) == 1
    el = time.perf_counter() - t0
    ok &= el < 1.0
    report(2, ok, f"HNF of (2,4) E^t matches the six reference rows, "
                  f"U*E^t = H, |det U| = 1 ({el:.2f}s < 1s)")


def test_criterion_3_binary_lll():
    E = build_expansion_matrix(2, 4)
    t0 = time.perf_counter()
    lat = nullspace_lattice(E.array.tolist())
    red = lll_reduce(lat)
    norms = sorted(squared_norm(v) for v in red)
    ok = len(red) == 9
    ok &= max(norms) <= SC["lll_norm_bound_n2_d4"]
    ok &= lattices_equal(lat, red)
    el = time.perf_counter() - t0
    ok &= el < 1.0
    stretch = norms == [SC["lll_norm_target_n2_d4"]] * 9
    report(3, ok, f"(2,4) reduced basis: norms <= 8, lattice preserved "
                  f"({el:.2f}s < 1s); all-norm-6 stretch "
                  f"{'hit' if stretch else 'missed'}")


def test_criterion_4_ternary_degree5():
    t0 = time.perf_counter()
    E = build_expansion_matrix(3, 5)
    ok = E.array.shape == (60, 10)
    idx = [i - 1 for i in SC["full_rank_rows_n3_d5"]]
    ok &= E.array[idx, :].tolist() == \
        [list(r) for r in golden.load_matrix("full_rank_submatrix_n3_d5")]
    sub = rcf(E.array[idx, :].tolist())
    ok &= sub.rank == 10
    ok &= [[int(x) for x in row] for row in sub.rows] == \
        np.eye(10, dtype=int).tolist()
    ok &= rcf(E.array.tolist()).rank == SC["expansion_rank"]["n3_d5"]
    ok &= rcf_nullspace(E.array.tolist()) == []
    ok &= nullspace_lattice(E.array.tolist()) == []
    el = time.perf_counter() - t0
    ok &= el < 1.0
    report(4, ok, f"(3,5) 60x10 matrix: reference submatrix reduces to the "
                  f"identity, rank 10, empty nullspace ({el:.2f}s < 1s)")


def test_criterion_5_ternary_degree7_canonical(deg7):
    t0 = time.perf_counter()
    E, R, ns = deg7["E"], deg7["rcf"], deg7["ns"]
    ok = E.array.shape == (210, 280)
    e1 = expand_monomial((((0, 1, 2), 3, 4), 5, 6), 3)
    expected1 = {}
    for x in range(5):
        w = 4 if x < 3 else 12
        for pos in range(3):
            for fg in itertools.permutations((5, 6)):
                tup = [None] * 3
                tup[pos] = x
                rest = [q for q in range(3) if q != pos]
                tup[rest[0]], tup[rest[1]] = fg
                expected1[tuple(tup)] = w
    ok &= e1 == expected1
    e2 = expand_monomial(((0, 1, 2), (3, 4, 5), 6), 3)
    expected2 = {t: 4 for x in range(3) for y in range(3, 6)
                 for t in itertools.permutations((x, y, 6))}
    ok &= e2 == expected2
    ok &= R.rank == SC["expansion_rank"]["n3_d7"]
    ok &= len(ns) == SC["nullspace_dim"]["n3_d7"]
    ok &= sorted(squared_norm(v) for v in ns) == \
        sorted(golden.load_norms("norms_canonical_n3_d7"))
    el = (deg7["t"]["build"] + deg7["t"]["rcf"] + deg7["t"]["nullspace"]
          + time.perf_counter() - t0)
    ok &= el < 30.0
    report(5, ok, f"(3,7) 210x280 matrix: representative expansions, rank 35, "
                  f"245-dim nullspace, canonical norm multiset ({el:.1f}s < 30s)")


def test_criterion_6_module_ranks_and_sieve(deg7):
    t0 = time.perf_counter()
    names = ["canonical_generator_1", "canonical_generator_2",
             "canonical_generator_3", "reduced_generator_1",
             "reduced_generator_2", "ternary_recombination"]
    ids = {n: golden.load_identity(n) for n in names}
    ok = all(verify_identity(idc) == 0 for idc in ids.values())
    mr = SC["module_ranks_n3_d7"]
    ok &= module_rank([ids["reduced_generator_1"]], P101) == mr["reduced_generator_1"]
    ok &= module_rank([ids["reduced_generator_2"]], P101) == mr["reduced_generator_2"]
    ok &= module_rank([ids["reduced_generator_1"],
                       ids["reduced_generator_2"]], P101) == mr["reduced_generators_1_2"]
    ok &= module_rank([ids["ternary_recombination"]], P101) == mr["ternary_recombination"]
    rank_i = module_rank([ids["canonical_generator_1"]], P101)
    ok &= module_rank([ids["canonical_generator_1"],
                       ids["canonical_generator_2"],
                       ids["canonical_generator_3"]], P101) == 245
    gens = generator_sieve(sort_vectors_by_norm(deg7["red"]), 3, 7, P101)
    ok &= [g.norm_sq for g in gens] == SC["generator_norms_reduced_n3_d7"]
    ok &= gens[-1].cumulative_rank == SC["nullspace_dim"]["n3_d7"]
    el = time.perf_counter() - t0
    ok &= el < 120.0
    report(6, ok, f"identity module ranks 105/127/155/245 (single canonical "
                  f"generator spans {rank_i}), reduced-basis sieve finds "
                  f"norms 4/6/12 reaching 245 ({el:.1f}s < 2min)")


def test_criterion_7_degree7_reduced_basis(deg7):
    t0 = time.perf_counter()
    red, lat, ns = deg7["red"], deg7["lat"], deg7["ns"]
    ok = len(red) == SC["nullspace_dim"]["n3_d7"]
    ok &= max(squared_norm(v) for v in red) <= SC["lll_max_norm_n3_d7"]
    ok &= deg7["lat_eq"]
    ok &= rational_span_equal(red, ns)
    ok &= lattices_equal(red, red + ns)
    stretch = sorted(squared_norm(v) for v in red) == \
        sorted(golden.load_norms("norms_reduced_n3_d7"))
    el = (deg7["t"]["hnf"] + deg7["t"]["lll"] + deg7["t"]["lattice_eq"]
          + time.perf_counter() - t0)
    ok &= el < 300.0
    report(7, ok, f"(3,7) reduced basis: max norm "
                  f"{max(squared_norm(v) for v in red)} <= 38, lattice and "
                  f"rational span equal the RCF nullspace ({el:.1f}s < 5min); "
                  f"published norm multiset stretch "
                  f"{'hit' if stretch else 'missed (shorter basis found)'}")


def test_criterion_8_degree9_rank():
    t0 = time.perf_counter()
    ctx = get_context(3, 9)
    ok = ctx.type_counts == SC["monomial_counts"]["n3_d9"]
    ok &= ctx.num_monomials == 15400
    ok &= len(ctx.slot_tuples) == 504
    rank, null_dim = expansion_rank(3, 9, P101)
    ok &= rank == SC["expansion_rank"]["n3_d9"]
    ok &= null_dim == SC["nullspace_dim"]["n3_d9"]
    el = time.perf_counter() - t0
    ok &= el < 120.0
    report(8, ok, f"(3,9) 504x15400 matrix built, rank {rank} mod {P101}, "
                  f"nullspace dim {null_dim} ({el:.1f}s < 2min)")


def test_criterion_9_closure_certify():
    R = golden.load_identity("ternary_recombination")
    t0 = time.perf_counter()
    lifts = lift_identity(R)
    ok = len(lifts) == 8
    res = new_identity_test(9, [R], P101, mode="certify", seed=0)
    el = time.perf_counter() - t0
    ok &= res.final_dim == SC["nullspace_dim"]["n3_d9"]
    ok &= res.verdict == "no new identities"
    ok &= el < 900.0
    report(9, ok, f"(3,9) certify closure: consequence span reaches "
                  f"{res.final_dim} in {res.samples} samples "
                  f"({el:.0f}s < 15min, seed 0) -> '{res.verdict}'")


@pytest.mark.skipif(os.environ.get("RECOMB_EXACT_CLOSURE") != "1",
                    reason="exact degree-9 closure: set RECOMB_EXACT_CLOSURE=1 "
                           "(full orbit replay)")
def test_criterion_9_closure_exact():
    R = golden.load_identity("ternary_recombination")
    t0 = time.perf_counter()
    res = new_identity_test(9, [R], P101, mode="exact")
    el = time.perf_counter() - t0
    ok = res.consequence_dims == SC["closure_cumulative_dims_n3_d9"]
    ok &= res.verdict == "no new identities"
    report(9, ok, f"(3,9) exact closure: cumulative dims "
                  f"{res.consequence_dims} -> '{res.verdict}' ({el:.0f}s)")


def test_criterion_10_property_suites(deg7):
    import math

    from recomb.monomials import leaves

    rnd = random.Random(20240817)
    pool = []
    for n, d in [(2, 4), (3, 5), (3, 7)]:
        pool.extend((n, m) for m in get_context(n, d).monomials)
    ok = True

    # equivariance: expansion commutes with relabeling (200 random cases)
    for _ in range(200):
        n, m = rnd.choice(pool)
        d = len(leaves(m))
        sigma = tuple(rnd.sample(range(d), d))
        lhs = expand_monomial(relabel(m, sigma), n)
        rhs = {tuple(sigma[x] for x in t): c
               for t, c in expand_monomial(m, n).items()}
        ok &= lhs == rhs

    # mass conservation
    for _ in range(100):
        n, m = rnd.choice(pool)
        k = (len(leaves(m)) - 1) // (n - 1)
        ok &= sum(expand_monomial(m, n).values()) == math.factorial(n) ** k

    # straighten idempotence on shuffled canonical monomials
    def shuffle_tree(t):
        if isinstance(t, int):
            return t
        kids = [shuffle_tree(c) for c in t]
        rnd.shuffle(kids)
        return tuple(kids)

    for _ in range(300):
        n, m = rnd.choice(pool)
        s = straighten(shuffle_tree(m), n)
        ok &= s == m and straighten(s, n) == s

    # every emitted nullspace vector annihilates its expansion matrix
    E24 = build_expansion_matrix(2, 4)
    for basis in (rcf_nullspace(E24.array.tolist()),
                  nullspace_lattice(E24.array.tolist()),
                  lll_reduce(nullspace_lattice(E24.array.tolist()))):
        prod = E24.array @ np.array(basis, dtype=np.int64).T
        ok &= not prod.any()
    E37 = deg7["E"]
    for basis in (deg7["ns"], deg7["lat"], deg7["red"]):
        prod = E37.array @ np.array(basis, dtype=np.int64).T
        ok &= not prod.any()

    # modular rank stability at p in {101, 103} on degree <= 7
    E35 = build_expansion_matrix(3, 5)
    for E, exact in [(E24, SC["expansion_rank"]["n2_d4"]),
                     (E35, SC["expansion_rank"]["n3_d5"]),
                     (E37, SC["expansion_rank"]["n3_d7"])]:
        for p in (P101, P103):
            acc = ModularRankAccumulator(E.array.shape[1], p)
            acc.add_batch(E.array)
            ok &= acc.rank() == exact
    P = golden.load_identity("reduced_generator_1")
    Rid = golden.load_identity("ternary_recombination")
    ok &= module_rank([P], P101) == module_rank([P], P103)
    ok &= module_rank([Rid], P101) == module_rank([Rid], P103)

    # lifting preserves identity-hood for all 8 lifts
    for lc in lift_identity(Rid):
        ok &= verify_identity(lc.result) == 0

    report(10, ok, "equivariance (200 cases), mass conservation, straighten "
                   "idempotence, E*v = 0 for every emitted vector, modular "
                   "rank stability at 101/103, all 8 lifts stay identities")
