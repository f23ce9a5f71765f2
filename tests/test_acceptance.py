"""Acceptance suite: every criterion at its stated budget, one line each.

Criteria 1-9 run the shipped `recomb reproduce` scopes at p = 101; the
degree-9 closure is the exact one, taken per irreducible of S_9.  Each run
must exit 0 within its budget, and its stdout must equal the committed
transcript in tests/transcripts byte for byte, which pins every check the
scope makes, its name and its verdict.  What
`reproduce` does not check is asserted here on top.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import contextlib
import difflib
import io
import itertools
import math
import random
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from linalg_oracles import rational_span_equal
from recomb import golden
from recomb.cli import main
from recomb.expansion import expand_monomial
from recomb.identities import lift_identity, module_rank, verify_identity
from recomb.linalg import (
    ModularRankAccumulator,
    hnf_with_transform,
    lattices_equal,
    lll_reduce,
    nullspace_lattice,
    rcf_nullspace,
    squared_norm,
)
from recomb.monomials import get_context, leaves, relabel, straighten
from recomb.reproduce import SCOPES

SC = golden.scalars()
P101 = SC["default_prime"]
P103 = SC["check_prime"]
TRANSCRIPTS = Path(__file__).parent / "transcripts"
# wall-time budget of each scope: the tightest of the criteria it covers
BUDGET_S = {"binary": 1.0, "deg5": 1.0, "deg7": 30.0, "deg9-rank": 120.0,
            "deg9-closure": 60.0}


def test_scopes_transcripts_and_budgets_name_the_same_scopes():
    scopes = list(SCOPES)
    assert len(scopes) == 5
    assert sorted(p.stem for p in TRANSCRIPTS.glob("*.txt")) == sorted(scopes)
    assert sorted(BUDGET_S) == sorted(scopes)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok


@pytest.fixture(scope="module")
def reproduce():
    """`run(scope)` runs `recomb reproduce` once per scope.

    It returns (ok, seconds): ok when the run exits 0 within the scope's
    budget and prints its transcript byte for byte.  A mismatch prints the
    diff against the transcript.
    """
    runs = {}

    def run(scope):
        if scope not in runs:
            out = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = main(["reproduce", scope])
            el = time.perf_counter() - t0
            got = out.getvalue()
            want = (TRANSCRIPTS / f"{scope}.txt").read_bytes().decode()
            sys.stdout.writelines(difflib.unified_diff(
                want.splitlines(True), got.splitlines(True),
                f"transcripts/{scope}.txt", "stdout"))
            runs[scope] = (code == 0 and got == want
                           and el < BUDGET_S[scope], el)
        return runs[scope]

    return run


def test_criterion_1_binary_expansion_rcf_nullspace(reproduce):
    ok, el = reproduce("binary")
    report(1, ok, f"reproduce binary: (2,4) expansion matrix, RCF and sorted "
                  f"nullspace match reference tables ({el:.2f}s < 1s)")


def test_criterion_2_binary_hnf(reproduce, E24):
    ok, el = reproduce("binary")
    res = hnf_with_transform(E24.array.T.tolist())
    ok &= all(not any(row) for row in res.h[res.rank:])
    ok &= lattices_equal(res.u, np.eye(len(res.u), dtype=np.int64))
    report(2, ok, f"reproduce binary: HNF of (2,4) E^t matches the six "
                  f"reference rows, zero rows below them, U*E^t = H, "
                  f"|det U| = 1 ({el:.2f}s < 1s)")


def test_criterion_3_binary_lll(reproduce):
    ok, el = reproduce("binary")
    report(3, ok, f"reproduce binary: (2,4) reduced basis: norms <= 8, "
                  f"lattice preserved, all-norm-6 stretch hit ({el:.2f}s < 1s)")


def test_criterion_4_ternary_degree5(reproduce):
    ok, el = reproduce("deg5")
    report(4, ok, f"reproduce deg5: (3,5) 60x10 matrix: reference submatrix "
                  f"reduces to the identity, rank 10, empty nullspace "
                  f"({el:.2f}s < 1s)")


def test_criterion_5_ternary_degree7_canonical(reproduce):
    ok, el = reproduce("deg7")
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
    report(5, ok, f"reproduce deg7: (3,7) 210x280 matrix: representative "
                  f"expansions, rank 35, 245-dim nullspace, canonical norm "
                  f"multiset ({el:.1f}s < 30s)")


def test_criterion_6_module_ranks_and_sieve(reproduce):
    ok, el = reproduce("deg7")
    ok &= module_rank([golden.load_identity(f"canonical_generator_{i}")
                       for i in (1, 2, 3)], P101) == 245
    report(6, ok, f"reproduce deg7: identity module ranks 105/127/155, the "
                  f"three canonical generators span 245, reduced-basis sieve "
                  f"finds norms 4/6/12 reaching 245 ({el:.1f}s < 30s)")


def test_criterion_7_degree7_reduced_basis(reproduce, deg7_bases):
    ok, el = reproduce("deg7")
    ns, _, red = deg7_bases
    ok &= rational_span_equal(red, ns)
    ok &= lattices_equal(red, red + ns)
    report(7, ok, f"reproduce deg7: (3,7) reduced basis: max norm "
                  f"{max(squared_norm(v) for v in red)} <= 38, lattice "
                  f"preserved, lattice and rational span equal the RCF "
                  f"nullspace ({el:.1f}s < 30s); published norm multiset "
                  f"stretch missed (shorter basis found)")


def test_criterion_8_degree9_rank(reproduce):
    ok, el = reproduce("deg9-rank")
    report(8, ok, f"reproduce deg9-rank: (3,9) 504x15400 matrix built, rank "
                  f"84 mod {P101} and {P103}, nullspace dim 15316 "
                  f"({el:.1f}s < 2min)")


def test_criterion_9_closure_exact(reproduce):
    ok, el = reproduce("deg9-closure")
    report(9, ok, f"reproduce deg9-closure: cumulative dims "
                  f"{SC['closure_cumulative_dims_n3_d9']} -> "
                  f"'no new identities' ({el:.1f}s < 60s)")


def test_criterion_10_property_suites(E24, E35, E37, deg7_bases):
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
    for basis in (rcf_nullspace(E24.array.tolist()),
                  nullspace_lattice(E24.array.tolist()),
                  lll_reduce(nullspace_lattice(E24.array.tolist()))):
        prod = E24.array @ np.array(basis, dtype=np.int64).T
        ok &= not prod.any()
    for basis in deg7_bases:
        prod = E37.array @ np.array(basis, dtype=np.int64).T
        ok &= not prod.any()

    # modular rank stability at p in {101, 103} on degree <= 7
    for E, exact in [(E24, SC["expansion_rank"]["n2_d4"]),
                     (E35, SC["expansion_rank"]["n3_d5"]),
                     (E37, SC["expansion_rank"]["n3_d7"])]:
        for p in (P101, P103):
            acc = ModularRankAccumulator(E.array.shape[1], p)
            acc.add_rows(np.arange(acc.width), E.array)
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
