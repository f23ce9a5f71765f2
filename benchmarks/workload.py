"""One benchmark workload in a fresh interpreter: set up, signal, measure.

`run.py` starts this file as a child process:

    python3 benchmarks/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--setup-only]

The child imports recomb from the checkout's `src`, builds the workload's
inputs from the seed and prints `ready` on stdout.  With `--setup-only` it
exits there.  Otherwise it answers the workload's question again and again,
each time from a cold degree context, until `--seconds` have passed and it
has made the workload's `min_answers`, checking every answer against
`recomb/data`.  Its last stdout
line is one JSON object with the per-answer samples, the checks, peak RSS
and, when traced, the spans, counts and per-layer metrics.

The calls follow the order `recomb reproduce` makes them in, and the checks
are the ones it makes for the same scope, collected in its `Report`.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import recomb  # noqa: E402
from recomb import golden  # noqa: E402
from recomb.expansion import build_expansion_matrix, expand_monomial  # noqa: E402
from recomb.identities import (  # noqa: E402
    expansion_rank,
    generator_sieve,
    lift_identity,
    module_rank,
    new_identity_test,
    verify_identity,
)
from recomb.linalg import (  # noqa: E402
    lattices_equal,
    lll_reduce,
    nullspace_lattice,
    rcf,
    rcf_nullspace,
    sort_vectors_by_norm,
    squared_norm,
)
from recomb.monomials import apply_permutation, get_context  # noqa: E402
from recomb.reproduce import Report  # noqa: E402

from spans import SPAN_STATS, Tracer, span_metrics  # noqa: E402

SC = golden.scalars()
P = SC["default_prime"]

# The full certify closure needs ~15,900 samples and over 300 s, more than
# one benchmark run may take; 2000 samples keep it insert-heavy (almost every
# row raises the rank) with a 250 MB basis.
CLOSURE_SAMPLES = 2000

DEG7_IDENTITIES = ("reduced_generator_1", "reduced_generator_2",
                   "ternary_recombination", "canonical_generator_1",
                   "canonical_generator_2", "canonical_generator_3")

SPANS = (
    "monomials.get_context",
    "monomials.perm_table_inv",
    "expansion.build_expansion_matrix",
    "linalg.rcf",
    "linalg.rcf_nullspace",
    "linalg.nullspace_lattice",
    "linalg.lll_reduce",
    "linalg.lattices_equal",
    "identities.verify_identity",
    "identities.module_rank",
    "identities.generator_sieve",
    "identities.expansion_rank",
    "identities.lift_identity",
    "identities.new_identity_test",
)

# name -> (unit, better); "computed" counts are derived from sizes.
COUNTS = {
    "monomials.columns": ("count", "lower"),
    "monomials.perm_table.entries": ("count", "lower"),      # computed d!*m
    "expansion.nnz": ("count", "lower"),
    "linalg.rank": ("count", "higher"),
    "linalg.nullspace_dim": ("count", "higher"),
    "linalg.lll.max_norm_sq": ("count", "lower"),
    "linalg.lattice.max_entry_bits": ("bits", "lower"),
    "linalg.accumulator.basis_mb_computed": ("MB", "lower"),  # rank*width*8
    "identities.sieve.scanned": ("count", "lower"),
    "identities.sieve.generators": ("count", "lower"),
    "identities.sieve.useful_row_share": ("ratio", "higher"),
    "identities.closure.samples": ("count", "lower"),
    "identities.closure.useful_share": ("ratio", "higher"),
    "identities.closure.samples_per_s": ("1/s", "higher"),
}

RUN_STATS = {
    "trace.timed_wall_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.bookkeeping_s": ("s", "lower"),
    "checks.run": ("count", "higher"),
    "checks.failed": ("count", "lower"),
}


def per_layer_catalogue() -> dict:
    """Every per-layer metric a traced run prints: name -> (unit, better)."""
    out = {f"{s}.{stat}": ub for s in SPANS for stat, ub in SPAN_STATS.items()}
    out.update(COUNTS)
    out.update(RUN_STATS)
    out["trace.speed_factor"] = ("ratio", "lower")   # added by run.py
    return out


# ---------------------------------------------------------------------------
# inputs

def sigma_for(seed: int, d: int) -> tuple:
    """The permutation in S_d a seed picks."""
    return tuple(int(x) for x in np.random.default_rng(seed).permutation(d))


def relabel_vector(ctx, vector, sigma) -> list:
    """Coefficient vector of the sigma-relabelled combination."""
    cols = ctx.permuted_columns(sigma)
    out = [0] * len(vector)
    for j, c in enumerate(vector):
        out[cols[j]] = int(c)
    return out


def run_delay_s() -> float:
    """Seconds this thread has spent runnable but waiting for a CPU."""
    try:
        with open("/proc/thread-self/schedstat") as f:
            return int(f.read().split()[1]) / 1e9
    except (OSError, IndexError, ValueError):
        return 0.0


def check_counts(report: Report) -> tuple:
    """(checks run, checks failed, stretch checks missed) of a report."""
    hard = [c for c in report.checks if not c.stretch]
    missed = sum(1 for c in report.checks if c.stretch and not c.ok)
    return len(hard), sum(1 for c in hard if not c.ok), missed


def _computed_nnz(ctx) -> int:
    """Nonzeros of E: same-type columns are row permutations of each other."""
    nnz, j = 0, 0
    for count in ctx.type_counts:
        nnz += count * len(expand_monomial(ctx.monomials[j], ctx.n))
        j += count
    return nnz


def _count_context(tr: Tracer, ctx) -> None:
    tr.count("monomials.columns", ctx.num_monomials)
    tr.count("monomials.perm_table.entries",
             math.factorial(ctx.d) * ctx.num_monomials)


def _basis_mb(rank: int, width: int) -> float:
    return rank * width * 8 / 2**20


# ---------------------------------------------------------------------------
# workloads: setup(seed) -> inputs; answer(inputs, seed, report, tracer)

def setup_deg7_lattice(seed):
    return {name: golden.load_identity(name) for name in DEG7_IDENTITIES}


def answer_deg7_lattice(ids, seed, rep, tr):
    with tr.span("expansion.build_expansion_matrix"):
        E = build_expansion_matrix(3, 7)
    rows = E.array.tolist()
    rep.add("matrix shape", (210, 280), E.array.shape)
    rep.add("monomial counts per type", SC["monomial_counts"]["n3_d7"],
            E.ctx.type_counts)
    with tr.span("linalg.rcf"):
        R = rcf(rows)
    rep.add("rank", SC["expansion_rank"]["n3_d7"], R.rank)
    rep.add("row canonical form is integral", True,
            all(x.denominator == 1 for row in R.rows[:R.rank] for x in row))
    with tr.span("linalg.rcf_nullspace"):
        ns = rcf_nullspace(rows)
    rep.add("nullspace dimension", SC["nullspace_dim"]["n3_d7"], len(ns))
    rep.add("canonical basis squared-norm multiset",
            sorted(golden.load_norms("norms_canonical_n3_d7")),
            sorted(squared_norm(v) for v in ns))
    with tr.span("linalg.nullspace_lattice"):
        lat = nullspace_lattice(rows)
    with tr.span("linalg.lll_reduce"):
        red = lll_reduce(lat)
    reduced_norms = sorted(squared_norm(v) for v in red)
    rep.add("lattice basis size", SC["nullspace_dim"]["n3_d7"], len(lat))
    rep.add(f"reduced max squared norm <= {SC['lll_max_norm_n3_d7']}", True,
            reduced_norms[-1] <= SC["lll_max_norm_n3_d7"])
    with tr.span("linalg.lattices_equal"):
        same = lattices_equal(lat, red)
    rep.add("reduction preserves the lattice", True, same)
    rep.add("reduced squared-norm multiset (published output)",
            sorted(golden.load_norms("norms_reduced_n3_d7")), reduced_norms,
            stretch=True)
    for name, idc in ids.items():
        with tr.span("identities.verify_identity"):
            residual = verify_identity(idc)
        rep.add(f"{name} expands to zero", 0, residual)
    if tr.enabled:
        tr.count("monomials.columns", E.ctx.num_monomials)
        tr.count("expansion.nnz", int(np.count_nonzero(E.array)))
        tr.count("linalg.rank", R.rank)
        tr.count("linalg.nullspace_dim", len(ns))
        tr.count("linalg.lll.max_norm_sq", reduced_norms[-1])
        tr.count("linalg.lattice.max_entry_bits",
                 max(abs(x).bit_length() for v in lat for x in v))


def setup_deg7_modules(seed):
    sigma = sigma_for(seed, 7)
    E = build_expansion_matrix(3, 7)
    canonical = sort_vectors_by_norm(rcf_nullspace(E.array.tolist()))
    # Relabel after sorting: the relabelled basis spans the same S_7-module
    # prefix by prefix, so generator positions and norms cannot change.
    basis = [relabel_vector(E.ctx, v, sigma) for v in canonical]
    ids = {name: apply_permutation(golden.load_identity(name), sigma)
           for name in ("reduced_generator_1", "reduced_generator_2",
                        "ternary_recombination")}
    return {"basis": basis, "ids": ids}


def answer_deg7_modules(inp, seed, rep, tr):
    with tr.span("monomials.get_context"):
        ctx = get_context(3, 7)
    with tr.span("monomials.perm_table_inv"):
        ctx.perm_table_inv()
    mr = SC["module_ranks_n3_d7"]
    ids = inp["ids"]
    for label, group, expected in (
            ("reduced_generator_1", ["reduced_generator_1"],
             mr["reduced_generator_1"]),
            ("reduced_generator_2", ["reduced_generator_2"],
             mr["reduced_generator_2"]),
            ("the pair", ["reduced_generator_1", "reduced_generator_2"],
             mr["reduced_generators_1_2"]),
            ("ternary_recombination", ["ternary_recombination"],
             mr["ternary_recombination"])):
        with tr.span("identities.module_rank"):
            rank = module_rank([ids[g] for g in group], P)
        rep.add(f"module rank of {label}", expected, rank)
    with tr.span("identities.generator_sieve"):
        gens = generator_sieve(inp["basis"], 3, 7, P)
    rep.add("sieve on canonical basis: generator squared norms",
            SC["generator_norms_canonical_n3_d7"], [g.norm_sq for g in gens])
    reached = gens[-1].cumulative_rank if gens else 0
    rep.add("sieve reaches the nullspace dimension",
            SC["nullspace_dim"]["n3_d7"], reached)
    if tr.enabled and gens:
        _count_context(tr, ctx)
        scanned = gens[-1].position
        tr.count("linalg.nullspace_dim", len(inp["basis"]))
        tr.count("identities.sieve.scanned", scanned)
        tr.count("identities.sieve.generators", len(gens))
        tr.count("identities.sieve.useful_row_share",
                 reached / (scanned * math.factorial(ctx.d)))
        tr.count("linalg.accumulator.basis_mb_computed",
                 _basis_mb(reached, ctx.num_monomials))


def setup_deg9_rank(seed):
    return None


def answer_deg9_rank(_, seed, rep, tr):
    with tr.span("monomials.get_context"):
        ctx = get_context(3, 9)
    rep.add("monomial counts per type", SC["monomial_counts"]["n3_d9"],
            ctx.type_counts)
    rep.add("total monomials", sum(SC["monomial_counts"]["n3_d9"]),
            ctx.num_monomials)
    rep.add("slot tuples", 504, len(ctx.slot_tuples))
    with tr.span("identities.expansion_rank"):
        rank, null_dim = expansion_rank(3, 9, P)
    rep.add(f"rank mod {P}", SC["expansion_rank"]["n3_d9"], rank)
    rep.add("nullspace dimension", SC["nullspace_dim"]["n3_d9"], null_dim)
    if tr.enabled:
        _count_context(tr, ctx)
        tr.count("expansion.nnz", _computed_nnz(ctx))
        tr.count("linalg.rank", rank)
        tr.count("linalg.nullspace_dim", null_dim)
        tr.count("linalg.accumulator.basis_mb_computed",
                 _basis_mb(rank, len(ctx.slot_tuples)))


def setup_deg9_closure(seed):
    sigma = sigma_for(seed, 7)
    return apply_permutation(golden.load_identity("ternary_recombination"),
                             sigma)


def answer_deg9_closure(identity, seed, rep, tr):
    null_dim = SC["nullspace_dim"]["n3_d9"]
    with tr.span("monomials.get_context"):
        ctx = get_context(3, 9)
    with tr.span("identities.lift_identity"):
        lifts = lift_identity(identity)
    rep.add("number of lifted consequences", 8, len(lifts))
    residuals = []
    for lc in lifts:
        with tr.span("identities.verify_identity"):
            residuals.append(verify_identity(lc.result))
    rep.add("every consequence expands to zero", [0] * 8, residuals)
    with tr.span("identities.new_identity_test") as closure:
        res = new_identity_test(9, [identity], P, mode="certify", seed=seed,
                                max_samples=CLOSURE_SAMPLES)
    rep.add("nullspace dimension", null_dim, res.nullspace_dim)
    rep.add("samples drawn up to the cap", CLOSURE_SAMPLES, res.samples)
    rep.add("consequence span within the nullspace dimension", True,
            0 < res.final_dim <= null_dim)
    rep.add("verdict at the sample cap", "inconclusive", res.verdict)
    if tr.enabled:
        _count_context(tr, ctx)
        tr.count("expansion.nnz", _computed_nnz(ctx))
        tr.count("linalg.rank", ctx.num_monomials - res.nullspace_dim)
        tr.count("linalg.nullspace_dim", res.nullspace_dim)
        tr.count("identities.closure.samples", res.samples)
        tr.count("identities.closure.useful_share",
                 res.final_dim / res.samples)
        tr.count("identities.closure.samples_per_s",
                 res.samples / closure.wall_s)
        tr.count("linalg.accumulator.basis_mb_computed",
                 _basis_mb(res.final_dim, ctx.num_monomials))


@dataclass(frozen=True)
class Workload:
    setup: object
    answer: object
    moves: dict             # per-layer metric -> end-to-end metrics it moves
    # Answers a run makes at the least.  The machine's speed wanders by a
    # tenth within seconds; the median of several answers steadies the two
    # workloads whose answers are short enough to repeat within the run limit.
    min_answers: int = 1


WORKLOADS = {
    "deg7-lattice": Workload(setup_deg7_lattice, answer_deg7_lattice, {
        "expansion.nnz": "wall_s",
        "linalg.rank": "wall_s",
        "linalg.nullspace_dim": "wall_s",
        "linalg.lll.max_norm_sq": "wall_s",
        "linalg.lattice.max_entry_bits": "wall_s",
    }, min_answers=3),
    "deg7-modules": Workload(setup_deg7_modules, answer_deg7_modules, {
        "monomials.columns": "wall_s",
        "monomials.perm_table.entries": "wall_s",
        "identities.sieve.scanned": "wall_s, cpu_s",
        "identities.sieve.generators": "wall_s, cpu_s",
        "identities.sieve.useful_row_share": "wall_s, cpu_s",
    }),
    "deg9-rank": Workload(setup_deg9_rank, answer_deg9_rank, {
        "monomials.columns": "wall_s",
        "monomials.perm_table.entries": "wall_s",
        "expansion.nnz": "wall_s, peak_rss_mb",
    }, min_answers=2),
    "deg9-closure": Workload(setup_deg9_closure, answer_deg9_closure, {
        "identities.closure.samples": "wall_s",
        "identities.closure.useful_share": "wall_s",
        "identities.closure.samples_per_s": "wall_s",
        "linalg.accumulator.basis_mb_computed": "peak_rss_mb",
    }),
}


# ---------------------------------------------------------------------------
# measuring

def measure(name: str, inputs, seed: int, seconds: float, traced: bool) -> dict:
    """Answer the workload until `seconds` have passed and it has made
    `min_answers` answers; one sample per answer."""
    wl = WORKLOADS[name]
    samples, tracers, lines = [], [], []
    deadline = time.monotonic() + seconds
    while True:
        gc.collect()
        get_context.cache_clear()
        rep = Report(name)
        tr = Tracer(f"{name}-seed{seed}-answer{len(samples)}", enabled=traced)
        c0 = time.process_time()
        d0 = run_delay_s()
        t0 = time.monotonic()
        with tr.span("answer"):
            wl.answer(inputs, seed, rep, tr)
        t1 = time.monotonic()
        delay = run_delay_s() - d0
        cpu = time.process_time() - c0
        run, failed, missed = check_counts(rep)
        samples.append({"t0": t0, "t1": t1, "wall_s": t1 - t0, "cpu_s": cpu,
                        "run_delay_s": delay, "checks_run": run,
                        "checks_failed": failed, "stretch_missed": missed})
        tracers.append(tr)
        lines = rep.lines()
        if time.monotonic() >= deadline and len(samples) >= wl.min_answers:
            break
    out = {"samples": samples, "check_lines": lines,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024}
    if traced:
        per_answer = [layer_metrics(tr, s) for tr, s in zip(tracers, samples)]
        units = per_layer_catalogue()
        out["layer"] = {k: {"value": statistics.median(m[k] for m in per_answer),
                            "unit": units[k][0]}
                        for k in per_answer[0]}
        out["spans"] = [r for tr in tracers for r in tr.records()]
    return out


def layer_metrics(tr: Tracer, sample: dict) -> dict:
    """Per-layer metrics of one traced answer."""
    root = tr.spans[0]
    top = sum(s.wall_s for s in tr.spans if s.parent == 0)
    out = span_metrics(tr.spans, SPANS)
    out.update({k: tr.counts.get(k, 0) for k in COUNTS})
    out.update({
        "trace.timed_wall_s": root.wall_s,
        "trace.coverage": top / root.wall_s,
        "trace.bookkeeping_s": tr.bookkeeping_s,
        "checks.run": sample["checks_run"],
        "checks.failed": sample["checks_failed"],
    })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if Path(recomb.__file__).resolve().parent != SRC / "recomb":
        print(f"workload: recomb imported from {recomb.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    inputs = WORKLOADS[args.workload].setup(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = measure(args.workload, inputs, args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
