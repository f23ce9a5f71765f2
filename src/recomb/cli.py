"""Command-line interface.

Subcommands: matrix, nullspace, verify, generators, reproduce.
Exit codes: 0 success / all checks pass, 1 verification or reproduction
failure, 2 usage or I/O errors.
"""

from __future__ import annotations

import argparse
import math
import os
import resource
import sys

from . import golden
from .expansion import build_expansion_matrix
from .identities import (
    _check_prime,
    generator_sieve,
    single_generator,
    verify_identity,
)
from .io_formats import (
    format_identity,
    format_matrix,
    read_identity_file,
    write_identity_file,
)
from .linalg import (
    _sorted_by_norm,
    lll_reduce,
    nullspace_lattice,
    rcf_nullspace,
)
from .monomials import automorphism_order, enumerate_canonical_types
from .reproduce import SCOPES, run_scope


def _add_nd(sub, d_help="degree"):
    sub.add_argument("-n", "--arity", type=int, required=True, help="operation arity")
    sub.add_argument("-d", "--degree", type=int, required=True, help=d_help)


def _memory_budget():
    """Bytes this process may allocate: its address-space limit and the
    MemAvailable of /proc/meminfo, the smaller of those it finds."""
    budget = resource.getrlimit(resource.RLIMIT_AS)[0]
    budget = math.inf if budget == resource.RLIM_INFINITY else budget
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    budget = min(budget, int(line.split()[1]) * 1024)
    except OSError:
        pass
    return budget


def _width(n, d):
    """Monomials of degree d, from the types alone: d!/|Aut T| of type T."""
    return sum(math.factorial(d) // automorphism_order(t)
               for t in enumerate_canonical_types(n, d))


def _check_fits(what, need):
    """Refuse, before it is built, what needs more bytes than the budget."""
    budget = _memory_budget()
    if need > budget:
        raise MemoryError(f"{what} needs {need:,} bytes, {budget:,} available")


def _check_matrix_fits(n, d):
    """The expansion matrix's int64 entries: one row per slot tuple,
    perm(d, n) of them (one at degree 1), and one column per monomial."""
    rows, cols = max(1, math.perm(d, n)), _width(n, d)
    _check_fits(f"the {rows:,} x {cols:,} expansion matrix", 8 * rows * cols)


def _check_basis_fits(n, d, method):
    """A nullspace basis has at least k = m - C(d, n) vectors of m entries,
    as E's rank is at most C(d, n).  The canonical basis is held once, as
    lists of 8 bytes an entry: it is built, sorted and sieved a block at a
    time beside them.  The exact lattice holds more at its Gram matrix: the
    lattice rows, the int64 basis, a float64 copy, and the float64 and int64
    Gram matrices, 8 (3 k m + 2 k^2) bytes."""
    m = _width(n, d)
    k = max(0, m - math.comb(d, n))
    if method == "rcf":
        what, need = "a nullspace basis", 8 * k * m
    else:
        what, need = "an exact nullspace lattice", 8 * (3 * k * m + 2 * k * k)
    _check_fits(f"{what} of at least {k:,} x {m:,} entries", need)


def _nullspace_vectors(n, d, method):
    """The degree context, and the squared norms and vectors of the
    nullspace basis, sorted by norm."""
    _check_basis_fits(n, d, method)
    E = build_expansion_matrix(n, d)
    if method == "rcf":
        vs = rcf_nullspace(E.subset_rows)
    else:
        lat = nullspace_lattice(E.subset_rows)
        vs = lll_reduce(lat) if lat else []
    return (E.ctx, *_sorted_by_norm(vs))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="recomb",
        description="Polynomial identities of n-ary intermolecular recombination.")
    sp = ap.add_subparsers(dest="command", required=True)

    p_matrix = sp.add_parser("matrix", help="write the expansion matrix")
    _add_nd(p_matrix)
    p_matrix.add_argument("-o", "--out", help="output path (default stdout)")

    p_null = sp.add_parser("nullspace", help="nullspace basis as identity files")
    _add_nd(p_null)
    p_null.add_argument("--method", choices=("rcf", "hnf-lll"), default="rcf")
    p_null.add_argument("-o", "--out", help="output directory for identity files")

    p_verify = sp.add_parser("verify", help="check that a file is an identity")
    p_verify.add_argument("file")

    p_gen = sp.add_parser("generators", help="minimal module generators")
    _add_nd(p_gen)
    p_gen.add_argument("--basis", choices=("rcf", "hnf-lll"), default="hnf-lll")
    p_gen.add_argument("-p", "--prime", type=int, default=None)

    p_rep = sp.add_parser("reproduce", help="recompute published values")
    p_rep.add_argument("scope", choices=SCOPES)
    p_rep.add_argument("-p", "--prime", type=int, default=None)

    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "matrix":
            _check_matrix_fits(args.arity, args.degree)
            E = build_expansion_matrix(args.arity, args.degree)
            text = format_matrix(E.array.tolist())
            if args.out:
                with open(args.out, "w") as f:
                    f.write(text)
            else:
                sys.stdout.write(text)
            return 0

        if args.command == "nullspace":
            ctx, norms, vs = _nullspace_vectors(args.arity, args.degree,
                                                args.method)
            print(f"nullspace dimension {len(vs)} "
                  f"(arity {args.arity}, degree {args.degree}, {args.method})")
            if norms:
                print("squared norms:", " ".join(map(str, norms)))
            if args.out:
                os.makedirs(args.out, exist_ok=True)
                width = max(3, len(str(max(len(vs) - 1, 0))))
                for i, v in enumerate(vs):
                    idc = ctx.combination_of(v)
                    write_identity_file(
                        idc, os.path.join(args.out, f"identity_{i:0{width}d}.txt"))
                with open(os.path.join(args.out, "norms.txt"), "w") as f:
                    f.write("\n".join(map(str, norms)) + ("\n" if norms else ""))
                print(f"wrote {len(vs)} identity files to {args.out}")
            return 0

        if args.command == "verify":
            idc = read_identity_file(args.file)
            residual = verify_identity(idc)
            if residual == 0:
                print(f"{args.file}: identity holds "
                      f"({len(idc)} terms expand to zero)")
                return 0
            print(f"{args.file}: NOT an identity; {residual} residual slot tuples")
            return 1

        if args.command == "generators":
            p = (args.prime if args.prime is not None
                 else golden.scalars()["default_prime"])
            _check_prime(p, args.degree)
            _, norms, vs = _nullspace_vectors(args.arity, args.degree,
                                              args.basis)
            gens = generator_sieve(vs, args.arity, args.degree, p)
            if not vs:
                print("empty nullspace: no identities in this degree")
                return 0
            print(f"{len(gens)} module generator(s) from the {args.basis} "
                  f"basis (p = {p}):")
            for g in gens:
                print(f"  position {g.position}, squared norm {g.norm_sq}, "
                      f"cumulative rank {g.cumulative_rank}")
                print("    " + format_identity(g.identity).replace("\n", "\n    ").rstrip())
            target = len(vs)
            print(f"final rank {gens[-1].cumulative_rank} of {target}")
            pos = single_generator(vs, gens, args.arity, args.degree, p)
            if pos is None:
                print("no single basis vector generates the whole nullspace")
            else:
                print(f"single generator: position {pos}, squared norm "
                      f"{norms[pos - 1]}, rank {target}")
            return 0

        if args.command == "reproduce":
            rep = run_scope(args.scope, p=args.prime)
            for line in rep.lines():
                print(line)
            n_hard = sum(1 for c in rep.checks if not c.stretch)
            n_ok = sum(1 for c in rep.checks if not c.stretch and c.ok)
            print(f"{rep.scope}: {n_ok}/{n_hard} checks passed")
            return 0 if rep.passed else 1

    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}",
              file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
