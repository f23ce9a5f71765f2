"""Command-line interface.

Subcommands: matrix, nullspace, verify, generators, reproduce.
Exit codes: 0 success / all checks pass, 1 verification or reproduction
failure, 2 usage or I/O errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import golden
from .expansion import build_expansion_matrix
from .identities import generator_sieve, module_rank, verify_identity
from .io_formats import (
    ParseError,
    format_identity,
    format_matrix,
    read_identity_file,
    write_identity_file,
)
from .linalg import (
    lll_reduce,
    nullspace_lattice,
    rcf_nullspace,
    sort_vectors_by_norm,
    squared_norm,
)
from .reproduce import SCOPES, run_scope


def _add_nd(sub, d_help="degree"):
    sub.add_argument("-n", "--arity", type=int, required=True, help="operation arity")
    sub.add_argument("-d", "--degree", type=int, required=True, help=d_help)


def _nullspace_vectors(n, d, method):
    E = build_expansion_matrix(n, d)
    if method == "rcf":
        vs = rcf_nullspace(E.array.tolist())
    else:
        lat = nullspace_lattice(E.array.tolist())
        vs = lll_reduce(lat) if lat else []
    return E.ctx, sort_vectors_by_norm(vs)


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
    p_rep.add_argument("--mode", choices=("exact", "certify"), default="certify",
                       help="orbit strategy for deg9-closure")
    p_rep.add_argument("--seed", type=int, default=0,
                       help="seed for certify-mode sampling")
    p_rep.add_argument("-p", "--prime", type=int, default=None)

    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "matrix":
            E = build_expansion_matrix(args.arity, args.degree)
            text = format_matrix(E.array.tolist())
            if args.out:
                with open(args.out, "w") as f:
                    f.write(text)
            else:
                sys.stdout.write(text)
            return 0

        if args.command == "nullspace":
            ctx, vs = _nullspace_vectors(args.arity, args.degree,
                                         args.method)
            norms = [squared_norm(v) for v in vs]
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
            try:
                idc = read_identity_file(args.file)
            except (OSError, ParseError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            residual = verify_identity(idc)
            if residual == 0:
                print(f"{args.file}: identity holds "
                      f"({len(idc)} terms expand to zero)")
                return 0
            print(f"{args.file}: NOT an identity; {residual} residual slot tuples")
            return 1

        if args.command == "generators":
            p = args.prime or golden.scalars()["default_prime"]
            ctx, vs = _nullspace_vectors(args.arity, args.degree,
                                         args.basis)
            if not vs:
                print("empty nullspace: no identities in this degree")
                return 0
            gens = generator_sieve(vs, args.arity, args.degree, p)
            print(f"{len(gens)} module generator(s) from the {args.basis} "
                  f"basis (p = {p}):")
            for g in gens:
                print(f"  position {g.position}, squared norm {g.norm_sq}, "
                      f"cumulative rank {g.cumulative_rank}")
                print("    " + format_identity(g.identity).replace("\n", "\n    ").rstrip())
            target = len(vs)
            print(f"final rank {gens[-1].cumulative_rank} of {target}")
            for pos, v in enumerate(vs, start=1):
                idc = ctx.combination_of(v)
                if module_rank([idc], p) == target:
                    print(f"single generator: position {pos}, squared norm "
                          f"{squared_norm(v)}, rank {target}")
                    break
            else:
                print("no single basis vector generates the whole nullspace")
            return 0

        if args.command == "reproduce":
            rep = run_scope(args.scope, mode=args.mode, seed=args.seed,
                            p=args.prime)
            for line in rep.lines():
                print(line)
            n_hard = sum(1 for c in rep.checks if not c.stretch)
            n_ok = sum(1 for c in rep.checks if not c.stretch and c.ok)
            print(f"{rep.scope}: {n_ok}/{n_hard} checks passed")
            return 0 if rep.passed else 1

    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
