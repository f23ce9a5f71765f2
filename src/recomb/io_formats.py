"""Plain-text file formats.

Identity files:  a `# arity=<n> degree=<d>` header line, then one term per
line as `<signed integer> <bracket monomial>`, e.g. ``-1 [[[a,c,g],e,f],b,d]``.
Matrix files:  first line `<rows> <cols>`, then rows of space-separated
decimal integers.  The formatters emit canonical forms, so parse after
format is the identity on both formats.
"""

from __future__ import annotations

import re

from .monomials import IdentityCombination, parse_bracket, to_bracket

_HEADER = re.compile(r"#\s*arity\s*=\s*(\d+)\s+degree\s*=\s*(\d+)\s*$")


class ParseError(ValueError):
    pass


def format_identity(idc: IdentityCombination) -> str:
    lines = [f"# arity={idc.n} degree={idc.degree}"]
    for tree, coeff in idc.sorted_terms():
        lines.append(f"{coeff} {to_bracket(tree)}")
    return "\n".join(lines) + "\n"


def parse_identity(text: str) -> IdentityCombination:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ParseError("empty identity file")
    m = _HEADER.match(lines[0])
    if not m:
        raise ParseError(f"bad header line: {lines[0]!r}")
    n, degree = int(m.group(1)), int(m.group(2))
    pairs = []
    for ln in lines[1:]:
        if ln.startswith("#"):
            continue
        try:
            coeff_s, mono_s = ln.split(None, 1)
            coeff = int(coeff_s)
            tree = parse_bracket(mono_s)
        except ValueError as exc:
            raise ParseError(f"bad term line {ln!r}: {exc}") from exc
        pairs.append((coeff, tree))
    if not pairs:
        raise ParseError("identity file has no terms")
    try:
        idc = IdentityCombination.from_terms(n, pairs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if idc.degree != degree:
        raise ParseError(f"terms have degree {idc.degree}, header says {degree}")
    return idc


def write_identity_file(idc: IdentityCombination, path) -> None:
    with open(path, "w") as f:
        f.write(format_identity(idc))


def read_identity_file(path) -> IdentityCombination:
    with open(path) as f:
        return parse_identity(f.read())


def format_matrix(rows) -> str:
    rows = [[int(x) for x in row] for row in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    out = [f"{m} {n}"]
    for row in rows:
        if len(row) != n:
            raise ValueError("ragged matrix")
        out.append(" ".join(str(x) for x in row))
    return "\n".join(out) + "\n"


def parse_matrix(text: str) -> list:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty matrix file")
    try:
        m, n = (int(x) for x in lines[0].split())
    except ValueError as exc:
        raise ParseError(f"bad dimension line {lines[0]!r}") from exc
    if len(lines) != m + 1:
        raise ParseError(f"expected {m} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            row = [int(x) for x in ln.split()]
        except ValueError as exc:
            raise ParseError(f"bad matrix row {ln!r}") from exc
        if len(row) != n:
            raise ParseError(f"row has {len(row)} entries, expected {n}")
        rows.append(row)
    return rows
