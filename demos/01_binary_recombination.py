"""Binary recombination, degree 4: the whole pipeline on the smallest case.

Four molecules a, b, c, d, each split into two submolecules.  The 15
commutative monomials expand into 12 ordered pairs; identities are the
nullspace vectors of the 12x15 expansion matrix, and the two nullspace
methods (rational RCF vs. Hermite form + LLL) give bases of very different
quality.
"""

from recomb import (
    build_expansion_matrix,
    get_context,
    hnf_with_transform,
    lll_reduce,
    nullspace_lattice,
    rcf,
    rcf_nullspace,
    sort_vectors_by_norm,
    squared_norm,
    to_bracket,
)

E = build_expansion_matrix(2, 4)
ctx = get_context(2, 4)
print("monomials (columns):")
print("  " + ", ".join(to_bracket(m) for m in ctx.monomials))
print("slot tuples (rows):")
print("  " + ", ".join(str(t) for t in ctx.slot_tuples))
print("\nexpansion matrix E:")
print(E.array)

R = rcf(E.array.tolist())
print(f"\nrank {R.rank}, so the identity space has dimension {15 - R.rank}")

print("\nmethod (a): canonical nullspace basis from the RCF, sorted by norm")
for v in sort_vectors_by_norm(rcf_nullspace(E.array.tolist())):
    print(f"  norm^2 {squared_norm(v):3d}  {v}")

print("\nmethod (b): Hermite normal form of E^t with transform")
res = hnf_with_transform(E.array.T.tolist())
print(f"  HNF rank {res.rank}; bottom {15 - res.rank} transform rows form "
      f"a lattice basis of the integer nullspace")
lat = nullspace_lattice(E.array.tolist())
print("  lattice basis norms:", sorted(squared_norm(v) for v in lat))

red = lll_reduce(lat)
print("  after LLL:          ", sorted(squared_norm(v) for v in red))
print("\nshortest identity found (coefficients over the monomial basis):")
best = min(red, key=squared_norm)
idc = ctx.combination_of(best).normalized()
for tree, coeff in idc.sorted_terms():
    print(f"  {coeff:+d} {to_bracket(tree)}")
