"""Ternary degree 9: no new identities beyond the degree-7 generator.

The 504x15400 expansion matrix has rank 84 mod 101, so the identity space
has dimension 15316.  Lifting the ternary recombination identity (seven
variable substitutions plus one embedding) gives eight degree-9
consequences.  The dimension of the S_9-module they span, taken after
each consequence one irreducible representation of S_9 at a time, already
fills all 15316 dimensions (about 1 s and 55 MB on 2 vCPUs).
"""

import time

from recomb import expansion_rank, lift_identity, new_identity_test
from recomb.golden import load_identity

t0 = time.time()
rank, null_dim = expansion_rank(3, 9)
print(f"degree-9 expansion matrix: rank {rank} mod 101, "
      f"nullspace dimension {null_dim}  ({time.time()-t0:.0f}s)")

R = load_identity("ternary_recombination")
lifts = lift_identity(R)
print(f"\n{len(lifts)} lifted consequences of the degree-7 generator:")
for lc in lifts:
    what = f"substitute variable {lc.variable}" if lc.variable is not None \
        else "embed the whole identity"
    print(f"  {what}: {len(lc.result)} terms in degree {lc.result.degree}")

print("\nrunning the exact closure...")
t0 = time.time()
res = new_identity_test(9, [R])
print("cumulative module dimensions:", res.consequence_dims)
print(f"verdict: {res.verdict}  ({time.time()-t0:.0f}s)")
