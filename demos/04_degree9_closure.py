"""Ternary degree 9: no new identities beyond the degree-7 generator.

The 504x15400 expansion matrix has rank 84 mod 101, so the identity space
has dimension 15316.  Lifting the ternary recombination identity (seven
variable substitutions plus one embedding) gives eight degree-9
consequences; random permutation sampling certifies that their
symmetric-group span already fills all 15316 dimensions.

Pass --exact to take the module dimension after each consequence instead,
one irreducible representation of S_9 at a time (about 1 s and 55 MB on
2 vCPUs; reproduces the cumulative dimension sequence).
"""

import sys
import time

from recomb import expansion_rank, lift_identity, new_identity_test
from recomb.golden import load_identity

mode = "exact" if "--exact" in sys.argv else "certify"

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

print(f"\nrunning the {mode} closure...")
t0 = time.time()
res = new_identity_test(9, [R], mode=mode, seed=0)
if mode == "exact":
    print("cumulative module dimensions:", res.consequence_dims)
else:
    print(f"span dimension {res.final_dim} reached after "
          f"{res.samples} sampled permutations")
print(f"verdict: {res.verdict}  ({time.time()-t0:.0f}s)")
