"""Polynomial identities of n-ary intermolecular recombination.

The package enumerates multilinear nonassociative monomials modulo complete
symmetry, expands them into slot-tuple combinations, and extracts identity
bases from the expansion matrix with exact linear algebra: rational row
canonical form on one route, Hermite normal form plus integer LLL on the
other.  Symmetric-group module ranks then sieve minimal generator sets and
lift identities across degrees.
"""

from .expansion import (
    ExpansionMatrix,
    build_expansion_matrix,
    expand_monomial,
)
from .identities import (
    ClosureResult,
    LiftedConsequence,
    SieveGenerator,
    expansion_rank,
    generator_sieve,
    lift_identity,
    module_rank,
    new_identity_test,
    verify_identity,
)
from .linalg import (
    DependentRowsError,
    HnfResult,
    ModularRankAccumulator,
    RcfResult,
    hnf_rows,
    hnf_with_transform,
    lattices_equal,
    lll_reduce,
    nullspace_lattice,
    rcf,
    rcf_nullspace,
    sort_vectors_by_norm,
    squared_norm,
)
from .monomials import (
    DegreeContext,
    IdentityCombination,
    InvalidDegreeError,
    MultilinearityError,
    apply_permutation,
    enumerate_canonical_types,
    get_context,
    order_slot_tuples,
    parse_bracket,
    straighten,
    to_bracket,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
