import numpy as np
import pytest

from recomb import build_expansion_matrix
from recomb.linalg import lll_reduce, nullspace_lattice, rcf_nullspace


@pytest.fixture(scope="session")
def E24():
    return build_expansion_matrix(2, 4)


@pytest.fixture(scope="session")
def E35():
    return build_expansion_matrix(3, 5)


@pytest.fixture(scope="session")
def E37():
    return build_expansion_matrix(3, 7)


@pytest.fixture(scope="session")
def deg7_bases(E37):
    """(RCF nullspace, HNF lattice basis, its LLL reduction) of (3,7)."""
    rows = E37.array.tolist()
    lat = nullspace_lattice(rows)
    return rcf_nullspace(rows), lat, lll_reduce(lat)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
