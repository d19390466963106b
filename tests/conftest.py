"""Shared fixtures for the test suite."""
import numpy as np
import pytest
import scipy.sparse as sp

from axitherm.materials import PiecewiseQuadratic, uniform_materials
from axitherm.mesh import SubdomainPolygon, generate_mesh, tag_boundaries


@pytest.fixture(scope="session")
def unit_square_mesh():
    poly = SubdomainPolygon(1, ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    mesh = generate_mesh([poly], 0.25)
    return tag_boundaries(mesh, [poly])


@pytest.fixture(scope="session")
def simple_materials():
    return uniform_materials(PiecewiseQuadratic.constant(10.0),
                             PiecewiseQuadratic.constant(2e9),
                             nu=0.3, alpha=1e-5, T0=300.0)


@pytest.fixture(scope="session")
def coarse_hearth_mesh():
    from axitherm.mesh import hearth_mesh
    return hearth_mesh(0.4)


@pytest.fixture(scope="session")
def hearth_materials():
    from axitherm.materials import build_hearth_materials
    return build_hearth_materials()


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture(scope="session")
def eliminate_by_products():
    """Reference elimination of fixed dofs (dof -> value) by sparse
    products with 0/1 diagonal matrices, keep @ A @ keep + diag(fixed),
    the rule apply_constraints must reproduce. Returns (A, b) like it."""
    def eliminate(A, b, fixed):
        n = A.shape[0]
        idx = np.fromiter(fixed.keys(), dtype=int)
        vals = np.fromiter(fixed.values(), dtype=float)
        x_c = np.zeros(n)
        x_c[idx] = vals
        b = b - A @ x_c
        b[idx] = vals
        mask = np.ones(n, dtype=bool)
        mask[idx] = False
        keep = sp.diags(mask.astype(float), format="csr")
        A = keep @ A @ keep + sp.diags((~mask).astype(float), format="csr")
        A = A.tocsr()
        A.sort_indices()
        return A, b

    return eliminate
