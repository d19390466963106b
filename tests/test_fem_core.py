"""Quadrature, assembly, constraints and linear solver tests."""
import numpy as np
import pytest
import scipy.sparse as sp

from axitherm import fem_core
from axitherm.cli import hearth_mechanical_bc
from axitherm.fem_core import (
    AssemblyWorkspace,
    CsrPattern,
    EDGE_GAUSS_POINTS,
    EDGE_GAUSS_WEIGHTS,
    LU_RTOL,
    SingularSystemError,
    _permuted_csc,
    apply_constraints,
    assemble_csr,
    solve_lu,
    solve_refined,
    triangle_rule,
)
from axitherm.mechanical import assemble_mechanical_system
from axitherm.mesh import Mesh, hearth_mesh

REF_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def _one_triangle_workspace(tri):
    return AssemblyWorkspace(Mesh(tri, np.array([[0, 1, 2]]), np.array([1])))


def _one_triangle_quadrature(tri, degree=3):
    return _one_triangle_workspace(tri).quadrature(degree)

# Exact integrals of r^i y^j * r over the reference triangle, from
# closed-form evaluation of the iterated integral.
REF_MOMENTS = {
    (0, 0): 1 / 6, (1, 0): 1 / 12, (0, 1): 1 / 24, (1, 1): 1 / 60,
    (2, 0): 1 / 20, (0, 2): 1 / 60, (2, 1): 1 / 120, (0, 3): 1 / 120,
}


class TestQuadrature:
    @pytest.mark.parametrize("degree", [3, 5])
    def test_weights_sum_half(self, degree):
        rule = triangle_rule(degree)
        assert rule.weights.sum() == pytest.approx(0.5)

    @pytest.mark.parametrize("degree", [3, 5])
    def test_exact_for_declared_degree(self, degree):
        quad = _one_triangle_quadrature(REF_TRIANGLE, degree)
        for (i, j), exact in REF_MOMENTS.items():
            if i + j + 1 > degree:
                continue
            val = np.sum(quad.w * quad.r**i * quad.y**j)
            assert val == pytest.approx(exact, rel=1e-13), (i, j)

    def test_unknown_degree_rejected(self):
        with pytest.raises(ValueError):
            triangle_rule(9)

    def test_mapped_triangle(self):
        tri = np.array([[1.0, 2.0], [3.0, 2.0], [1.0, 5.0]])
        quad = _one_triangle_quadrature(tri)
        # int r over the triangle: area 3, centroid r = 5/3
        assert quad.w.sum() == pytest.approx(3.0 * 5.0 / 3.0)

    def test_negative_orientation_rejected(self):
        with pytest.raises(ValueError):
            _one_triangle_quadrature(REF_TRIANGLE[::-1])

    def test_edge_gauss_integrates_cubics(self):
        # 2-point Gauss on [0, 1] is exact through degree 3
        for p in range(4):
            val = np.sum(EDGE_GAUSS_WEIGHTS * EDGE_GAUSS_POINTS**p)
            assert val == pytest.approx(1.0 / (p + 1), rel=1e-14)


class TestTriangleGeometry:
    """Element areas and P1 gradients of the assembly workspace."""

    def test_reference_gradients(self):
        ws = _one_triangle_workspace(REF_TRIANGLE)
        assert ws.area[0] == pytest.approx(0.5)
        expect = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(ws.grads[0], expect)

    def test_linear_field_reproduced(self):
        tri = np.array([[1.0, 1.0], [4.0, 2.0], [2.0, 5.0]])
        ws = _one_triangle_workspace(tri)
        nodal = 3.0 * tri[:, 0] - 2.0 * tri[:, 1] + 1.0
        grad = np.einsum("i,id->d", nodal, ws.grads[0])
        assert np.allclose(grad, [3.0, -2.0])

    def test_rejects_flipped(self):
        with pytest.raises(ValueError, match="non-positively-oriented"):
            _one_triangle_workspace(REF_TRIANGLE[::-1])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_node(self, value):
        tri = REF_TRIANGLE.copy()
        tri[1, 0] = value
        with pytest.raises(ValueError, match="non-finite triangles"):
            _one_triangle_workspace(tri)


class TestDofMapAndConstraints:
    """apply_constraints with a {dof: value} map of fixed dofs."""

    def test_out_of_range_constraint(self):
        A = sp.eye(4, format="csr")
        with pytest.raises(IndexError, match="nonexistent dof"):
            apply_constraints(A, np.ones(4), {5: 0.0})

    def test_elimination_exact_and_symmetric(self):
        rng = np.random.default_rng(3)
        n = 8
        B = rng.standard_normal((n, n))
        A = sp.csr_matrix(B @ B.T + n * np.eye(n))
        b = rng.standard_normal(n)
        Ac, bc = apply_constraints(A, b, {0: 2.5, 3: -1.0})
        dense = Ac.toarray()
        assert np.allclose(dense, dense.T)
        x, _ = solve_lu(Ac, bc, np.arange(n))
        assert x[0] == 2.5
        assert x[3] == -1.0
        # unconstrained equations hold with the prescribed values in place
        free = [i for i in range(n) if i not in (0, 3)]
        full = A.toarray()
        assert np.allclose(full[np.ix_(free, range(n))] @ x, b[free])

    # a missing diagonal entry is inserted, which scipy warns about
    @pytest.mark.filterwarnings("ignore::scipy.sparse.SparseEfficiencyWarning")
    @pytest.mark.parametrize("drop_diagonal", [False, True])
    def test_matches_elimination_by_products(self, eliminate_by_products,
                                             drop_diagonal):
        rng = np.random.default_rng(11)
        n = 40
        R = sp.random(n, n, density=0.1, random_state=rng)
        S = (R + R.T + n * sp.eye(n)).tocoo()
        rows, cols, data = S.row, S.col, S.data.copy()
        # explicit zeros on a symmetric set of off-diagonal entries: the
        # matrix stays symmetric positive definite
        zero = np.zeros((n, n), dtype=bool)
        pick = (rows < cols) & (rng.random(len(rows)) < 0.3)
        zero[rows[pick], cols[pick]] = True
        data[(zero | zero.T)[rows, cols]] = 0.0
        dofs = rng.choice(n, size=8, replace=False)
        if drop_diagonal:
            # a fixed dof whose row stores no diagonal entry
            kept = (rows != dofs[0]) | (cols != dofs[0])
            rows, cols, data = rows[kept], cols[kept], data[kept]
        A = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
        A.sort_indices()
        assert (A.data == 0).any()
        b = rng.standard_normal(n)
        fixed = dict(zip(dofs.tolist(), rng.standard_normal(8).tolist()))
        before = [a.copy() for a in (A.indptr, A.indices, A.data, b)]

        Ac, bc = apply_constraints(A, b, fixed)
        ref, ref_b = eliminate_by_products(A, b, fixed)
        assert np.array_equal(Ac.indptr, ref.indptr)
        assert np.array_equal(Ac.indices, ref.indices)
        assert np.array_equal(Ac.data, ref.data)
        assert np.array_equal(bc, ref_b)
        assert Ac.has_sorted_indices
        for a, copy in zip((A.indptr, A.indices, A.data, b), before):
            assert np.array_equal(a, copy)

    def test_no_constraints_is_identity(self):
        A = sp.eye(3, format="csr")
        b = np.ones(3)
        Ac, bc = apply_constraints(A, b, {})
        assert np.allclose(Ac.toarray(), np.eye(3))
        assert np.allclose(bc, b)


class TestSolvers:
    @staticmethod
    def _spd(n, seed=0):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((n, n))
        return sp.csr_matrix(B @ B.T + n * np.eye(n))

    @staticmethod
    def _reversed(n):
        return np.arange(n)[::-1].copy()

    def test_lu_solves(self):
        # nonsymmetric, factored in a scrambled order; the solution and
        # the factor's later solves are in the matrix's own numbering
        A = sp.csr_matrix(self._spd(20).toarray() + np.triu(np.ones((20, 20))))
        order = np.random.default_rng(1).permutation(20)
        x_ref = np.arange(20, dtype=float)
        x, factor = solve_lu(A, A @ x_ref, order)
        assert np.allclose(x, x_ref)
        b2 = np.ones(20)
        assert np.allclose(A @ factor.solve(b2), b2)

    def test_permuted_csc_matches_row_then_column_slicing(self):
        # nonsymmetric, with explicit zeros: every stored entry, in
        # sorted order within each column, as A[order][:, order]
        rng = np.random.default_rng(3)
        A = sp.random(60, 60, density=0.1, random_state=4, format="csr")
        A = (A + sp.eye(60, format="csr")).tocsr()
        A.data[::7] = 0.0
        order = rng.permutation(60)
        ref = A[order].tocsc()[:, order]
        got = _permuted_csc(A, order)
        assert got.format == "csc"
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(ref, name))
            assert getattr(got, name).dtype == getattr(ref, name).dtype

    def test_lu_detects_empty_row(self):
        A = sp.csr_matrix((5, 5))
        A = A.tolil()
        A[range(4), range(4)] = 1.0
        with pytest.raises(SingularSystemError, match="row"):
            solve_lu(A.tocsr(), np.ones(5), self._reversed(5))

    def test_lu_detects_singular(self):
        A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularSystemError):
            solve_lu(A, np.array([1.0, 1.0]), self._reversed(2))

    def test_lu_detects_near_singular(self):
        # the 12 x 12 Hilbert matrix factors, but the solve misses the
        # 1e-10 relative residual
        n = 12
        A = sp.csr_matrix(1.0 / (np.arange(n)[:, None] + np.arange(n) + 1.0))
        with pytest.raises(SingularSystemError, match="near-singular"):
            solve_lu(A, np.ones(n), self._reversed(n))


@pytest.fixture(scope="module")
def hearth_stiffness(hearth_materials):
    """Constrained hearth K and f at h = 0.2 under a uniform 1000 K, with
    the dof-pair expansion of the mesh's node order."""
    mesh = hearth_mesh(0.2)
    T = np.full(mesh.num_nodes, 1000.0)
    K, f, _ = assemble_mechanical_system(mesh, hearth_materials,
                                         hearth_mechanical_bc(), T)
    order = 2 * mesh.assembly_workspace.node_order[:, None] + np.arange(2)
    return K, f, order.ravel()


def _relative_residual(A, x, b):
    return np.linalg.norm(A @ x - b) / np.linalg.norm(b)


class TestSolveRefined:
    @staticmethod
    def _count_lu_calls(monkeypatch):
        """Spy on fem_core.solve_lu; returns the list of its calls."""
        calls = []

        def spy(*args):
            calls.append(args)
            return solve_lu(*args)

        monkeypatch.setattr(fem_core, "solve_lu", spy)
        return calls

    def test_matches_lu_on_hearth_stiffness(self, hearth_stiffness):
        K, f, order = hearth_stiffness
        x = solve_refined(K, f, order)
        x_lu, _ = solve_lu(K, f, order)
        assert x.dtype == np.float64
        assert _relative_residual(K, x, f) <= LU_RTOL
        assert np.abs(x - x_lu).max() <= 1e-9 * np.abs(x_lu).max()

    def test_hearth_stiffness_factored_in_single_precision(
            self, hearth_stiffness, monkeypatch):
        K, f, order = hearth_stiffness

        def refuse(*args):
            raise AssertionError("fell back to the double-precision LU")

        monkeypatch.setattr(fem_core, "solve_lu", refuse)
        assert _relative_residual(K, solve_refined(K, f, order), f) <= LU_RTOL

    def test_falls_back_beyond_float32_range(self, monkeypatch):
        # entries about 1e41 are inf in float32, which SuperLU cannot
        # factor
        A = 1e40 * TestSolvers._spd(20)
        b = A @ np.arange(20.0)
        calls = self._count_lu_calls(monkeypatch)
        x = solve_refined(A, b, np.arange(20))
        assert len(calls) == 1
        assert _relative_residual(A, x, b) <= LU_RTOL

    def test_falls_back_on_non_finite_correction(self, monkeypatch):
        # 1e-40 is subnormal in float32 and factors, but the correction
        # 1e40 overflows it
        A = sp.csr_matrix(np.diag([1e-40, 1.0]))
        b = np.ones(2)
        calls = self._count_lu_calls(monkeypatch)
        x = solve_refined(A, b, np.arange(2))
        assert len(calls) == 1
        assert np.array_equal(x, [1e40, 1.0])

    def test_falls_back_on_stall(self, hearth_stiffness, monkeypatch):
        # no step can cut the residual 1e30 times
        K, f, order = hearth_stiffness
        monkeypatch.setattr(fem_core, "REFINE_MIN_REDUCTION", 1e30)
        calls = self._count_lu_calls(monkeypatch)
        x = solve_refined(K, f, order)
        assert len(calls) == 1
        assert np.array_equal(x, solve_lu(K, f, order)[0])

    def test_falls_back_on_ill_conditioned_matrix(self, monkeypatch):
        # the 8 x 8 Hilbert matrix (condition about 1.5e10) is beyond
        # single-precision refinement but within the double LU's reach
        n = 8
        A = sp.csr_matrix(1.0 / (np.arange(n)[:, None] + np.arange(n) + 1.0))
        calls = self._count_lu_calls(monkeypatch)
        x = solve_refined(A, np.ones(n), TestSolvers._reversed(n))
        assert len(calls) == 1
        assert _relative_residual(A, x, np.ones(n)) <= LU_RTOL

    def test_singular_raises_lu_message(self):
        A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularSystemError, match="LU factorization failed"):
            solve_refined(A, np.array([1.0, 1.0]), TestSolvers._reversed(2))

    def test_near_singular_raises_lu_message(self):
        n = 12
        A = sp.csr_matrix(1.0 / (np.arange(n)[:, None] + np.arange(n) + 1.0))
        with pytest.raises(SingularSystemError, match="near-singular"):
            solve_refined(A, np.ones(n), TestSolvers._reversed(n))

    def test_empty_row_raises_lu_message(self):
        A = sp.lil_matrix((5, 5))
        A[range(4), range(4)] = 1.0
        with pytest.raises(SingularSystemError, match="row 4 is empty"):
            solve_refined(A.tocsr(), np.ones(5), TestSolvers._reversed(5))

    def test_zero_right_hand_side_gives_zeros(self, hearth_stiffness):
        K, f, order = hearth_stiffness
        x = solve_refined(K, np.zeros_like(f), order)
        assert np.array_equal(x, np.zeros_like(f))

    def test_permuted_csc_in_single_precision(self):
        # the same structure as the float64 copy, values rounded once
        A = sp.random(40, 40, density=0.2, random_state=5, format="csr")
        order = np.random.default_rng(6).permutation(40)
        ref = _permuted_csc(A, order)
        got = _permuted_csc(A, order, np.float32)
        assert got.dtype == np.float32
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data.astype(np.float32))


class TestAssembleCsr:
    def test_duplicates_summed(self):
        A = assemble_csr(CsrPattern.from_coo([0, 0, 1], [0, 0, 1], 2),
                         [1.0, 2.0, 5.0])
        assert A[0, 0] == 3.0
        assert A[1, 1] == 5.0
        assert A.has_sorted_indices
