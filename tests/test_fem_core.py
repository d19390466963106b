"""Quadrature, assembly, constraints and linear solver tests."""
import numpy as np
import pytest
import scipy.sparse as sp

from axitherm import fem_core, mechanical
from axitherm.hearth import hearth_mechanical_bc, hearth_mesh
from axitherm.fem_core import (
    AssemblyWorkspace,
    CsrPattern,
    EDGE_GAUSS_POINTS,
    EDGE_GAUSS_WEIGHTS,
    LU_RTOL,
    SingularSystemError,
    apply_constraints,
    assemble_csr,
    solve_lu,
    triangle_rule,
)
from axitherm.mechanical import assemble_mechanical_system
from axitherm.mesh import Mesh

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
        # such a mesh is never made, so no workspace is built on it
        with pytest.raises(ValueError,
                           match=r"^node 1 has a non-finite coordinate: "):
            _one_triangle_workspace(tri)

    def test_rejects_non_finite_determinant(self):
        # finite nodes whose determinant overflows to inf
        tri = np.array([[0.0, 0.0], [1e200, 0.0], [0.0, 1e200]])
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="non-finite triangles"):
            _one_triangle_workspace(tri)


class TestDofMapAndConstraints:
    """apply_constraints with arrays of fixed dofs and their values."""

    def test_out_of_range_constraint(self):
        A = sp.eye(4, format="csr")
        for dof in (5, 4, -1):
            with pytest.raises(IndexError, match="nonexistent dof"):
                apply_constraints(A, np.ones(4), [dof], [0.0])

    def test_repeated_dof_rejected(self):
        # even with the same value twice: each fixed dof is listed once
        A = sp.eye(4, format="csr")
        for dofs in ([1, 1], [3, 0, 3]):
            with pytest.raises(ValueError, match="fixed twice"):
                apply_constraints(A, np.ones(4), dofs, np.zeros(len(dofs)))

    def test_elimination_exact_and_symmetric(self):
        rng = np.random.default_rng(3)
        n = 8
        B = rng.standard_normal((n, n))
        A = sp.csr_matrix(B @ B.T + n * np.eye(n))
        b = rng.standard_normal(n)
        Ac, bc, free, x = apply_constraints(A, b, [3, 0], [-1.0, 2.5])
        assert np.array_equal(free, [1, 2, 4, 5, 6, 7])
        assert Ac.shape == (6, 6)
        dense = Ac.toarray()
        assert np.array_equal(dense, dense.T)
        x[free] = solve_lu(Ac, bc)[0]
        assert x[0] == 2.5
        assert x[3] == -1.0
        # unconstrained equations hold with the prescribed values in place
        assert np.allclose(A.toarray()[free] @ x, b[free])

    @pytest.mark.parametrize("drop_diagonal", [False, True])
    def test_matches_dense_restriction(self, drop_diagonal):
        rng = np.random.default_rng(11)
        n = 40
        R = sp.random(n, n, density=0.1, random_state=rng)
        S = (R + R.T + n * sp.eye(n)).tocoo()
        rows, cols, data = S.row, S.col, S.data.copy()
        # explicit zeros on a symmetric set of off-diagonal entries: the
        # matrix stays symmetric
        zero = np.zeros((n, n), dtype=bool)
        pick = (rows < cols) & (rng.random(len(rows)) < 0.3)
        zero[rows[pick], cols[pick]] = True
        data[(zero | zero.T)[rows, cols]] = 0.0
        dofs = rng.choice(n, size=9, replace=False)
        fixed_dofs, free_dof = dofs[:8], dofs[8]
        if drop_diagonal:
            # a fixed and a free dof whose rows store no diagonal entry,
            # which the restriction must not insert
            kept = ~((rows == cols) & np.isin(rows, dofs[[0, 8]]))
            rows, cols, data = rows[kept], cols[kept], data[kept]
        A = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
        A.sort_indices()
        b = rng.standard_normal(n)
        fixed_values = rng.standard_normal(8)
        fixed = dict(zip(fixed_dofs.tolist(), fixed_values.tolist()))
        before = [a.copy() for a in (A.indptr, A.indices, A.data, b,
                                     fixed_dofs, fixed_values)]

        Ac, bc, free, x = apply_constraints(A, b, fixed_dofs, fixed_values)
        is_free = np.ones(n, dtype=bool)
        is_free[fixed_dofs] = False
        assert np.array_equal(free, np.flatnonzero(is_free))
        dense = A.toarray()
        assert np.array_equal(Ac.toarray(), dense[np.ix_(free, free)])
        # b[free] - A[free, fixed] x_fixed, summed in column order as the
        # sparse product does
        ref_b = np.array([b[i] - sum(dense[i, j] * fixed[j]
                                     for j in sorted(fixed)) for i in free])
        assert np.array_equal(bc, ref_b)
        expect_x = np.zeros(n)
        expect_x[fixed_dofs] = fixed_values
        assert np.array_equal(x, expect_x)
        # A's stored pattern among the free dofs, zeros included, sorted,
        # and nothing more
        stored = sp.csr_matrix((np.ones(A.nnz), A.indices, A.indptr),
                               shape=(n, n)).toarray()[np.ix_(free, free)]
        r, c = np.nonzero(stored)
        assert (Ac.data == 0).any()
        assert Ac.has_sorted_indices
        assert np.array_equal(np.diff(Ac.indptr),
                              np.bincount(r, minlength=len(free)))
        assert np.array_equal(Ac.indices, c)
        if drop_diagonal:
            k = np.searchsorted(free, free_dof)
            assert stored[k, k] == 0
        for a, copy in zip((A.indptr, A.indices, A.data, b, fixed_dofs,
                            fixed_values), before):
            assert np.array_equal(a, copy)

    def test_no_constraints_is_identity(self):
        A = sp.eye(3, format="csr")
        b = np.ones(3)
        Ac, bc, free, x = apply_constraints(A, b, [], [])
        assert np.array_equal(Ac.toarray(), np.eye(3))
        assert np.array_equal(bc, b)
        assert np.array_equal(free, [0, 1, 2])
        assert np.array_equal(x, np.zeros(3))

    def test_no_constraints_returns_a_new_matrix(self):
        # a stored zero, which the result keeps
        A = sp.csr_matrix((np.array([2.0, 0.0, 3.0]), np.array([0, 1, 1]),
                           np.array([0, 2, 3])), shape=(2, 2))
        b = np.array([1.0, -1.0])
        before = [a.copy() for a in (A.indptr, A.indices, A.data, b)]
        Ac, bc, _, x = apply_constraints(A, b, np.empty(0, int), np.empty(0))
        assert Ac is not A
        assert bc is not b
        assert np.array_equal(bc, b)
        assert np.array_equal(Ac.indptr, A.indptr)
        assert np.array_equal(Ac.indices, A.indices)
        assert np.array_equal(Ac.data, A.data)
        for a in (Ac.indptr, Ac.indices, Ac.data, bc, x):
            assert not any(np.shares_memory(a, c) for c in
                           (A.indptr, A.indices, A.data, b))
        for a, copy in zip((A.indptr, A.indices, A.data, b), before):
            assert np.array_equal(a, copy)

    def test_every_dof_fixed_gives_an_empty_system(self):
        A = TestSolvers._spd(5)
        values = np.array([1.5, -2.0, 0.25, 3.0, -0.125])
        Ac, bc, free, x = apply_constraints(A, np.ones(5), np.arange(5),
                                            values)
        assert Ac.shape == (0, 0)
        assert bc.shape == (0,)
        assert free.shape == (0,)
        # the solve of solve_mechanical
        x[free], _, factorizations, residual = solve_lu(Ac, bc)
        assert factorizations == 1
        assert residual == 0
        assert np.array_equal(x, values)


class TestSolvers:
    @staticmethod
    def _spd(n, seed=0):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((n, n))
        return sp.csr_matrix(B @ B.T + n * np.eye(n))

    def test_lu_solves(self):
        # nonsymmetric; the float32 factor solves further systems with A
        # to about single precision
        A = sp.csr_matrix(self._spd(20).toarray() + np.triu(np.ones((20, 20))))
        x_ref = np.arange(20, dtype=float)
        x, factor, factorizations, residual = solve_lu(A, A @ x_ref)
        assert factorizations == 1
        assert np.allclose(x, x_ref)
        assert residual == _relative_residual(A, x, A @ x_ref) <= LU_RTOL
        b2 = np.ones(20)
        y = factor.solve(b2)
        assert y.dtype == np.float64
        assert 0 < _relative_residual(A, y, b2) <= 1e-5

    def test_factor_solve_scales_into_float32_range(self):
        # a right-hand side beyond float32's range, and the solution
        # widened before it is scaled back
        A = sp.csr_matrix(np.diag([2.0, 4.0]))
        factor = solve_lu(A, np.ones(2))[1]
        y = factor.solve(np.array([1e100, 1e100]))
        assert np.allclose(y, [0.5e100, 0.25e100], rtol=1e-7, atol=0)

    def test_factor_maps_zero_to_zeros(self):
        # the float32 factor scales by the norm, which is 0 here
        _, factor, _, _ = solve_lu(self._spd(6), np.ones(6))
        assert factor.lu.L.dtype == np.float32
        y = factor.solve(np.zeros(6))
        assert y.dtype == np.float64
        assert np.array_equal(y, np.zeros(6))

    def test_lu_detects_empty_row(self):
        A = sp.csr_matrix((5, 5))
        A = A.tolil()
        A[range(4), range(4)] = 1.0
        with pytest.raises(SingularSystemError, match="row 4 is empty"):
            solve_lu(A.tocsr(), np.ones(5))

    def test_lu_detects_singular(self):
        A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularSystemError,
                           match="LU factorization failed"):
            solve_lu(A, np.array([1.0, 1.0]))

    def test_lu_detects_near_singular(self):
        # the 12 x 12 Hilbert matrix factors, but the solve misses the
        # 1e-10 relative residual
        n = 12
        A = sp.csr_matrix(1.0 / (np.arange(n)[:, None] + np.arange(n) + 1.0))
        with pytest.raises(SingularSystemError, match="near-singular"):
            solve_lu(A, np.ones(n))


@pytest.fixture(scope="module")
def hearth_stiffness(hearth_materials):
    """Hearth K and f at h = 0.2 under a uniform 1000 K, on the free
    dofs."""
    mesh = hearth_mesh(0.2)
    T = np.full(mesh.num_nodes, 1000.0)
    K, f, _, _ = apply_constraints(*assemble_mechanical_system(
        mesh, hearth_materials, hearth_mechanical_bc(), T))
    return K, f


def _relative_residual(A, x, b):
    return fem_core._norm(b - A @ x) / fem_core._norm(b)


class TestSolveRefined:
    """solve_lu's float32 factor with float64 refinement, and its
    fallback to a float64 factor."""

    @staticmethod
    def _count_fallbacks(monkeypatch):
        """Spy on the double-precision fallback; returns the list of its
        calls and the fallback itself."""
        calls = []
        fallback = fem_core._solve_double

        def spy(*args):
            calls.append(args)
            return fallback(*args)

        monkeypatch.setattr(fem_core, "_solve_double", spy)
        return calls, fallback

    def test_matches_lu_on_hearth_stiffness(self, hearth_stiffness):
        K, f = hearth_stiffness
        x, _, factorizations, residual = solve_lu(K, f)
        x_ref = fem_core._solve_double(K.tocsr(), f)[0]
        assert factorizations == 1
        assert x.dtype == np.float64
        assert residual == _relative_residual(K, x, f) <= LU_RTOL
        assert np.abs(x - x_ref).max() <= 1e-9 * np.abs(x_ref).max()

    def test_hearth_stiffness_factored_in_single_precision(
            self, hearth_stiffness, monkeypatch):
        K, f = hearth_stiffness

        def refuse(*args):
            raise AssertionError("fell back to the double-precision LU")

        monkeypatch.setattr(fem_core, "_solve_double", refuse)
        x, factor, factorizations, residual = solve_lu(K, f)
        assert factorizations == 1
        assert factor.lu.L.dtype == np.float32
        assert residual == _relative_residual(K, x, f) <= LU_RTOL

    def test_falls_back_beyond_float32_range(self, monkeypatch):
        # entries about 1e41 are inf in float32, which SuperLU cannot
        # factor
        A = 1e40 * TestSolvers._spd(20)
        b = A @ np.arange(20.0)
        calls, _ = self._count_fallbacks(monkeypatch)
        x, factor, factorizations, residual = solve_lu(A, b)
        assert len(calls) == 1
        assert factorizations == 2
        assert residual == _relative_residual(A, x, b) <= LU_RTOL
        # the chord factor is the float64 one
        assert factor.L.dtype == np.float64
        assert _relative_residual(A, factor.solve(b), b) <= LU_RTOL

    def test_falls_back_on_non_finite_correction(self, monkeypatch):
        # 1e-40 is subnormal in float32 and factors, but the correction
        # 1e40 overflows it
        A = sp.csr_matrix(np.diag([1e-40, 1.0]))
        b = np.ones(2)
        calls, _ = self._count_fallbacks(monkeypatch)
        x, _, factorizations, residual = solve_lu(A, b)
        assert len(calls) == 1
        assert factorizations == 2
        assert np.array_equal(x, [1e40, 1.0])
        assert residual == _relative_residual(A, x, b) <= LU_RTOL

    def test_falls_back_on_stall(self, hearth_stiffness, monkeypatch):
        # no step can cut the residual 1e30 times
        K, f = hearth_stiffness
        monkeypatch.setattr(fem_core, "REFINE_MIN_REDUCTION", 1e30)
        calls, fallback = self._count_fallbacks(monkeypatch)
        x, _, factorizations, residual = solve_lu(K, f)
        assert len(calls) == 1
        assert factorizations == 2
        x_ref, _, _, residual_ref = fallback(K.tocsr(), f)
        assert np.array_equal(x, x_ref)
        assert residual == residual_ref == _relative_residual(K, x, f)

    def test_falls_back_on_ill_conditioned_matrix(self, monkeypatch):
        # the 8 x 8 Hilbert matrix (condition about 1.5e10) is beyond
        # single-precision refinement but within the double LU's reach
        n = 8
        A = sp.csr_matrix(1.0 / (np.arange(n)[:, None] + np.arange(n) + 1.0))
        calls, _ = self._count_fallbacks(monkeypatch)
        x, _, factorizations, residual = solve_lu(A, np.ones(n))
        assert len(calls) == 1
        assert factorizations == 2
        assert residual == _relative_residual(A, x, np.ones(n)) <= LU_RTOL

    def test_singular_raises_lu_message(self, monkeypatch):
        # the float32 factorization fails, and so does the float64 one
        A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        calls, _ = self._count_fallbacks(monkeypatch)
        with pytest.raises(SingularSystemError,
                           match="LU factorization failed"):
            solve_lu(A, np.array([1.0, 1.0]))
        assert len(calls) == 1

    def test_near_singular_raises_lu_message(self, monkeypatch):
        # refinement stalls, and the float64 solve misses LU_RTOL
        n = 12
        A = sp.csr_matrix(1.0 / (np.arange(n)[:, None] + np.arange(n) + 1.0))
        calls, _ = self._count_fallbacks(monkeypatch)
        with pytest.raises(SingularSystemError, match="near-singular"):
            solve_lu(A, np.ones(n))
        assert len(calls) == 1

    def test_empty_row_raises_lu_message(self, monkeypatch):
        # before any factorization
        A = sp.lil_matrix((5, 5))
        A[range(4), range(4)] = 1.0

        def refuse(*args):
            raise AssertionError("factored a matrix with an empty row")

        monkeypatch.setattr(fem_core, "_splu", refuse)
        with pytest.raises(SingularSystemError, match="row 4 is empty"):
            solve_lu(A.tocsr(), np.ones(5))

    def test_zero_right_hand_side_gives_zeros(self, hearth_stiffness):
        K, f = hearth_stiffness
        x, _, factorizations, residual = solve_lu(K, np.zeros_like(f))
        assert factorizations == 1
        assert np.array_equal(x, np.zeros_like(f))
        assert residual == 0

    def test_fallback_zero_right_hand_side_gives_zeros(self, monkeypatch):
        # |b - A x| itself, which is 0, where |b| = 0
        A = 1e40 * TestSolvers._spd(20)
        calls, _ = self._count_fallbacks(monkeypatch)
        x, _, factorizations, residual = solve_lu(A, np.zeros(20))
        assert len(calls) == 1
        assert factorizations == 2
        assert np.array_equal(x, np.zeros(20))
        assert residual == 0

    def test_solve_mechanical_reports_the_solve_residual(
            self, hearth_materials, monkeypatch):
        # the residual solve_lu checked, not one computed afresh
        returned = []

        def spy(*args):
            returned.append(solve_lu(*args))
            return returned[-1]

        monkeypatch.setattr(mechanical, "solve_lu", spy)
        mesh = hearth_mesh(0.2)
        T = np.full(mesh.num_nodes, 1000.0)
        _, report = mechanical.solve_mechanical(
            mesh, hearth_materials, hearth_mechanical_bc(), T)
        [(_, _, _, residual)] = returned
        assert report.residuals == [residual]
        assert 0 < residual <= LU_RTOL


class TestAssembleCsr:
    def test_duplicates_summed(self):
        A = assemble_csr(CsrPattern.from_coo([0, 0, 1], [0, 0, 1], 2),
                         [1.0, 2.0, 5.0])
        assert A[0, 0] == 3.0
        assert A[1, 1] == 5.0
        assert A.has_sorted_indices
