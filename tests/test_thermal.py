"""Nonlinear heat conduction solver tests."""
import numpy as np
import pytest
import scipy.sparse.linalg as spla

from axitherm import thermal
from axitherm.cli import hearth_thermal_bc
from axitherm.fem_core import ConvergenceError
from axitherm.materials import PiecewiseQuadratic, uniform_materials
from axitherm.mesh import (
    BoundaryTag,
    Mesh,
    SubdomainPolygon,
    generate_mesh,
    hearth_mesh,
    tag_boundaries,
)
from axitherm.thermal import (
    ADIABATIC,
    NewtonConfig,
    Robin,
    ThermalBC,
    assemble_thermal_jacobian,
    assemble_thermal_residual,
    newton_solve,
)


def _strip_mesh(h=0.25, r0=0.0, r1=1.0, y1=1.0):
    poly = SubdomainPolygon(1, ((r0, 0.0), (r1, 0.0), (r1, y1), (r0, y1)))
    return tag_boundaries(generate_mesh([poly], h), [poly])


def _const_materials(k=2.0):
    return uniform_materials(PiecewiseQuadratic.constant(k),
                             PiecewiseQuadratic.constant(1e9),
                             nu=0.3, alpha=1e-5)


ALL_ROBIN = {tag: Robin(100.0, 400.0) for tag in BoundaryTag
             if tag is not BoundaryTag.INTERFACE}


class TestResidual:
    def test_single_triangle_hand_value(self):
        # reference triangle, k = 2, nodal T = (0, 1, 0): the r-weighted
        # conduction residual is (-1/3, 1/3, 0) by symbolic integration
        mesh = Mesh(nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                    triangles=np.array([[0, 1, 2]]),
                    tri_subdomain=np.array([1]),
                    boundary_edges=[])
        bc = ThermalBC({})
        R = assemble_thermal_residual(mesh, _const_materials(2.0), bc,
                                      np.array([0.0, 1.0, 0.0]))
        assert R == pytest.approx([-1 / 3, 1 / 3, 0.0], abs=1e-14)

    def test_equilibrium_state_has_zero_residual(self):
        # T identically the ambient temperature of every Robin wall
        mesh = _strip_mesh()
        mats = _const_materials()
        bc = ThermalBC(ALL_ROBIN)
        T = np.full(mesh.num_nodes, 400.0)
        R = assemble_thermal_residual(mesh, mats, bc, T)
        assert np.allclose(R, 0.0, atol=1e-12)

    def test_missing_bc_raises(self):
        mesh = _strip_mesh()
        bc = ThermalBC({BoundaryTag.BOTTOM: Robin(10.0, 300.0)})
        with pytest.raises(ValueError, match="no thermal boundary condition"):
            assemble_thermal_residual(mesh, _const_materials(), bc,
                                      np.full(mesh.num_nodes, 300.0))

    def test_missing_material_raises(self):
        mesh = _strip_mesh()
        mats = uniform_materials(PiecewiseQuadratic.constant(1.0),
                                 PiecewiseQuadratic.constant(1e9),
                                 nu=0.3, alpha=1e-5, subdomain_ids=(9,))
        with pytest.raises(ValueError, match="no material record"):
            assemble_thermal_residual(mesh, mats, ThermalBC(ALL_ROBIN),
                                      np.full(mesh.num_nodes, 300.0))


def _per_edge_ambient(mesh, bc):
    """Reference: T_R at the end nodes of each Robin edge, one ambient
    call per edge, in the order of the thermal edge data."""
    table = mesh.boundary_edge_table
    conds = table.conditions(bc.lookup)
    rows = [e for e, c in enumerate(conds) if isinstance(c, Robin)]
    ij = np.column_stack([table.i[rows], table.j[rows]])
    return np.array([conds[e].ambient(mesh.nodes[n, 0], mesh.nodes[n, 1])
                     for e, n in zip(rows, ij)])


class TestRobinEdges:
    def test_ambient_matches_per_edge_calls(self, coarse_hearth_mesh):
        # callables of (r, y), one per side, and the hearth's constants
        import sympy
        from axitherm.verification import ThermalManufacturedCase
        r, y, T = sympy.symbols("r y T", positive=True)
        case = ThermalManufacturedCase(
            exact_expr=300 + 50 * r**2 + 20 * y * r,
            conductivity_expr=1 + sympy.Rational(1, 1000) * T)
        for mesh, bc in ((_strip_mesh(h=0.125), case.boundary_conditions()),
                         (coarse_hearth_mesh, hearth_thermal_bc())):
            edges = thermal._RobinEdges.build(mesh, bc)
            assert np.array_equal(edges.ambient, _per_edge_ambient(mesh, bc))


class TestJacobian:
    def test_symmetric_for_constant_k(self):
        mesh = _strip_mesh()
        T = np.linspace(300.0, 600.0, mesh.num_nodes)
        J = assemble_thermal_jacobian(mesh, _const_materials(), ThermalBC(ALL_ROBIN), T)
        d = J - J.T
        assert abs(d).max() == 0.0

    def test_matches_finite_differences(self, rng):
        mesh = _strip_mesh(h=0.34)
        k_model = PiecewiseQuadratic(1.0, 2500.0, 5000.0,
                                     (1e-6, 1e-3, 1.0, 1e-6, 1e-3, 1.0))
        mats = uniform_materials(k_model, PiecewiseQuadratic.constant(1e9),
                                 nu=0.3, alpha=1e-5)
        bc = ThermalBC(ALL_ROBIN)
        T = 300.0 + 200.0 * rng.random(mesh.num_nodes)
        J = assemble_thermal_jacobian(mesh, mats, bc, T)
        eps = 1e-5
        for _ in range(5):
            d = rng.standard_normal(mesh.num_nodes)
            d /= np.linalg.norm(d)
            Rp = assemble_thermal_residual(mesh, mats, bc, T + eps * d)
            Rm = assemble_thermal_residual(mesh, mats, bc, T - eps * d)
            fd = (Rp - Rm) / (2 * eps)
            an = J @ d
            assert np.linalg.norm(fd - an) <= 1e-6 * np.linalg.norm(an)


class TestNewtonSolve:
    def test_linear_problem_converges_in_one_step(self):
        mesh = _strip_mesh()
        T, report = newton_solve(mesh, _const_materials(), ThermalBC(ALL_ROBIN),
                                 NewtonConfig(abs_tol=1e-10))
        assert report.iterations == 1
        assert report.converged
        assert np.allclose(T, 400.0, atol=1e-8)

    def test_report_residuals_decrease(self):
        mesh = _strip_mesh(h=0.2, r0=1.0, r1=2.0, y1=0.4)
        k_model = PiecewiseQuadratic(1.0, 2500.0, 5000.0,
                                     (0.0, 1e-2, 1.0, 0.0, 1e-2, 1.0))
        mats = uniform_materials(k_model, PiecewiseQuadratic.constant(1e9),
                                 nu=0.3, alpha=1e-5)
        bc = ThermalBC({
            BoundaryTag.INNER: Robin(500.0, 1500.0),
            BoundaryTag.OUTER: Robin(50.0, 300.0),
            BoundaryTag.AXIS: ADIABATIC,
            BoundaryTag.TOP: ADIABATIC,
            BoundaryTag.BOTTOM: Robin(50.0, 300.0),
        })
        T, report = newton_solve(mesh, mats, bc, NewtonConfig(abs_tol=1e-8))
        assert report.residuals[-1] <= 1e-8
        assert report.residuals[0] > report.residuals[-1]
        assert report.linear_solves == report.iterations

    def test_iteration_cap_raises(self):
        mesh = _strip_mesh()
        with pytest.raises(ConvergenceError, match="Newton"):
            newton_solve(mesh, _const_materials(), ThermalBC(ALL_ROBIN),
                         NewtonConfig(abs_tol=1e-30, max_iter=2))

    def test_non_finite_residual_raises(self):
        # a NaN residual norm used to compare as converged (nan > tol is
        # False) and return a NaN field after 0 iterations
        mesh = _strip_mesh()
        nan_ambient = {tag: Robin(100.0, float("nan")) for tag in ALL_ROBIN}
        with pytest.raises(ConvergenceError, match="not finite"):
            newton_solve(mesh, _const_materials(), ThermalBC(nan_ambient),
                         NewtonConfig())

    @pytest.mark.parametrize("field, value", [
        ("initial_guess", float("nan")),
        ("initial_guess", float("inf")),
        ("abs_tol", 0.0),
        ("abs_tol", -1e-4),
        ("abs_tol", float("nan")),
        ("abs_tol", float("inf")),
        ("max_iter", 0),
    ])
    def test_config_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            NewtonConfig(**{field: value})

    def test_callable_ambient(self):
        # manufactured linear profile T = 300 + 50 y via matching Robin
        # data; the lumped edge rule leaves an O(h^2) consistency error,
        # so the check is a refinement one
        k = 2.0
        h_conv = 100.0
        exact = lambda y: 300.0 + 50.0 * y
        bc = ThermalBC({
            BoundaryTag.AXIS: ADIABATIC,
            BoundaryTag.OUTER: ADIABATIC,
            BoundaryTag.BOTTOM: Robin(h_conv,
                                      lambda r, y: exact(0.0) - k * 50.0 / h_conv),
            BoundaryTag.TOP: Robin(h_conv,
                                   lambda r, y: exact(1.0) + k * 50.0 / h_conv),
            BoundaryTag.INNER: ADIABATIC,
        })
        from axitherm.verification import weighted_l2_error
        errors = []
        for h in (0.2, 0.1, 0.05):
            mesh = _strip_mesh(h=h)
            T, _ = newton_solve(mesh, _const_materials(k), bc,
                                NewtonConfig(abs_tol=1e-12, relative=True))
            l2, _ = weighted_l2_error(mesh, T, lambda r, y: exact(y))
            errors.append(l2)
        assert errors[2] < errors[0] / 10.0
        assert errors[2] < 0.1

    def test_maximum_principle_on_annular_strip(self):
        mesh = _strip_mesh(h=0.1, r0=1.0, r1=2.0, y1=0.2)
        bc = ThermalBC({
            BoundaryTag.INNER: Robin(1000.0, 1700.0),
            BoundaryTag.OUTER: Robin(100.0, 300.0),
            BoundaryTag.TOP: ADIABATIC,
            BoundaryTag.BOTTOM: ADIABATIC,
        })
        T, _ = newton_solve(mesh, _const_materials(), bc, NewtonConfig())
        assert T.min() >= 300.0 - 1e-9
        assert T.max() <= 1700.0 + 1e-9

    def test_backtracking_path_still_converges(self):
        mesh = _strip_mesh(h=0.25)
        cfg = NewtonConfig(abs_tol=1e-10, backtracking=True)
        T, report = newton_solve(mesh, _const_materials(), ThermalBC(ALL_ROBIN), cfg)
        assert report.converged
        assert np.allclose(T, 400.0, atol=1e-8)

    def test_report_dict_shape(self):
        mesh = _strip_mesh()
        _, report = newton_solve(mesh, _const_materials(), ThermalBC(ALL_ROBIN),
                                 NewtonConfig())
        d = report.as_dict()
        assert set(d) == {"iterations", "residuals", "converged",
                          "linear_solves", "factorizations", "gmres_steps",
                          "backtrack_exhausted", "wall_time"}
        assert d["converged"] is True

    def test_backtracking_exhaustion_is_reported(self, monkeypatch):
        # neither the full nor the half Newton step lowers the residual
        mesh, mats, bc = _stiff_strip()
        cfg = NewtonConfig(abs_tol=1e-8, backtracking=True, max_iter=40)
        _, report = newton_solve(mesh, mats, bc, cfg)
        assert not report.backtrack_exhausted
        monkeypatch.setattr(thermal, "MAX_HALVINGS", 1)
        _, report = newton_solve(mesh, mats, bc, cfg)
        assert report.backtrack_exhausted
        assert report.as_dict()["backtrack_exhausted"] is True
        assert report.converged


def _stiff_strip():
    """k rises from 1 to 1201 W/(m K) between 300 and 1500 K, so a 300 K
    start against a 1500 K wall is far from the solution."""
    mesh = _strip_mesh(h=0.2, r0=1.0, r1=2.0, y1=0.4)
    k_model = PiecewiseQuadratic(300.0, 1000.0, 2000.0,
                                 (0.0, 1.0, -299.0, 0.0, 1.0, -299.0))
    mats = uniform_materials(k_model, PiecewiseQuadratic.constant(1e9),
                             nu=0.3, alpha=1e-5)
    bc = ThermalBC({
        BoundaryTag.INNER: Robin(5000.0, 1500.0),
        BoundaryTag.OUTER: Robin(50.0, 300.0),
        BoundaryTag.AXIS: ADIABATIC,
        BoundaryTag.TOP: ADIABATIC,
        BoundaryTag.BOTTOM: Robin(50.0, 300.0),
    })
    return mesh, mats, bc


def _all_lu_newton(mesh, materials, bc, abs_tol=1e-4):
    """Reference: full Newton with a fresh sparse LU every step."""
    T = np.full(mesh.num_nodes, 300.0)
    R = assemble_thermal_residual(mesh, materials, bc, T)
    iterations = 0
    while np.linalg.norm(R) > abs_tol:
        J = assemble_thermal_jacobian(mesh, materials, bc, T)
        T = T + spla.spsolve(J.tocsc(), -R)
        R = assemble_thermal_residual(mesh, materials, bc, T)
        iterations += 1
    return T, iterations


class TestInexactNewton:
    """One LU per Newton solve; later steps by GMRES on that factor."""

    @pytest.fixture(scope="class")
    def hearth(self, hearth_materials):
        mesh = hearth_mesh(0.1)
        bc = hearth_thermal_bc()
        T_ref, iterations = _all_lu_newton(mesh, hearth_materials, bc)
        assert iterations == 5
        return mesh, hearth_materials, bc, T_ref

    @staticmethod
    def _assert_matches(T, T_ref):
        assert np.abs(T - T_ref).max() <= 1e-9 * np.abs(T_ref).max()

    def test_one_factorization_per_solve(self, hearth):
        mesh, mats, bc, T_ref = hearth
        T, report = newton_solve(mesh, mats, bc, NewtonConfig())
        assert report.iterations == 5
        assert report.factorizations == 1
        assert report.gmres_steps > 0
        assert report.linear_solves == 5
        assert report.residuals[-1] <= 1e-4
        self._assert_matches(T, T_ref)

    def test_missed_gmres_step_refactors(self, hearth, monkeypatch):
        mesh, mats, bc, T_ref = hearth
        monkeypatch.setattr(thermal, "gmres",
                            lambda A, b, **kwargs: (np.zeros_like(b), 0))
        T, report = newton_solve(mesh, mats, bc, NewtonConfig())
        assert report.iterations == 5
        assert report.factorizations == 5
        assert report.gmres_steps == 0
        self._assert_matches(T, T_ref)

    def test_stiff_start_takes_exact_newton_iterations(self):
        # inexact steps that stopped early on the far-off start would
        # leave Newton more iterations than exact steps need
        mesh, mats, bc = _stiff_strip()
        T_ref, iterations = _all_lu_newton(mesh, mats, bc, abs_tol=1e-8)
        assert iterations == 7
        for backtracking, expected in ((False, 7), (True, 8)):
            cfg = NewtonConfig(abs_tol=1e-8, backtracking=backtracking)
            T, report = newton_solve(mesh, mats, bc, cfg)
            assert report.iterations == expected
            self._assert_matches(T, T_ref)
