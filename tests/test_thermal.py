"""Nonlinear heat conduction solver tests."""
import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from axitherm import thermal
from axitherm.fem_core import ConvergenceError
from axitherm.hearth import hearth_mesh, hearth_thermal_bc
from axitherm.materials import (MaterialSet, PiecewiseQuadratic,
                                uniform_materials)
from axitherm.mesh import (
    BoundaryTag,
    Mesh,
    SubdomainPolygon,
    generate_mesh,
)
from axitherm.thermal import (
    ADIABATIC,
    NewtonConfig,
    Robin,
    ThermalBC,
    ThermalProblem,
    assemble_thermal_jacobian,
    assemble_thermal_residual,
    newton_solve,
)


def _strip_mesh(h=0.25, r0=0.0, r1=1.0, y1=1.0):
    poly = SubdomainPolygon(1, ((r0, 0.0), (r1, 0.0), (r1, y1), (r0, y1)))
    return generate_mesh([poly], h)


def _const_materials(k=2.0):
    return uniform_materials(PiecewiseQuadratic.constant(k),
                             PiecewiseQuadratic.constant(1e9),
                             nu=0.3, alpha=1e-5)


ALL_ROBIN = {tag: Robin(100.0, 400.0) for tag in BoundaryTag}


class TestResidual:
    def test_single_triangle_hand_value(self):
        # reference triangle, k = 2, nodal T = (0, 1, 0): the r-weighted
        # conduction residual is (-1/3, 1/3, 0) by symbolic integration
        mesh = Mesh(nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                    triangles=np.array([[0, 1, 2]]),
                    tri_subdomain=np.array([1]),
                    boundary_edges=[(0, 1, BoundaryTag.BOTTOM),
                                    (1, 2, BoundaryTag.OUTER),
                                    (0, 2, BoundaryTag.AXIS)])
        bc = ThermalBC(dict.fromkeys(BoundaryTag, ADIABATIC))
        T = np.array([0.0, 1.0, 0.0])
        problem = ThermalProblem(mesh, _const_materials(2.0), bc)
        R = assemble_thermal_residual(problem, T)
        assert R == pytest.approx([-1 / 3, 1 / 3, 0.0], abs=1e-14)
        # with no Robin edge, J is the r-weighted k-stiffness alone
        J = assemble_thermal_jacobian(problem, T)
        expected = np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]]) / 3
        assert J.toarray() == pytest.approx(expected, abs=1e-14)

    def test_equilibrium_state_has_zero_residual(self):
        # T identically the ambient temperature of every Robin wall
        mesh = _strip_mesh()
        mats = _const_materials()
        bc = ThermalBC(ALL_ROBIN)
        T = np.full(mesh.num_nodes, 400.0)
        R = assemble_thermal_residual(ThermalProblem(mesh, mats, bc), T)
        assert np.allclose(R, 0.0, atol=1e-12)

    def test_missing_bc_raises(self):
        mesh = _strip_mesh()
        bc = ThermalBC({BoundaryTag.BOTTOM: Robin(10.0, 300.0)})
        with pytest.raises(ValueError, match="no thermal boundary condition"):
            ThermalProblem(mesh, _const_materials(), bc)

    def test_missing_material_raises(self):
        mesh = _strip_mesh()
        record = _const_materials().records[1]
        mats = MaterialSet(records={9: record})
        with pytest.raises(ValueError, match="no material record"):
            ThermalProblem(mesh, mats, ThermalBC(ALL_ROBIN))

    def test_source_evaluated_once_per_problem(self, rng):
        # the problem's load gives the residual, bit for bit, that a
        # fresh problem's evaluation of the source gives, and it is the
        # source-free residual less the r-weighted source integral
        mesh = _strip_mesh(h=0.2)
        mats, bc = _const_materials(), ThermalBC(ALL_ROBIN)
        calls = []

        def source(r, y):
            calls.append(r.shape)
            return 1e3 * (1.0 + r * np.sin(3.0 * y))

        problem = ThermalProblem(mesh, mats, bc, source)
        assert len(calls) == 1
        plain = ThermalProblem(mesh, mats, bc)
        for _ in range(3):
            T = 300.0 + 100.0 * rng.random(mesh.num_nodes)
            cached = assemble_thermal_residual(problem, T)
            fresh = assemble_thermal_residual(
                ThermalProblem(mesh, mats, bc, source), T)
            assert np.array_equal(cached, fresh)
            without = assemble_thermal_residual(plain, T)
            load = np.bincount(mesh.triangles.ravel(),
                               weights=problem.source_load.ravel(),
                               minlength=mesh.num_nodes)
            assert np.abs(without - cached - load).max() \
                <= 1e-12 * np.abs(without).max()
        # one evaluation per problem, none per residual
        assert len(calls) == 1 + 3
        calls.clear()
        newton_solve(mesh, mats, bc, source=source)
        assert len(calls) == 1


def _per_edge_ambient(mesh, bc):
    """Reference: T_R at the end nodes of each Robin edge, one ambient
    call per edge, in the order of the thermal edge data."""
    table = mesh.boundary_edge_table
    conds = table.conditions(bc.lookup)
    rows = [e for e, c in enumerate(conds) if isinstance(c, Robin)]
    ij = table.ij[rows]
    return np.array([conds[e].ambient(mesh.nodes[n, 0], mesh.nodes[n, 1])
                     for e, n in zip(rows, ij)])


class TestRobinEdges:
    def test_ambient_matches_per_edge_calls(self, coarse_hearth_mesh,
                                            hearth_materials):
        # callables of (r, y), one per side, and the hearth's constants
        import sympy
        from axitherm.verification import ThermalManufacturedCase
        r, y, T = sympy.symbols("r y T", positive=True)
        case = ThermalManufacturedCase(
            exact_expr=300 + 50 * r**2 + 20 * y * r,
            conductivity_expr=1 + sympy.Rational(1, 1000) * T)
        for mesh, mats, bc in ((_strip_mesh(h=0.125), _const_materials(),
                                case.boundary_conditions()),
                               (coarse_hearth_mesh, hearth_materials,
                                hearth_thermal_bc())):
            problem = ThermalProblem(mesh, mats, bc)
            assert np.array_equal(problem.robin_ambient,
                                  _per_edge_ambient(mesh, bc))


def _robin_terms(problem, T):
    """h (T - T_R) at each end node of each Robin edge, weighted by the
    lumped vertex rule: the residual's Robin terms."""
    return problem.robin_weight * (T[problem.robin_ij] - problem.robin_ambient)


class TestHeatBalance:
    """The conduction terms of each element sum to zero, so the
    residual's rows sum to the net Robin heat, and at the solution the
    heat that enters the wall leaves it."""

    @pytest.fixture(scope="class", params=[0.1, 0.05])
    def hearth(self, request, hearth_materials):
        mesh = hearth_mesh(request.param)
        bc = hearth_thermal_bc()
        T, _ = newton_solve(mesh, hearth_materials, bc)
        return ThermalProblem(mesh, hearth_materials, bc), T

    @staticmethod
    def _inflow(q):
        # the heat into the wall: the Robin terms with T below T_R
        inflow = -q[q < 0].sum()
        assert inflow > 0
        return inflow

    def test_residual_sums_to_robin_heat(self, hearth, rng):
        problem, _ = hearth
        T = 300.0 + 1500.0 * rng.random(problem.mesh.num_nodes)
        q = _robin_terms(problem, T)
        R = assemble_thermal_residual(problem, T)
        assert abs(R.sum() - q.sum()) <= 1e-12 * self._inflow(q)

    def test_net_robin_heat_vanishes_at_the_solution(self, hearth):
        problem, T = hearth
        q = _robin_terms(problem, T)
        assert abs(q.sum()) <= 1e-10 * self._inflow(q)


class TestJacobian:
    def test_symmetric_for_constant_k(self):
        mesh = _strip_mesh()
        T = np.linspace(300.0, 600.0, mesh.num_nodes)
        J = assemble_thermal_jacobian(
            ThermalProblem(mesh, _const_materials(), ThermalBC(ALL_ROBIN)), T)
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
        problem = ThermalProblem(mesh, mats, bc)
        J = assemble_thermal_jacobian(problem, T)
        eps = 1e-5
        for _ in range(5):
            d = rng.standard_normal(mesh.num_nodes)
            d /= np.linalg.norm(d)
            Rp = assemble_thermal_residual(problem, T + eps * d)
            Rm = assemble_thermal_residual(problem, T - eps * d)
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

    def test_config_has_two_fields(self):
        # the start is newton_solve's ``start`` argument, the uniform
        # NEWTON_START without one, and the step cap the constant
        # NEWTON_MAX_ITER
        assert [f.name for f in dataclasses.fields(NewtonConfig)] == [
            "abs_tol", "relative"]

    def test_config_is_frozen(self):
        # an assignment would skip __post_init__'s check, and one config
        # is shared by every verification study
        config = NewtonConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.abs_tol = -1.0

    @pytest.mark.parametrize("columns", [None, 2], ids=["short", "2d"])
    def test_start_of_the_wrong_length_raises(self, columns):
        # a start with two columns is rejected here, not by an einsum of
        # the assembly
        mesh = _strip_mesh()
        n = mesh.num_nodes
        shape, rows = ((3,), 3) if columns is None else ((n, columns), 2 * n)
        with pytest.raises(ValueError, match=rf"^start has {rows} rows, the "
                           rf"mesh has {n} nodes"):
            newton_solve(mesh, _const_materials(), ThermalBC(ALL_ROBIN),
                         start=np.full(shape, 400.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_start_names_its_first_node(self, bad):
        mesh = _strip_mesh()
        start = np.full(mesh.num_nodes, 400.0)
        start[[5, 7]] = bad
        with pytest.raises(ValueError, match=rf"^start is not finite at node 5: "
                           rf"{bad}"):
            newton_solve(mesh, _const_materials(), ThermalBC(ALL_ROBIN),
                         start=start)

    def test_start_is_copied(self):
        # the solution itself as the start: no step is taken, and the
        # field returned is still not the caller's array
        mesh = _strip_mesh()
        start = np.full(mesh.num_nodes, 400.0)
        T, report = newton_solve(mesh, _const_materials(), ThermalBC(ALL_ROBIN),
                                 start=start)
        assert report.iterations == 0
        assert not np.shares_memory(T, start)
        T[:] = 0.0
        assert np.all(start == 400.0)

    def test_start_is_not_written(self):
        mesh = _strip_mesh()
        start = np.full(mesh.num_nodes, 350.0)
        start.setflags(write=False)
        T, report = newton_solve(mesh, _const_materials(), ThermalBC(ALL_ROBIN),
                                 NewtonConfig(abs_tol=1e-10), start=start)
        assert report.iterations == 1
        assert np.allclose(T, 400.0, atol=1e-8)
        assert np.all(start == 350.0)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(thermal, "NEWTON_MAX_ITER", 2)
        mesh = _strip_mesh()
        with pytest.raises(ConvergenceError, match="in 2 iterations"):
            newton_solve(mesh, _const_materials(), ThermalBC(ALL_ROBIN),
                         NewtonConfig(abs_tol=1e-30))

    def test_non_finite_residual_raises(self):
        # a NaN residual norm used to compare as converged (nan > tol is
        # False) and return a NaN field after 0 iterations
        mesh = _strip_mesh()
        nan_ambient = {tag: Robin(100.0, float("nan")) for tag in ALL_ROBIN}
        with pytest.raises(ConvergenceError, match="not finite"):
            newton_solve(mesh, _const_materials(), ThermalBC(nan_ambient),
                         NewtonConfig())

    @pytest.mark.parametrize("field, value", [
        ("abs_tol", 0.0),
        ("abs_tol", -1e-4),
        ("abs_tol", float("nan")),
        ("abs_tol", float("inf")),
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
            l2 = weighted_l2_error(mesh, T, lambda r, y: exact(y))
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

    def test_report_dict_shape(self):
        mesh = _strip_mesh()
        _, report = newton_solve(mesh, _const_materials(), ThermalBC(ALL_ROBIN),
                                 NewtonConfig())
        d = dataclasses.asdict(report)
        # the order of the keys in the report files
        assert list(d) == ["iterations", "residuals", "converged",
                           "factorizations", "wall_time", "coarse_start"]
        assert d["converged"] is True
        assert d["coarse_start"] is None


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
    problem = ThermalProblem(mesh, materials, bc)
    T = np.full(mesh.num_nodes, 300.0)
    R = assemble_thermal_residual(problem, T)
    iterations = 0
    while np.linalg.norm(R) > abs_tol:
        J = assemble_thermal_jacobian(problem, T)
        T = T + spla.spsolve(J.tocsc(), -R)
        R = assemble_thermal_residual(problem, T)
        iterations += 1
    return T, iterations


class TestInexactNewton:
    """Chord steps on the last LU factor, a fresh LU when one contracts
    too little."""

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

    def test_fewer_factorizations_than_steps(self, hearth):
        mesh, mats, bc, T_ref = hearth
        T, report = newton_solve(mesh, mats, bc, NewtonConfig())
        assert report.factorizations < report.iterations
        assert report.residuals[-1] <= 1e-4
        self._assert_matches(T, T_ref)

    def test_step_short_of_the_contraction_refactors(self, hearth,
                                                     monkeypatch):
        # no chord step can cut the residual to 0 times the last one, so
        # every kept step is an exact Newton step on a fresh LU
        mesh, mats, bc, T_ref = hearth
        monkeypatch.setattr(thermal, "CHORD_CONTRACTION", 0.0)
        T, report = newton_solve(mesh, mats, bc, NewtonConfig())
        assert report.iterations == 5
        assert report.factorizations == 5
        self._assert_matches(T, T_ref)

    def test_chord_step_to_nan_refactors(self, hearth, monkeypatch):
        # a NaN residual norm fails the contraction test like a large one
        mesh, mats, bc, T_ref = hearth

        class NanFactor:
            def solve(self, b):
                return np.full_like(b, np.nan)

        exact = thermal.solve_lu

        def lu_with_nan_factor(*args):
            return exact(*args)[0], NanFactor()

        monkeypatch.setattr(thermal, "solve_lu", lu_with_nan_factor)
        T, report = newton_solve(mesh, mats, bc, NewtonConfig())
        assert report.iterations == 5
        assert report.factorizations == 5
        assert np.all(np.isfinite(report.residuals))
        self._assert_matches(T, T_ref)

    def test_stiff_start_reaches_the_exact_newton_solution(self):
        # far from the solution chord steps contract too little, so the
        # solve re-factors often but still within the step cap
        mesh, mats, bc = _stiff_strip()
        T_ref, iterations = _all_lu_newton(mesh, mats, bc, abs_tol=1e-8)
        assert iterations == 7
        T, report = newton_solve(mesh, mats, bc, NewtonConfig(abs_tol=1e-8))
        assert report.iterations <= thermal.NEWTON_MAX_ITER
        assert report.factorizations <= 7
        self._assert_matches(T, T_ref)
