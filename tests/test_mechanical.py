"""Thermoelastic solver and stress recovery tests."""
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import sympy

from axitherm.cli import hearth_mechanical_bc
from axitherm.fem_core import SingularSystemError, triangle_rule
from axitherm.materials import (
    PiecewiseQuadratic,
    elasticity_matrix,
    uniform_materials,
)
from axitherm.mechanical import (
    FRICTIONLESS_CONTACT,
    HYDROSTATIC_SLOPE,
    MechanicalBC,
    TRACTION_FREE,
    Traction,
    assemble_mechanical_system,
    hydrostatic_bc,
    hydrostatic_traction,
    recover_stress,
    solve_mechanical,
)
from axitherm.mesh import (
    BoundaryTag,
    Mesh,
    SubdomainPolygon,
    generate_mesh,
    hearth_mesh,
    tag_boundaries,
)
from axitherm.verification import MechanicalManufacturedCase


def _cylinder_mesh(h=0.25, r1=1.0, y1=2.0):
    poly = SubdomainPolygon(1, ((0.0, 0.0), (r1, 0.0), (r1, y1), (0.0, y1)))
    return tag_boundaries(generate_mesh([poly], h), [poly])


def _materials(E=2e9, nu=0.3, alpha=1e-5):
    return uniform_materials(PiecewiseQuadratic.constant(10.0),
                             PiecewiseQuadratic.constant(E),
                             nu=nu, alpha=alpha, T0=300.0)


def boundary_stress_components(mesh, field, tag):
    """Normal and tangential traction on each edge carrying ``tag``.

    Returns a list of (edge, sigma_n, tangential traction vector) using
    the adjacent element's recovered stress.
    """
    table = mesh.boundary_edge_table
    rows = np.flatnonzero([t is tag for t in table.tags])
    n = table.normal[rows]
    s = field.stress[table.owner[rows]]
    traction = np.column_stack([
        s[:, 0] * n[:, 0] + s[:, 3] * n[:, 1],
        s[:, 3] * n[:, 0] + s[:, 1] * n[:, 1],
    ])
    sigma_n = traction[:, 0] * n[:, 0] + traction[:, 1] * n[:, 1]
    tangential = traction - sigma_n[:, None] * n
    return [((int(table.i[e]), int(table.j[e])), float(sn), tan)
            for e, sn, tan in zip(rows, sigma_n, tangential)]


BASE_BC = MechanicalBC({
    BoundaryTag.AXIS: FRICTIONLESS_CONTACT,
    BoundaryTag.BOTTOM: FRICTIONLESS_CONTACT,
    BoundaryTag.TOP: TRACTION_FREE,
    BoundaryTag.OUTER: TRACTION_FREE,
    BoundaryTag.INNER: TRACTION_FREE,
})


class TestElementStrain:
    """Centroid strain that recover_stress gives a single element."""

    TRI = np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])

    def _strain(self, u):
        mesh = Mesh(nodes=self.TRI, triangles=np.array([[0, 1, 2]]),
                    tri_subdomain=np.array([1]))
        T = np.full(3, 300.0)
        return recover_stress(mesh, _materials(), T, u).strain[0]

    def test_linear_displacement(self):
        # u_r = 0.01 r, u_y = -0.02 y: e_rr = 0.01, e_yy = -0.02,
        # e_tt = u_r / r = 0.01, g_ry = 0
        u = np.column_stack([0.01 * self.TRI[:, 0], -0.02 * self.TRI[:, 1]])
        assert self._strain(u) == pytest.approx([0.01, -0.02, 0.01, 0.0])

    def test_shear_strain(self):
        u = np.column_stack([0.005 * self.TRI[:, 1], np.zeros(3)])
        assert self._strain(u)[3] == pytest.approx(0.005)


class TestHydrostaticLoad:
    def test_linear_in_depth(self):
        assert hydrostatic_traction(7.4, 7.4) == 0.0
        assert hydrostatic_traction(0.0, 7.4) == pytest.approx(
            HYDROSTATIC_SLOPE * 7.4)

    def test_above_surface_rejected(self):
        with pytest.raises(ValueError):
            hydrostatic_traction(8.0, 7.4)

    def test_traction_points_against_normal(self):
        bc = hydrostatic_bc(7.4)
        g = bc.evaluate(1.0, 3.4, np.array([1.0, 0.0]))
        assert g[0] == pytest.approx(-HYDROSTATIC_SLOPE * 4.0)
        assert g[1] == 0.0


class TestSolveMechanical:
    def test_free_thermal_expansion_is_stress_free(self):
        mesh = _cylinder_mesh(h=0.25)
        mats = _materials()
        T = np.full(mesh.num_nodes, 800.0)
        u, _ = solve_mechanical(mesh, mats, BASE_BC, T)
        # u = alpha dT (r, y) is the exact stress-free expansion
        expect = 1e-5 * 500.0 * mesh.nodes
        assert np.allclose(u, expect, atol=1e-12)
        field = recover_stress(mesh, mats, T, u)
        assert np.abs(field.stress).max() <= 1e-9 * 2e9 * 1e-5 * 500.0

    def test_report_gives_relative_residual(self):
        mesh = _cylinder_mesh(h=0.25)
        mats = _materials()
        T = 300.0 + 500.0 * mesh.nodes[:, 0]
        u, report = solve_mechanical(mesh, mats, BASE_BC, T)
        K, f, _ = assemble_mechanical_system(mesh, mats, BASE_BC, T)
        rel = np.linalg.norm(K @ u.ravel() - f) / np.linalg.norm(f)
        assert report.residuals == [pytest.approx(rel, rel=1e-6, abs=1e-18)]
        assert report.residuals[0] <= 1e-10
        assert report.factorizations == 1

    def test_uniform_pressure_on_outer_wall(self):
        # plane-strain-like radial compression: with u_y fixed top and
        # bottom and pressure p on the outer wall, sigma_rr = sigma_tt = -p
        mesh = _cylinder_mesh(h=0.25)
        mats = _materials(nu=0.25)
        p = 1e6
        bc = MechanicalBC({
            BoundaryTag.AXIS: FRICTIONLESS_CONTACT,
            BoundaryTag.BOTTOM: FRICTIONLESS_CONTACT,
            BoundaryTag.TOP: FRICTIONLESS_CONTACT,
            BoundaryTag.OUTER: Traction(lambda r, y, n: -p * np.asarray(n)),
            BoundaryTag.INNER: TRACTION_FREE,
        })
        T = np.full(mesh.num_nodes, 300.0)
        u, _ = solve_mechanical(mesh, mats, bc, T)
        field = recover_stress(mesh, mats, T, u)
        assert np.allclose(field.stress[:, 0], -p, rtol=1e-6)
        assert np.allclose(field.stress[:, 2], -p, rtol=1e-6)
        assert np.allclose(field.stress[:, 3], 0.0, atol=1e-3 * p)

    def test_stiffness_symmetric(self):
        mesh = _cylinder_mesh(h=0.5)
        T = np.full(mesh.num_nodes, 300.0)
        K, _, _ = assemble_mechanical_system(mesh, _materials(), BASE_BC, T)
        d = K - K.T
        assert abs(d).max() == 0.0

    def test_stiffness_matches_dense_element_oracle(
            self, hearth_materials, eliminate_by_products, rng):
        mesh = hearth_mesh(0.2)
        T = 300.0 + 1200.0 * rng.random(mesh.num_nodes)
        K, _, fixed = assemble_mechanical_system(
            mesh, hearth_materials, hearth_mechanical_bc(), T)
        # sum_q w_q E_q B_q^T C B_q per element, with B_q the full 4 x 6
        # strain-displacement matrix over (u_r, u_y) of each vertex
        tris = mesh.triangles
        p = mesh.nodes[tris]                                  # (M, 3, 2)
        jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
        grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]) \
            @ np.linalg.inv(jac)                              # (M, 3, 2)
        rule = triangle_rule(3)
        r_q = p[:, :, 0] @ rule.points.T                      # (M, Q)
        w_q = rule.weights * np.linalg.det(jac)[:, None] * r_q
        T_q = T[tris] @ rule.points.T
        E_q = np.empty_like(T_q)
        C = np.empty((len(tris), 4, 4))
        for sid in np.unique(mesh.tri_subdomain):
            on = mesh.tri_subdomain == sid
            E_q[on] = hearth_materials[sid].E(T_q[on])
            C[on] = elasticity_matrix(1.0, hearth_materials[sid].nu)
        B = np.zeros(T_q.shape + (4, 6))
        B[:, :, 0, 0::2] = grads[:, None, :, 0]
        B[:, :, 1, 1::2] = grads[:, None, :, 1]
        B[:, :, 2, 0::2] = rule.points / r_q[:, :, None]
        B[:, :, 3, 0::2] = grads[:, None, :, 1]
        B[:, :, 3, 1::2] = grads[:, None, :, 0]
        Ke = np.einsum("mq,mqki,mkl,mqlj->mij", w_q * E_q, B, C, B)
        dofs = (2 * tris[:, :, None] + np.arange(2)).reshape(-1, 6)
        n = 2 * mesh.num_nodes
        raw = sp.coo_matrix((Ke.ravel(), (np.repeat(dofs, 6, axis=1).ravel(),
                                          np.tile(dofs, (1, 6)).ravel())),
                            shape=(n, n)).tocsr()
        ref, _ = eliminate_by_products(raw, np.zeros(n), fixed)
        assert abs(K - ref).max() <= 1e-14 * abs(ref).max()

    def test_assembly_transient_memory_per_triangle(self):
        # tracemalloc high-water mark of one assembly on a warm workspace,
        # the returned K and f included: about 720 bytes per triangle,
        # with room left for allocator and library differences
        mesh = _cylinder_mesh(h=1 / 32, y1=1.0)
        mats = _materials()
        T = 300.0 + 200.0 * mesh.nodes[:, 0]
        assemble_mechanical_system(mesh, mats, BASE_BC, T)
        tracemalloc.start()
        try:
            assemble_mechanical_system(mesh, mats, BASE_BC, T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(mesh.triangles) <= 1000

    def test_contact_constraints_exact_zero(self):
        mesh = _cylinder_mesh(h=0.25)
        T = np.full(mesh.num_nodes, 900.0)
        u, _ = solve_mechanical(mesh, _materials(), BASE_BC, T)
        on_axis = mesh.nodes[:, 0] == 0.0
        on_bottom = mesh.nodes[:, 1] == 0.0
        assert np.all(u[on_axis, 0] == 0.0)
        assert np.all(u[on_bottom, 1] == 0.0)

    def test_prescribed_displacements_exact(self):
        # nonzero Dirichlet data on every exterior node of the MMS square
        r, y = sympy.symbols("r y", positive=True)
        case = MechanicalManufacturedCase(
            ur_expr=sympy.Rational(1, 10000) * r * y,
            uy_expr=sympy.Rational(1, 10000) * r**2,
            delta_T_expr=100 * r)
        mesh = _cylinder_mesh(h=1 / 16, y1=1.0)
        pinned = case.dirichlet_constraints(mesh)
        bc = MechanicalBC({tag: TRACTION_FREE for tag in BoundaryTag})
        u, _ = solve_mechanical(mesh, case.material_set(), bc,
                                case.temperature(mesh),
                                body_force=case.body_force,
                                extra_constraints=pinned)
        nodes = np.unique([node for node, _ in pinned])
        exact = case.exact(mesh.nodes[nodes, 0], mesh.nodes[nodes, 1])
        assert np.count_nonzero(exact) > 0
        assert np.array_equal(u[nodes], exact)

    def test_unconstrained_axial_mode_rejected(self):
        mesh = _cylinder_mesh(h=0.5)
        bc = MechanicalBC({tag: TRACTION_FREE for tag in BoundaryTag})
        T = np.full(mesh.num_nodes, 400.0)
        with pytest.raises(SingularSystemError, match="rigid"):
            assemble_mechanical_system(mesh, _materials(), bc, T)

    def test_contact_dofs_match_per_edge_rule(self, hearth_materials):
        mesh = hearth_mesh(0.2)
        bc = hearth_mechanical_bc()
        expected = set()
        # the rule edge by edge: u_r on the axis and on vertical contact
        # edges, u_y on horizontal ones
        for i, j, tag in mesh.boundary_edges:
            if tag is None or tag is BoundaryTag.INTERFACE:
                continue
            axis = tag is BoundaryTag.AXIS
            if not (axis or bc.lookup(tag) == FRICTIONLESS_CONTACT):
                continue
            dr, dy = mesh.nodes[j] - mesh.nodes[i]
            comp = 0 if axis or abs(dy) > abs(dr) else 1
            expected |= {2 * i + comp, 2 * j + comp}
        T = np.full(mesh.num_nodes, 300.0)
        _, _, fixed = assemble_mechanical_system(mesh, hearth_materials, bc, T)
        assert set(fixed) == expected
        assert set(fixed.values()) == {0.0}

    def test_extra_constraints_override_contact(self):
        mesh = _cylinder_mesh(h=0.5)
        T = np.full(mesh.num_nodes, 300.0)
        bottom = int(np.flatnonzero(mesh.nodes[:, 1] == 0.0)[-1])
        _, f, fixed = assemble_mechanical_system(
            mesh, _materials(), BASE_BC, T, extra_constraints={(bottom, 1): 0.25})
        assert fixed[2 * bottom + 1] == 0.25
        assert f[2 * bottom + 1] == 0.25

    def test_missing_tag_raises(self):
        mesh = _cylinder_mesh(h=0.5)
        bc = MechanicalBC({BoundaryTag.AXIS: FRICTIONLESS_CONTACT})
        T = np.full(mesh.num_nodes, 300.0)
        with pytest.raises(ValueError, match="no mechanical boundary condition"):
            assemble_mechanical_system(mesh, _materials(), bc, T)

    def test_one_way_coupling_leaves_temperature_untouched(self):
        mesh = _cylinder_mesh(h=0.5)
        T = np.linspace(300.0, 700.0, mesh.num_nodes)
        T_copy = T.copy()
        solve_mechanical(mesh, _materials(), BASE_BC, T)
        assert np.array_equal(T, T_copy)

    def test_temperature_dependent_modulus_enters_stiffness(self):
        mesh = _cylinder_mesh(h=0.5)
        E_model = PiecewiseQuadratic(1.0, 2500.0, 5000.0,
                                     (0.0, -1e5, 2e9, 0.0, -1e5, 2e9))
        mats = uniform_materials(PiecewiseQuadratic.constant(10.0), E_model,
                                 nu=0.3, alpha=1e-5, T0=300.0)
        K_cold, _, _ = assemble_mechanical_system(
            mesh, mats, BASE_BC, np.full(mesh.num_nodes, 300.0))
        K_hot, _, _ = assemble_mechanical_system(
            mesh, mats, BASE_BC, np.full(mesh.num_nodes, 1300.0))
        # probe an unconstrained dof: u_r of an interior node
        interior = np.flatnonzero(
            (mesh.nodes[:, 0] > 0) & (mesh.nodes[:, 0] < 1.0)
            & (mesh.nodes[:, 1] > 0) & (mesh.nodes[:, 1] < 2.0))[0]
        dof = 2 * interior
        ratio = K_hot.diagonal()[dof] / K_cold.diagonal()[dof]
        assert ratio == pytest.approx(E_model(1300.0) / E_model(300.0), rel=1e-9)


class TestStressRecovery:
    def test_element_temperature_is_quadrature_average(self):
        mesh = _cylinder_mesh(h=0.5)
        T = 300.0 + 100.0 * mesh.nodes[:, 1]
        field = recover_stress(mesh, _materials(), T,
                               np.zeros((mesh.num_nodes, 2)))
        # for a linear T the quadrature average equals the centroid value
        centroids = mesh.nodes[mesh.triangles].mean(axis=1)
        assert np.allclose(field.element_temperature,
                           300.0 + 100.0 * centroids[:, 1])

    def test_boundary_stress_components(self):
        mesh = _cylinder_mesh(h=0.25)
        mats = _materials(nu=0.25)
        p = 2e6
        bc = MechanicalBC({
            BoundaryTag.AXIS: FRICTIONLESS_CONTACT,
            BoundaryTag.BOTTOM: FRICTIONLESS_CONTACT,
            BoundaryTag.TOP: FRICTIONLESS_CONTACT,
            BoundaryTag.OUTER: Traction(lambda r, y, n: -p * np.asarray(n)),
            BoundaryTag.INNER: TRACTION_FREE,
        })
        T = np.full(mesh.num_nodes, 300.0)
        u, _ = solve_mechanical(mesh, mats, bc, T)
        field = recover_stress(mesh, mats, T, u)
        comps = boundary_stress_components(mesh, field, BoundaryTag.OUTER)
        assert len(comps) > 0
        for (_, sigma_n, tangential) in comps:
            assert sigma_n == pytest.approx(-p, rel=1e-6)
            assert np.linalg.norm(tangential) <= 1e-5 * p

    def test_contact_tangential_reaction_vanishes_under_refinement(self):
        # weak frictionless enforcement: the integrated tangential
        # traction on the bottom contact face tends to zero with h
        totals = []
        for h in (0.5, 0.25, 0.125):
            mesh = _cylinder_mesh(h=h)
            mats = _materials()
            T = 300.0 + 200.0 * mesh.nodes[:, 0]
            u, _ = solve_mechanical(mesh, mats, BASE_BC, T)
            field = recover_stress(mesh, mats, T, u)
            comps = boundary_stress_components(mesh, field, BoundaryTag.BOTTOM)
            tot = 0.0
            for ((i, j), _, tangential) in comps:
                length = np.linalg.norm(mesh.nodes[j] - mesh.nodes[i])
                r_mid = 0.5 * (mesh.nodes[i][0] + mesh.nodes[j][0])
                tot += np.linalg.norm(tangential) * length * r_mid
            totals.append(tot)
        assert totals[2] < totals[0]
