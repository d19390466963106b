"""Thermoelastic solver and stress recovery tests."""
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import sympy

from axitherm.fem_core import (
    EDGE_GAUSS_POINTS,
    EDGE_GAUSS_WEIGHTS,
    SingularSystemError,
    _norm,
    apply_constraints,
    triangle_rule,
)
from axitherm.hearth import hearth_mechanical_bc, hearth_mesh, hearth_thermal_bc
from axitherm.isoline import extract_isoline
from axitherm.materials import (
    PiecewiseQuadratic,
    elasticity_matrix,
    uniform_materials,
)
from axitherm.mechanical import (
    FRICTIONLESS_CONTACT,
    Displacement,
    MechanicalBC,
    TRACTION_FREE,
    Traction,
    assemble_mechanical_system,
    recover_stress,
    solve_mechanical,
)
from axitherm.mesh import (
    BoundaryTag,
    Mesh,
    SubdomainPolygon,
    generate_mesh,
    tag_boundaries,
)
from axitherm.thermal import (
    ThermalBC,
    ThermalProblem,
    assemble_thermal_jacobian,
    assemble_thermal_residual,
    newton_solve,
)
from axitherm.verification import MechanicalManufacturedCase


def _cylinder_mesh(h=0.25, r1=1.0, y1=2.0):
    poly = SubdomainPolygon(1, ((0.0, 0.0), (r1, 0.0), (r1, y1), (0.0, y1)))
    return generate_mesh([poly], h)


def _materials(E=2e9, nu=0.3, alpha=1e-5):
    return uniform_materials(PiecewiseQuadratic.constant(10.0),
                             PiecewiseQuadratic.constant(E),
                             nu=nu, alpha=alpha, T0=300.0)


def boundary_stress_components(mesh, stress, tag):
    """Normal and tangential traction on each edge carrying ``tag``.

    Returns a list of (edge, sigma_n, tangential traction vector) using
    the adjacent element's recovered stress.
    """
    table = mesh.boundary_edge_table
    rows = np.flatnonzero(table.tags == tag)
    n = table.normal[rows]
    s = stress[table.owner[rows]]
    traction = np.column_stack([
        s[:, 0] * n[:, 0] + s[:, 3] * n[:, 1],
        s[:, 3] * n[:, 0] + s[:, 1] * n[:, 1],
    ])
    sigma_n = traction[:, 0] * n[:, 0] + traction[:, 1] * n[:, 1]
    tangential = traction - sigma_n[:, None] * n
    return [(tuple(table.ij[e].tolist()), float(sn), tan)
            for e, sn, tan in zip(rows, sigma_n, tangential)]


BASE_BC = MechanicalBC({
    BoundaryTag.AXIS: FRICTIONLESS_CONTACT,
    BoundaryTag.BOTTOM: FRICTIONLESS_CONTACT,
    BoundaryTag.TOP: TRACTION_FREE,
    BoundaryTag.OUTER: TRACTION_FREE,
    BoundaryTag.INNER: TRACTION_FREE,
})


class TestElementStrain:
    """Centroid strain of a single element, read back from the stress
    that recover_stress gives it."""

    TRI = np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])

    def _strain(self, u):
        mesh = Mesh(nodes=self.TRI, triangles=np.array([[0, 1, 2]]),
                    tri_subdomain=np.array([1]))
        T = np.full(3, 300.0)
        stress = recover_stress(mesh, _materials(), T, u)[0]
        # at T = T0 there is no thermal stress: strain = C^-1 stress / E
        return np.linalg.solve(elasticity_matrix(1.0, 0.3), stress) / 2e9

    def test_linear_displacement(self):
        # u_r = 0.01 r, u_y = -0.02 y: e_rr = 0.01, e_yy = -0.02,
        # e_tt = u_r / r = 0.01, g_ry = 0
        u = np.column_stack([0.01 * self.TRI[:, 0], -0.02 * self.TRI[:, 1]])
        assert self._strain(u) == pytest.approx([0.01, -0.02, 0.01, 0.0])

    def test_shear_strain(self):
        u = np.column_stack([0.005 * self.TRI[:, 1], np.zeros(3)])
        assert self._strain(u)[3] == pytest.approx(0.005)


def _per_edge_traction_load(mesh, bc, f):
    """Reference: adds the traction loads to f in place, edge by edge
    and Gauss point by Gauss point, with one scalar evaluate call each."""
    table = mesh.boundary_edge_table
    for e, cond in enumerate(table.conditions(bc.lookup)):
        if not isinstance(cond, Traction):
            continue
        i, j = table.ij[e]
        p, q = mesh.nodes[i], mesh.nodes[j]
        length, normal = table.length[e], table.normal[e]
        for t, wg in zip(EDGE_GAUSS_POINTS, EDGE_GAUSS_WEIGHTS):
            r = p[0] * (1 - t) + q[0] * t
            y = p[1] * (1 - t) + q[1] * t
            g = cond.evaluate(r, y, normal)
            w = wg * length * r
            f[2 * i:2 * i + 2] += w * (1 - t) * g
            f[2 * j:2 * j + 2] += w * t * g
    return f


class TestTractionLoad:
    """The assembled f against the per-edge reference, bit for bit."""

    @staticmethod
    def _load(mesh, mats, bc, T):
        return assemble_mechanical_system(mesh, mats, bc, T)[1]

    def _assert_matches_reference(self, mesh, mats, bc):
        T = 300.0 + 300.0 * mesh.nodes[:, 0] + 100.0 * mesh.nodes[:, 1]
        free = MechanicalBC({tag: TRACTION_FREE if isinstance(c, Traction)
                             else c for tag, c in bc.conditions.items()})
        f = self._load(mesh, mats, bc, T)
        ref = _per_edge_traction_load(mesh, bc,
                                      self._load(mesh, mats, free, T))
        assert np.count_nonzero(f - self._load(mesh, mats, free, T)) > 0
        assert f.tobytes() == ref.tobytes()

    def test_hearth(self, coarse_hearth_mesh, hearth_materials):
        self._assert_matches_reference(coarse_hearth_mesh, hearth_materials,
                                       hearth_mechanical_bc())

    def test_two_conditions_sharing_a_corner(self):
        poly = SubdomainPolygon(1, ((0.5, 0.0), (1.5, 0.0), (1.5, 1.0),
                                    (0.5, 1.0)))
        mesh = generate_mesh([poly], 0.125)
        bc = MechanicalBC({
            BoundaryTag.BOTTOM: FRICTIONLESS_CONTACT,
            BoundaryTag.OUTER: TRACTION_FREE,
            # compression toward the wall, linear in depth below y = 1
            BoundaryTag.INNER: Traction(lambda r, y, n: -np.expand_dims(
                7e4 * (1.0 - y), -1) * n),
            BoundaryTag.TOP: Traction(lambda r, y, n: np.stack(
                [1e5 * r, -2e5 - 1e4 * r * y], axis=-1)),
        })
        nodes_of = {tag: {n for i, j, t in mesh.boundary_edges if t is tag
                          for n in (i, j)}
                    for tag in (BoundaryTag.INNER, BoundaryTag.TOP)}
        assert nodes_of[BoundaryTag.INNER] & nodes_of[BoundaryTag.TOP]
        self._assert_matches_reference(mesh, _materials(), bc)


class TestSolveMechanical:
    def test_free_thermal_expansion_is_stress_free(self):
        mesh = _cylinder_mesh(h=0.25)
        mats = _materials()
        T = np.full(mesh.num_nodes, 800.0)
        u, _ = solve_mechanical(mesh, mats, BASE_BC, T)
        # u = alpha dT (r, y) is the exact stress-free expansion
        expect = 1e-5 * 500.0 * mesh.nodes
        assert np.allclose(u, expect, atol=1e-12)
        stress = recover_stress(mesh, mats, T, u)
        assert np.abs(stress).max() <= 1e-9 * 2e9 * 1e-5 * 500.0

    def test_report_gives_relative_residual(self):
        mesh = _cylinder_mesh(h=0.25)
        mats = _materials()
        T = 300.0 + 500.0 * mesh.nodes[:, 0]
        u, report = solve_mechanical(mesh, mats, BASE_BC, T)
        # |f_f - K_ff u_f| / |f_f| on the free dofs, to the last bit
        K, f, free, _ = apply_constraints(
            *assemble_mechanical_system(mesh, mats, BASE_BC, T))
        rel = _norm(f - K @ u.ravel()[free]) / _norm(f)
        assert report.residuals == [rel]
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
        stress = recover_stress(mesh, mats, T, u)
        assert np.allclose(stress[:, 0], -p, rtol=1e-6)
        assert np.allclose(stress[:, 2], -p, rtol=1e-6)
        assert np.allclose(stress[:, 3], 0.0, atol=1e-3 * p)

    def test_stiffness_symmetric(self):
        mesh = _cylinder_mesh(h=0.5)
        T = np.full(mesh.num_nodes, 300.0)
        K = assemble_mechanical_system(mesh, _materials(), BASE_BC, T)[0]
        d = K - K.T
        assert abs(d).max() == 0.0

    def test_stiffness_matches_dense_element_oracle(self, hearth_materials,
                                                     rng):
        mesh = hearth_mesh(0.2)
        T = 300.0 + 1200.0 * rng.random(mesh.num_nodes)
        K = assemble_mechanical_system(
            mesh, hearth_materials, hearth_mechanical_bc(), T)[0]
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
            E_q[on] = hearth_materials.records[sid].E(T_q[on])
            C[on] = elasticity_matrix(1.0, hearth_materials.records[sid].nu)
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
        assert abs(K - raw).max() <= 1e-14 * abs(raw).max()

    def test_stiffness_maps_axial_translation_to_zero(self, hearth_materials,
                                                      rng):
        # the unconstrained K: a rigid translation along the axis strains
        # nothing, while u_r = const strains the hoop direction
        mesh = hearth_mesh(0.2)
        T = 300.0 + 1200.0 * rng.random(mesh.num_nodes)
        K = assemble_mechanical_system(
            mesh, hearth_materials, hearth_mechanical_bc(), T)[0]
        translation = np.tile([0.0, 1.0], mesh.num_nodes)
        assert np.abs(K @ translation).max() <= 1e-12 * abs(K).max()

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
        bc = MechanicalBC({tag: Displacement(case.exact)
                           for tag in BoundaryTag})
        u, _ = solve_mechanical(mesh, case.material_set(), bc,
                                case.temperature(mesh),
                                body_force=case.body_force)
        # every node on the square's sides, and no other, is prescribed
        nr, ny = mesh.nodes.T
        on_side = (nr == 0.0) | (nr == 1.0) | (ny == 0.0) | (ny == 1.0)
        u_exact = case.exact(nr, ny)
        assert np.count_nonzero(u_exact[on_side]) > 0
        assert np.array_equal(u[on_side], u_exact[on_side])
        # the interior is solved for, and close to the exact field
        assert not np.any(u[~on_side] == u_exact[~on_side])
        assert np.abs(u - u_exact).max() <= 1e-2 * np.abs(u_exact).max()

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
            axis = tag is BoundaryTag.AXIS
            if not (axis or bc.lookup(tag) == FRICTIONLESS_CONTACT):
                continue
            dr, dy = mesh.nodes[j] - mesh.nodes[i]
            comp = 0 if axis or abs(dy) > abs(dr) else 1
            expected |= {2 * i + comp, 2 * j + comp}
        T = np.full(mesh.num_nodes, 300.0)
        _, _, dofs, values = assemble_mechanical_system(mesh, hearth_materials,
                                                        bc, T)
        assert np.array_equal(dofs, sorted(expected))
        assert np.array_equal(values, np.zeros(len(expected)))

    def test_traction_free_equals_zero_traction(self, coarse_hearth_mesh,
                                                hearth_materials):
        # the hearth's free OUTER wall, against a zero load evaluated on
        # each of its edges: K and f bit for bit
        mesh = coarse_hearth_mesh
        T = 300.0 + 300.0 * mesh.nodes[:, 0] + 100.0 * mesh.nodes[:, 1]
        free = hearth_mechanical_bc()
        assert free.lookup(BoundaryTag.OUTER) == TRACTION_FREE
        zero = MechanicalBC({**free.conditions, BoundaryTag.OUTER:
                             Traction(lambda r, y, n: (0.0, 0.0))})
        K1, f1, dofs1, values1 = assemble_mechanical_system(
            mesh, hearth_materials, free, T)
        K2, f2, dofs2, values2 = assemble_mechanical_system(
            mesh, hearth_materials, zero, T)
        for a, b in ((K1.indptr, K2.indptr), (K1.indices, K2.indices),
                     (K1.data, K2.data), (f1, f2), (dofs1, dofs2),
                     (values1, values2)):
            assert a.tobytes() == b.tobytes()

    def test_displacement_overrides_contact(self):
        # BOTTOM in contact (u_y = 0), OUTER held at a nonzero g: at their
        # corner (1, 0) both components take g, u_y's over the contact zero
        mesh = _cylinder_mesh(h=0.5)
        T = np.full(mesh.num_nodes, 300.0)

        def g(r, y):
            return np.stack([2e-4 + 1e-4 * y, 2.5e-4 - 1e-4 * y], axis=-1)

        bc = MechanicalBC({**BASE_BC.conditions,
                           BoundaryTag.OUTER: Displacement(g)})
        corner = int(np.flatnonzero((mesh.nodes[:, 0] == 1.0)
                                    & (mesh.nodes[:, 1] == 0.0))[0])
        _, _, dofs, values = assemble_mechanical_system(mesh, _materials(),
                                                        bc, T)
        assert np.all(np.diff(dofs) > 0)
        k = np.searchsorted(dofs, [2 * corner, 2 * corner + 1])
        assert np.array_equal(dofs[k], [2 * corner, 2 * corner + 1])
        assert np.array_equal(values[k], [2e-4, 2.5e-4])
        u, _ = solve_mechanical(mesh, _materials(), bc, T)
        assert np.array_equal(u[corner], [2e-4, 2.5e-4])
        outer = mesh.nodes[:, 0] == 1.0
        assert np.array_equal(u[outer], g(mesh.nodes[outer, 0],
                                          mesh.nodes[outer, 1]))
        bottom = (mesh.nodes[:, 1] == 0.0) & ~outer
        assert np.all(u[bottom, 1] == 0.0)

    def test_every_dof_prescribed(self):
        # a strip one cell high: every node lies on a Displacement edge,
        # so no dof is free, a 0 x 0 system, and u = g exactly
        r = np.linspace(0.5, 1.0, 5)
        nodes = np.concatenate([np.column_stack([r, np.zeros(5)]),
                                np.column_stack([r, np.full(5, 0.25)])])
        a = np.arange(4)
        tris = np.concatenate([np.column_stack([a, a + 1, a + 6]),
                               np.column_stack([a, a + 6, a + 5])])
        mesh = tag_boundaries(Mesh(nodes, tris, np.ones(8, int)))
        T = np.full(mesh.num_nodes, 600.0)

        def g(r, y):
            return 1e-4 * np.stack([y, -r**2], axis=-1)

        bc = MechanicalBC({tag: Displacement(g) for tag in BoundaryTag})
        K, f, dofs, values = assemble_mechanical_system(mesh, _materials(),
                                                        bc, T)
        assert np.array_equal(dofs, np.arange(2 * mesh.num_nodes))
        assert apply_constraints(K, f, dofs, values)[0].shape == (0, 0)
        u, report = solve_mechanical(mesh, _materials(), bc, T)
        assert np.array_equal(u, g(nodes[:, 0], nodes[:, 1]))
        assert np.count_nonzero(u) == 2 * mesh.num_nodes - 5
        assert report.residuals == [0.0]

    def test_disagreeing_displacements_raise(self):
        # OUTER and TOP meet at the corner (1, 2), where OUTER's u_y is
        # 2e-3: a TOP that agrees passes, one that differs raises
        mesh = _cylinder_mesh(h=0.5)
        T = np.full(mesh.num_nodes, 300.0)
        corner = int(np.flatnonzero((mesh.nodes[:, 0] == 1.0)
                                    & (mesh.nodes[:, 1] == 2.0))[0])
        outer = Displacement(lambda r, y: np.stack([0 * y, 1e-3 * y], -1))

        def bc(top_uy):
            return MechanicalBC({**BASE_BC.conditions, BoundaryTag.OUTER: outer,
                                 BoundaryTag.TOP: Displacement(
                                     lambda r, y: (0.0, top_uy))})

        dofs, values = assemble_mechanical_system(mesh, _materials(),
                                                  bc(2e-3), T)[2:]
        assert values[dofs == 2 * corner + 1] == [2e-3]
        with pytest.raises(ValueError, match=f"disagree at node {corner}$"):
            assemble_mechanical_system(mesh, _materials(), bc(3e-3), T)

    def test_displacement_evaluated_once_per_condition(self):
        # one call per distinct condition, on all of its edges' end nodes
        mesh = _cylinder_mesh(h=0.5)
        T = np.full(mesh.num_nodes, 300.0)
        calls = []

        def g(r, y):
            calls.append(r.shape)
            return 1e-4 * np.stack([r * y, r], axis=-1)

        shared = Displacement(g)
        tags = (BoundaryTag.OUTER, BoundaryTag.TOP, BoundaryTag.BOTTOM)
        bc = MechanicalBC({**BASE_BC.conditions,
                           **{tag: shared for tag in tags}})
        assemble_mechanical_system(mesh, _materials(), bc, T)
        edges = sum(t in tags for _, _, t in mesh.boundary_edges)
        assert calls == [(edges, 2)]
        calls.clear()
        bc = MechanicalBC({**bc.conditions, BoundaryTag.TOP: Displacement(g)})
        assemble_mechanical_system(mesh, _materials(), bc, T)
        assert len(calls) == 2

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
        K_cold = assemble_mechanical_system(
            mesh, mats, BASE_BC, np.full(mesh.num_nodes, 300.0))[0]
        K_hot = assemble_mechanical_system(
            mesh, mats, BASE_BC, np.full(mesh.num_nodes, 1300.0))[0]
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
        stress = recover_stress(mesh, _materials(), T,
                                np.zeros((mesh.num_nodes, 2)))
        # at u = 0 the stress is the thermal term alone,
        # s_rr = -E alpha (T_bar - T0) / (1 - 2 nu), with T_bar the
        # quadrature average, which for a linear T is the centroid value
        T_bar = 300.0 - stress[:, 0] * (1 - 2 * 0.3) / (2e9 * 1e-5)
        centroids = mesh.nodes[mesh.triangles].mean(axis=1)
        assert np.allclose(T_bar, 300.0 + 100.0 * centroids[:, 1])

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
        stress = recover_stress(mesh, mats, T, u)
        comps = boundary_stress_components(mesh, stress, BoundaryTag.OUTER)
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
            stress = recover_stress(mesh, mats, T, u)
            comps = boundary_stress_components(mesh, stress,
                                               BoundaryTag.BOTTOM)
            tot = 0.0
            for ((i, j), _, tangential) in comps:
                length = np.linalg.norm(mesh.nodes[j] - mesh.nodes[i])
                r_mid = 0.5 * (mesh.nodes[i][0] + mesh.nodes[j][0])
                tot += np.linalg.norm(tangential) * length * r_mid
            totals.append(tot)
        assert totals[2] < totals[0]


@pytest.mark.parametrize("solve", [
    lambda mesh, mats, T: newton_solve(mesh, mats, ThermalBC({})),
    lambda mesh, mats, T: solve_mechanical(mesh, mats, MechanicalBC({}), T),
    lambda mesh, mats, T: recover_stress(mesh, mats, T, np.zeros((3, 2))),
], ids=["newton_solve", "solve_mechanical", "recover_stress"])
def test_missing_material_record_named(solve):
    mesh = Mesh(nodes=np.array([[0.5, 0.0], [1.0, 0.0], [0.5, 1.0]]),
                triangles=np.array([[0, 1, 2]]), tri_subdomain=np.array([3]))
    with pytest.raises(ValueError,
                       match=r"no material record for subdomains \[3\]"):
        solve(mesh, _materials(), np.full(3, 300.0))


def _field_call(entry, mesh, mats, T, u):
    """The call of ``entry`` that checks the fields T and u."""
    return {
        "assemble_thermal_residual": lambda: assemble_thermal_residual(
            ThermalProblem(mesh, mats, hearth_thermal_bc()), T),
        "assemble_thermal_jacobian": lambda: assemble_thermal_jacobian(
            ThermalProblem(mesh, mats, hearth_thermal_bc()), T),
        "solve_mechanical": lambda: solve_mechanical(
            mesh, mats, hearth_mechanical_bc(), T),
        "recover_stress": lambda: recover_stress(mesh, mats, T, u),
        "extract_isoline": lambda: extract_isoline(mesh, T, 1000.0),
    }[entry]


_FIELD_ENTRIES = [
    ("assemble_thermal_residual", "T"), ("assemble_thermal_jacobian", "T"),
    ("solve_mechanical", "T"), ("recover_stress", "T"),
    ("recover_stress", "u"), ("extract_isoline", "values"),
]


@pytest.mark.parametrize("extra", [7, -1], ids=["long", "short"])
@pytest.mark.parametrize("entry, name", _FIELD_ENTRIES)
def test_field_of_wrong_length_rejected(entry, name, extra, coarse_hearth_mesh,
                                        hearth_materials):
    mesh, mats = coarse_hearth_mesh, hearth_materials
    n = mesh.num_nodes
    T, u = np.full(n, 300.0), np.zeros((n, 2))
    if name == "u":
        u = np.zeros((n + extra, 2))
    else:
        T = np.full(n + extra, 300.0)
    with pytest.raises(ValueError, match=f"^{name} has {n + extra} rows, "
                                         f"the mesh has {n} nodes$"):
        _field_call(entry, mesh, mats, T, u)()


@pytest.mark.parametrize("entry, name", _FIELD_ENTRIES)
def test_field_of_wrong_columns_rejected(entry, name, coarse_hearth_mesh,
                                         hearth_materials):
    # one row per node but the wrong columns: rejected by name, not by an
    # einsum or a broadcast of the assembly
    mesh, mats = coarse_hearth_mesh, hearth_materials
    n = mesh.num_nodes
    T, u = np.full(n, 300.0), np.zeros((n, 2))
    if name == "u":
        u, shape, want = np.zeros(n), rf"\({n},\)", rf"\({n}, 2\)"
    else:
        T, shape, want = np.full((n, 2), 300.0), rf"\({n}, 2\)", rf"\({n},\)"
    with pytest.raises(ValueError,
                       match=rf"^{name} has shape {shape}, not {want}$"):
        _field_call(entry, mesh, mats, T, u)()
