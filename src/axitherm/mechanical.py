"""Axisymmetric linear thermoelasticity with one-way thermal coupling.

The stiffness comes from the r-weighted virtual work of the 4-component
strain (e_rr, e_yy, e_theta, g_ry); the load combines the thermal-strain
right-hand side with boundary tractions. Bilateral frictionless contact
on axis-aligned boundaries reduces to single-component zero constraints.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .fem_core import (
    EDGE_GAUSS_POINTS,
    EDGE_GAUSS_WEIGHTS,
    DofMap,
    SingularSystemError,
    TriangleGeometry,
    apply_constraints,
    assemble_csr,
    solve_lu,
    triangle_rule,
)
from .materials import MaterialSet, elasticity_matrix, thermal_stress_term
from .mesh import BoundaryTag, Mesh
from .thermal import SolveReport

HYDROSTATIC_SLOPE = 77106.0  # N/m^2 per meter of metal column


@dataclass(frozen=True)
class Traction:
    """Applied boundary force; ``g`` maps (r, y, outward normal) -> (2,)."""

    g: object

    def evaluate(self, r, y, normal):
        return np.asarray(self.g(r, y, normal), float)


FRICTIONLESS_CONTACT = "contact"
TRACTION_FREE = "traction_free"


@dataclass
class MechanicalBC:
    conditions: dict  # BoundaryTag -> Traction | FRICTIONLESS_CONTACT | TRACTION_FREE

    def lookup(self, tag):
        if tag not in self.conditions:
            raise ValueError(f"no mechanical boundary condition for tag {tag}")
        return self.conditions[tag]


def hydrostatic_traction(y: float, y_max: float) -> float:
    """Magnitude of the molten-metal column load at height y."""
    if y > y_max + 1e-12:
        raise ValueError(f"y={y} lies above the metal surface y_max={y_max}")
    return HYDROSTATIC_SLOPE * (y_max - y)


def hydrostatic_bc(y_max: float) -> Traction:
    """Compression -slope*(y_max - y)*n toward the wall."""
    def g(r, y, normal):
        return -hydrostatic_traction(y, y_max) * np.asarray(normal, float)
    return Traction(g)


def element_strain(triangle, u_values, eval_point) -> np.ndarray:
    """Axisymmetric strain of the P1 interpolant at one point.

    triangle: (3, 2) node coordinates; u_values: (3, 2) nodal (u_r, u_y);
    eval_point: (r, y) with r > 0 (the hoop strain is u_r / r).
    """
    p = np.asarray(triangle, float)
    u = np.asarray(u_values, float)
    r, y = eval_point
    if r <= 0:
        raise ValueError("strain evaluation requires r > 0")
    geom = TriangleGeometry.from_mesh(p, np.array([[0, 1, 2]]))
    grads = geom.grads[0]  # (3, 2)
    # barycentric coordinates of the evaluation point
    A = np.column_stack([p[1] - p[0], p[2] - p[0]])
    xi = np.linalg.solve(A, np.array([r, y]) - p[0])
    lam = np.array([1 - xi[0] - xi[1], xi[0], xi[1]])
    du = np.einsum("i,id->d", u[:, 0], grads), np.einsum("i,id->d", u[:, 1], grads)
    dur, duy = du
    ur = lam @ u[:, 0]
    return np.array([dur[0], duy[1], ur / r, dur[1] + duy[0]])


def _exterior_conditions(table, bc: MechanicalBC):
    """(row, condition) for every tagged exterior edge, in table order."""
    for e, tag in enumerate(table.tags):
        if tag is BoundaryTag.INTERFACE or tag is None:
            continue
        yield e, bc.lookup(tag)


def _contact_constraints(mesh: Mesh, bc: MechanicalBC, dofs: DofMap):
    """u . n = 0 on contact edges: u_y on horizontal edges, u_r on
    vertical ones (and always u_r on the axis)."""
    table = mesh.boundary_edge_table()
    any_uy = False
    for e, cond in _exterior_conditions(table, bc):
        axis = table.tags[e] is BoundaryTag.AXIS
        if not (cond == FRICTIONLESS_CONTACT or axis):
            continue
        i, j = int(table.i[e]), int(table.j[e])
        dr, dy = mesh.nodes[j] - mesh.nodes[i]
        comp = 0 if axis or abs(dy) > abs(dr) else 1
        dofs.constrain(i, comp, 0.0)
        dofs.constrain(j, comp, 0.0)
        if comp == 1:
            any_uy = True
    return any_uy


def assemble_mechanical_system(mesh: Mesh, materials: MaterialSet,
                               bc: MechanicalBC, T: np.ndarray,
                               body_force=None, extra_constraints=None):
    """Assemble and constrain the thermoelastic system (K, f, dofs).

    ``body_force`` is a verification-only hook mapping (r, y) to a
    (2,)-vector density; ``extra_constraints`` maps (node, component) to
    prescribed displacement values.
    """
    T = np.asarray(T, float)
    geom = TriangleGeometry.from_mesh(mesh.nodes, mesh.triangles)
    rule = triangle_rule(3)
    tris = mesh.triangles
    M = len(tris)
    ndof = 2 * mesh.num_nodes
    T_el = T[tris]
    r_q = np.einsum("qi,mi->mq", rule.points, geom.coords[:, :, 0])
    y_q = np.einsum("qi,mi->mq", rule.points, geom.coords[:, :, 1])

    Ke = np.zeros((M, 6, 6))
    fe = np.zeros((M, 6))
    ident = np.array([1.0, 1.0, 1.0, 0.0])

    sub_ids = sorted(set(np.unique(mesh.tri_subdomain)))
    missing = set(sub_ids) - set(materials.subdomain_ids())
    if missing:
        raise ValueError(f"no material record for subdomains {sorted(missing)}")

    for q in range(len(rule.weights)):
        lam = rule.points[q]
        w = rule.weights[q] * 2.0 * geom.area * r_q[:, q]  # (M,)
        T_q = T_el @ lam
        # strain-displacement matrix at this quadrature point: (M, 4, 6)
        B = np.zeros((M, 4, 6))
        for i in range(3):
            B[:, 0, 2 * i] = geom.grads[:, i, 0]
            B[:, 1, 2 * i + 1] = geom.grads[:, i, 1]
            B[:, 2, 2 * i] = lam[i] / r_q[:, q]
            B[:, 3, 2 * i] = geom.grads[:, i, 1]
            B[:, 3, 2 * i + 1] = geom.grads[:, i, 0]
        for sid in sub_ids:
            mask = mesh.tri_subdomain == sid
            rec = materials[sid]
            C_unit = elasticity_matrix(1.0, rec.nu)
            E_q = np.asarray(rec.E(T_q[mask]))
            Bm = B[mask]
            CB = np.einsum("ab,mbj->maj", C_unit, Bm)
            Ke[mask] += (w[mask] * E_q)[:, None, None] * \
                np.einsum("mai,maj->mij", Bm, CB)
            # thermal-strain load: B^T C alpha dT {1,1,1,0}
            sig0 = E_q * rec.alpha * (T_q[mask] - materials.T0) / (1 - 2 * rec.nu)
            fe[mask] += (w[mask] * sig0)[:, None] * \
                np.einsum("mai,a->mi", Bm, ident)
        if body_force is not None:
            fr, fy = body_force(r_q[:, q], y_q[:, q])
            for i in range(3):
                fe[:, 2 * i] += w * lam[i] * fr
                fe[:, 2 * i + 1] += w * lam[i] * fy

    dof_idx = np.empty((M, 6), dtype=int)
    dof_idx[:, 0::2] = 2 * tris
    dof_idx[:, 1::2] = 2 * tris + 1
    rows = np.repeat(dof_idx, 6, axis=1).ravel()
    cols = np.tile(dof_idx, (1, 6)).ravel()
    K = assemble_csr(rows, cols, Ke.reshape(M, 36).ravel(), ndof)
    # restore bitwise symmetry lost to floating summation order in the
    # B^T C B products and the duplicate accumulation
    K = (K + K.T) * 0.5
    K = K.tocsr()
    K.sort_indices()
    f = np.zeros(ndof)
    np.add.at(f, dof_idx.ravel(), fe.ravel())

    # boundary tractions (edge interiors; contact constraints win at nodes)
    table = mesh.boundary_edge_table()
    for e, cond in _exterior_conditions(table, bc):
        if not isinstance(cond, Traction):
            continue
        i, j = table.i[e], table.j[e]
        p, q = mesh.nodes[i], mesh.nodes[j]
        length, normal = table.length[e], table.normal[e]
        for t, wg in zip(EDGE_GAUSS_POINTS, EDGE_GAUSS_WEIGHTS):
            r = p[0] * (1 - t) + q[0] * t
            y = p[1] * (1 - t) + q[1] * t
            g = cond.evaluate(r, y, normal)
            w = wg * length * r
            f[2 * i:2 * i + 2] += w * (1 - t) * g
            f[2 * j:2 * j + 2] += w * t * g

    dofs = DofMap(num_nodes=mesh.num_nodes, components=2)
    any_uy = _contact_constraints(mesh, bc, dofs)
    if extra_constraints:
        for (node, comp), value in extra_constraints.items():
            dofs.constrain(node, comp, value)
            if comp == 1:
                any_uy = True
    if not any_uy:
        raise SingularSystemError(
            "axial rigid translation unconstrained: no u_y dof is fixed")

    K, f = apply_constraints(K, f, dofs)
    return K, f, dofs


def solve_mechanical(mesh: Mesh, materials: MaterialSet, bc: MechanicalBC,
                     T: np.ndarray, body_force=None, extra_constraints=None):
    """Solve for the displacement field; returns (u (N,2), SolveReport)."""
    start = time.perf_counter()
    K, f, _ = assemble_mechanical_system(mesh, materials, bc, T,
                                         body_force, extra_constraints)
    x = solve_lu(K, f)
    report = SolveReport(iterations=1, residuals=[0.0], converged=True,
                         linear_solves=1,
                         wall_time=time.perf_counter() - start)
    res = np.linalg.norm(K @ x - f)
    report.residuals = [float(res)]
    return x.reshape(-1, 2), report


@dataclass
class StressField:
    """Piecewise-constant per-element stress and strain 4-vectors."""

    stress: np.ndarray  # (M, 4): (s_rr, s_yy, s_tt, s_ry)
    strain: np.ndarray  # (M, 4)
    element_temperature: np.ndarray  # (M,) quadrature-averaged


def recover_stress(mesh: Mesh, materials: MaterialSet, T: np.ndarray,
                   u: np.ndarray) -> StressField:
    """Element stresses from centroid strain and averaged temperature."""
    geom = TriangleGeometry.from_mesh(mesh.nodes, mesh.triangles)
    rule = triangle_rule(3)
    tris = mesh.triangles
    M = len(tris)
    T_el = T[tris]
    # quadrature-weighted average temperature (weights sum to 1/2)
    T_bar = 2.0 * np.einsum("q,mq->m", rule.weights, T_el @ rule.points.T)

    u_el = u[tris]  # (M, 3, 2)
    centroid_r = geom.coords[:, :, 0].mean(axis=1)
    strain = np.empty((M, 4))
    strain[:, 0] = np.einsum("mi,mi->m", u_el[:, :, 0], geom.grads[:, :, 0])
    strain[:, 1] = np.einsum("mi,mi->m", u_el[:, :, 1], geom.grads[:, :, 1])
    strain[:, 2] = u_el[:, :, 0].mean(axis=1) / centroid_r
    strain[:, 3] = np.einsum("mi,mi->m", u_el[:, :, 0], geom.grads[:, :, 1]) \
        + np.einsum("mi,mi->m", u_el[:, :, 1], geom.grads[:, :, 0])

    stress = np.empty((M, 4))
    for sid in sorted(set(np.unique(mesh.tri_subdomain))):
        mask = mesh.tri_subdomain == sid
        rec = materials[sid]
        C_unit = elasticity_matrix(1.0, rec.nu)
        E_b = np.asarray(rec.E(T_bar[mask]))
        sig = np.einsum("ab,mb->ma", C_unit, strain[mask]) * E_b[:, None]
        s0 = np.array([thermal_stress_term(e, rec.nu, rec.alpha, tb, materials.T0)
                       for e, tb in zip(E_b, T_bar[mask])])
        sig[:, :3] -= s0[:, None]
        stress[mask] = sig
    return StressField(stress=stress, strain=strain, element_temperature=T_bar)


def boundary_stress_components(mesh: Mesh, field: StressField, tag: BoundaryTag):
    """Normal and tangential traction on each edge carrying ``tag``.

    Returns a list of (edge, sigma_n, tangential traction vector) using
    the adjacent element's recovered stress.
    """
    table = mesh.boundary_edge_table()
    rows = table.rows_with_tag(tag)
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
