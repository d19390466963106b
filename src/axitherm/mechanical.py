"""Axisymmetric linear thermoelasticity with one-way thermal coupling.

The stiffness comes from the r-weighted virtual work of the 4-component
strain (e_rr, e_yy, e_theta, g_ry); the load combines the thermal-strain
right-hand side with boundary tractions. Bilateral frictionless contact
on axis-aligned boundaries reduces to single-component zero constraints;
a prescribed displacement fixes both components of its edges' nodes.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .fem_core import (
    EDGE_GAUSS_POINTS,
    EDGE_GAUSS_WEIGHTS,
    SingularSystemError,
    SolveReport,
    apply_constraints,
    assemble_csr,
    solve_lu,
)
from .materials import MaterialSet, elasticity_matrix, thermal_stress_term
from .mesh import BoundaryConditions, BoundaryTag, Mesh, checked_field


@dataclass(frozen=True)
class Traction:
    """Applied boundary force ``g(r, y, normal)``. r and y are arrays of
    one shape S (or scalars); the outward unit normals and the returned
    force components have shape S + (2,), and a constant is broadcast."""

    g: object

    def evaluate(self, r, y, normal):
        normal = np.asarray(normal, float)
        return np.broadcast_to(self.g(r, y, normal), normal.shape).astype(float)


@dataclass(frozen=True)
class Displacement:
    """Prescribed boundary displacement ``g(r, y)``, with r, y and the
    returned components shaped as for Traction."""

    g: object


FRICTIONLESS_CONTACT = "contact"
TRACTION_FREE = "traction_free"


class MechanicalBC(BoundaryConditions):
    """A Traction, a Displacement or one of ``constants`` per tag."""

    physics, kinds = "mechanical", (Traction, Displacement)
    constants = (FRICTIONLESS_CONTACT, TRACTION_FREE)


def _constraints(mesh: Mesh, bc: MechanicalBC):
    """The fixed dofs (2 * node + component), ascending, and their values:
    g on both components of a Displacement edge's nodes, and u . n = 0 on
    contact edges and the axis, on the normal's larger component. A value
    of g wins over a contact zero; two that differ raise ValueError."""
    table = mesh.boundary_edge_table
    rows, groups = table.condition_groups(bc.lookup, Displacement)
    ij = table.ij[rows]                                           # (E, 2)
    r, y = np.moveaxis(mesh.nodes[ij], -1, 0)
    g = np.empty(ij.shape + (2,))
    for cond, ks in groups:   # one call of g per distinct condition
        g[ks] = cond.g(r[ks], y[ks])
    rows = np.flatnonzero((table.tags == BoundaryTag.AXIS)
                          | [c == FRICTIONLESS_CONTACT
                             for c in table.conditions(bc.lookup)])
    n = np.abs(table.normal[rows])
    comp = np.where(n[:, 0] > n[:, 1], 0, 1)
    zero = 2 * table.ij[rows] + comp[:, None]
    # prescribed dofs first: np.unique keeps each dof's first value
    dofs = np.concatenate([(2 * ij[..., None] + np.arange(2)).ravel(),
                           zero.ravel()])
    fixed, first, inv = np.unique(dofs, return_index=True, return_inverse=True)
    values = np.concatenate([g.ravel(), np.zeros(zero.size)])[first]
    clash = dofs[:g.size][values[inv[:g.size]] != g.ravel()]
    if len(clash):
        raise ValueError(f"Displacements disagree at node {clash[0] // 2}")
    return fixed, values


def _traction_loads(mesh: Mesh, bc: MechanicalBC):
    """Loads sum_g w_g L r_g N_a(t_g) g(r_g, y_g, n) of the traction edges
    on their end nodes a (fixed dofs win at nodes), as (dofs,
    values) ordered by edge, Gauss point, end node and component."""
    table = mesh.boundary_edge_table
    rows, groups = table.condition_groups(bc.lookup, Traction)
    t = EDGE_GAUSS_POINTS
    ij = table.ij[rows]                                           # (E, 2)
    p, q = mesh.nodes[ij[:, :1]], mesh.nodes[ij[:, 1:]]           # (E, 1, 2)
    x = p * (1 - t)[:, None] + q * t[:, None]                     # (E, G, 2)
    r, y = x[..., 0], x[..., 1]
    normal = np.broadcast_to(table.normal[rows, None], r.shape + (2,))
    g = np.empty(r.shape + (2,))
    # one evaluate call per distinct condition, on all of its points
    for cond, ks in groups:
        g[ks] = cond.evaluate(r[ks], y[ks], normal[ks])
    w = EDGE_GAUSS_WEIGHTS * table.length[rows, None] * r
    shape = np.column_stack([1 - t, t])                           # (G, 2)
    loads = (w[:, :, None] * shape)[..., None] * g[:, :, None]    # (E, G, 2, 2)
    dofs = 2 * ij[:, None, :, None] + np.arange(2)
    return np.broadcast_to(dofs, loads.shape).ravel(), loads.ravel()


def _stiffness_blocks(geo, quad, a, d, l, s):
    """Element stiffnesses sum_q a_q B_q^T C B_q, a = w E, as (9 M, 2, 2)
    blocks in the order of the scalar pattern's scatter: block (i, j)
    couples (u_r, u_y) of vertex i with those of vertex j.

    C is the unit-modulus elasticity matrix with per-element entries d,
    l and s. With the P1 gradients g_r, g_y, A = sum_q a_q,
    b = sum_q a_q N_q / r_q and H = sum_q a_q N_q N_q^T / r_q^2:
      K_rr = A (d g_r g_r^T + s g_y g_y^T) + l (b g_r^T + g_r b^T) + d H
      K_ry = A (l g_r g_y^T + s g_y g_r^T) + l b g_y^T,  K_yr = K_ry^T
      K_yy = A (d g_y g_y^T + s g_r g_r^T)
    Each paired term is summed before it is added, so K_rr and K_yy are
    bitwise symmetric, and so is K, summed in one fixed element order.
    """
    M = len(a)
    gr, gy = geo.grads[:, :, 0], geo.grads[:, :, 1]
    A = a.sum(axis=1)[:, None, None]
    d, l, s = d[:, None, None], l[:, None, None], s[:, None, None]
    b = (a / quad.r) @ quad.rule.points

    def outer(u, v):
        return u[:, :, None] * v[:, None, :]

    # component-major storage, so that each component assemble_csr
    # scatters is contiguous; every temporary is dropped once it is
    # summed in, which keeps the transient memory near that of the blocks
    blocks = np.empty((2, 2, M, 3, 3))
    rr, ry, yr, yy = blocks[0, 0], blocks[0, 1], blocks[1, 0], blocks[1, 1]
    grr, gyy = outer(gr, gr), outer(gy, gy)
    np.multiply(d, grr, out=rr)
    rr += s * gyy
    rr *= A
    np.multiply(d, gyy, out=yy)
    yy += s * grr
    yy *= A
    del grr, gyy
    bg = outer(b, gr)
    rr += l * (bg + bg.transpose(0, 2, 1))
    del bg
    H = np.zeros((M, 3, 3))
    for q, p in enumerate(quad.rule.points):
        H += (a[:, q] / quad.r[:, q]**2)[:, None, None] * np.outer(p, p)
    H *= d
    rr += H
    del H
    grgy = outer(gr, gy)
    np.multiply(l, grgy, out=ry)
    ry += s * grgy.transpose(0, 2, 1)
    ry *= A
    ry += l * outer(b, gy)
    yr[...] = ry.transpose(0, 2, 1)
    return blocks.reshape(2, 2, 9 * M).transpose(2, 0, 1)


def assemble_mechanical_system(mesh: Mesh, materials: MaterialSet,
                               bc: MechanicalBC, T: np.ndarray,
                               body_force=None):
    """Assemble the thermoelastic system; returns (K, f, dofs, values):
    the unconstrained stiffness and load over every dof (2 * node +
    component), and the fixed dofs, ascending, with their values
    (:func:`_constraints`), which :func:`solve_mechanical` eliminates.
    f adds the element loads, then the traction loads, in one
    ``np.bincount``: each dof's terms in a fixed order.

    ``body_force``, a verification-only hook, maps (r, y) to (f_r, f_y).
    """
    T = checked_field("T", T, (mesh.num_nodes,), "nodes")
    geo = mesh.assembly_workspace
    quad = geo.quadrature(3)
    M = len(geo.triangles)
    ndof = 2 * mesh.num_nodes
    records = materials.by_subdomain(geo.subdomains)

    # per-element material data at the quadrature points: E, the thermal
    # stress on the normal components, and the unit-modulus elasticity
    # matrix C = [d l l 0; l d l 0; l l d 0; 0 0 0 s]
    T_q = T[geo.triangles] @ quad.rule.points.T              # (M, Q)
    E_q, sig0 = np.empty((2,) + T_q.shape)
    d, l, s = np.empty((3, M))
    for rec, idx in records:
        E_q[idx] = rec.E(T_q[idx])
        sig0[idx] = thermal_stress_term(E_q[idx], rec.nu, rec.alpha,
                                        T_q[idx], materials.T0)
        C = elasticity_matrix(1.0, rec.nu)
        d[idx], l[idx], s[idx] = C[0, 0], C[0, 1], C[3, 3]

    K = assemble_csr(geo.scalar_pattern,
                     _stiffness_blocks(geo, quad, quad.w * E_q, d, l, s))
    # thermal-strain load sum_q w_q sig0_q B_q^T {1, 1, 1, 0}, per vertex
    # and component (u_r, u_y)
    pts = quad.rule.points
    s0 = quad.w * sig0
    fe = s0.sum(axis=1)[:, None, None] * geo.grads
    fe[:, :, 0] += (s0 / quad.r) @ pts
    if body_force is not None:
        fr, fy = body_force(quad.r, quad.y)
        fe[:, :, 0] += (quad.w * fr) @ pts
        fe[:, :, 1] += (quad.w * fy) @ pts
    # element dofs (u_r, u_y) per vertex: 2 * node + component
    dofs = 2 * geo.triangles[:, :, None] + np.arange(2)
    t_dofs, t_loads = _traction_loads(mesh, bc)
    f = np.bincount(np.concatenate([dofs.ravel(), t_dofs]),
                    weights=np.concatenate([fe.ravel(), t_loads]),
                    minlength=ndof)

    fixed, values = _constraints(mesh, bc)
    if not np.any(fixed % 2 == 1):
        raise SingularSystemError(
            "axial rigid translation unconstrained: no u_y dof is fixed")
    return K, f, fixed, values


def solve_mechanical(mesh: Mesh, materials: MaterialSet, bc: MechanicalBC,
                     T: np.ndarray, body_force=None):
    """Solve for the displacement field; returns (u (N,2), SolveReport).

    :func:`apply_constraints` restricts K and f to the free dofs, and
    K_ff, which keeps the stored 2x2 block pattern of the assembly, is
    solved by :func:`solve_lu`; the report counts a second factorization
    when that falls back to a double-precision LU. Fixed dofs hold their
    prescribed values exactly. The report's one residual is the one
    :func:`solve_lu` checked, |f_f - K_ff u_f| / |f_f| (|K_ff u_f| for
    f_f = 0).
    """
    start = time.perf_counter()
    # the unconstrained K is freed before the factorization
    K, f, free, x = apply_constraints(
        *assemble_mechanical_system(mesh, materials, bc, T, body_force))
    x[free], _, factorizations, residual = solve_lu(K, f)
    report = SolveReport(iterations=1, residuals=[float(residual)],
                         converged=True, factorizations=factorizations,
                         wall_time=time.perf_counter() - start)
    return x.reshape(-1, 2), report


def recover_stress(mesh: Mesh, materials: MaterialSet, T: np.ndarray,
                   u: np.ndarray) -> np.ndarray:
    """Piecewise-constant element stresses (M, 4), (s_rr, s_yy, s_tt,
    s_ry), from centroid strain and quadrature-averaged temperature."""
    T = checked_field("T", T, (mesh.num_nodes,), "nodes")
    u = checked_field("u", u, (mesh.num_nodes, 2), "nodes")
    geo = mesh.assembly_workspace
    rule = geo.quadrature(3).rule
    tris = geo.triangles
    M = len(tris)
    # quadrature-weighted average temperature (weights sum to 1/2)
    T_bar = 2.0 * ((T[tris] @ rule.points.T) @ rule.weights)

    u_el = u[tris]                                   # (M, 3, 2)
    du = u_el.transpose(0, 2, 1) @ geo.grads         # (M, 2, 2): d u_c / d x_d
    strain = np.empty((M, 4))
    strain[:, 0] = du[:, 0, 0]
    strain[:, 1] = du[:, 1, 1]
    strain[:, 2] = u_el[:, :, 0].mean(axis=1) / geo.centroid_r
    strain[:, 3] = du[:, 0, 1] + du[:, 1, 0]

    stress = np.empty((M, 4))
    for rec, idx in materials.by_subdomain(geo.subdomains):
        E_b = np.asarray(rec.E(T_bar[idx]))
        sig = (strain[idx] @ elasticity_matrix(1.0, rec.nu).T) * E_b[:, None]
        sig[:, :3] -= thermal_stress_term(E_b, rec.nu, rec.alpha, T_bar[idx],
                                          materials.T0)[:, None]
        stress[idx] = sig
    return stress
