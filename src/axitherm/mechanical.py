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
    SingularSystemError,
    apply_constraints,
    assemble_csr,
    solve_refined,
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


def _contact_constraints(mesh: Mesh, conds) -> dict:
    """u . n = 0 on contact edges: u_y on horizontal edges, u_r on
    vertical ones (and always u_r on the axis), as {dof: 0.0} with
    dof = 2 * node + component."""
    table = mesh.boundary_edge_table
    axis = np.array([t is BoundaryTag.AXIS for t in table.tags], dtype=bool)
    contact = np.array([c == FRICTIONLESS_CONTACT for c in conds], dtype=bool)
    rows = np.flatnonzero(contact | axis)
    d = mesh.nodes[table.j[rows]] - mesh.nodes[table.i[rows]]
    comp = np.where(axis[rows] | (np.abs(d[:, 1]) > np.abs(d[:, 0])), 0, 1)
    dofs = 2 * np.column_stack([table.i[rows], table.j[rows]]) + comp[:, None]
    return dict.fromkeys(dofs.ravel().tolist(), 0.0)


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
                               body_force=None, extra_constraints=None):
    """Assemble and constrain the thermoelastic system; returns
    (K, f, fixed) with ``fixed`` the eliminated dofs (2 * node +
    component) and their values.

    ``body_force`` is a verification-only hook mapping (r, y) to a
    (2,)-vector density; ``extra_constraints`` maps (node, component) to
    prescribed displacement values, which override the contact ones.
    """
    T = np.asarray(T, float)
    geo = mesh.assembly_workspace
    quad = geo.quadrature(3)
    M = len(geo.triangles)
    ndof = 2 * mesh.num_nodes
    missing = set(geo.subdomains) - set(materials.subdomain_ids())
    if missing:
        raise ValueError(f"no material record for subdomains {sorted(missing)}")

    # per-element material data at the quadrature points; the unit-modulus
    # elasticity matrix is C = [d l l 0; l d l 0; l l d 0; 0 0 0 s]
    T_q = T[geo.triangles] @ quad.rule.points.T              # (M, Q)
    E_q = np.empty_like(T_q)
    d, l, s, alpha, nu = np.empty((5, M))
    for sid, idx in geo.subdomains.items():
        rec = materials[sid]
        E_q[idx] = rec.E(T_q[idx])
        C = elasticity_matrix(1.0, rec.nu)
        d[idx], l[idx], s[idx] = C[0, 0], C[0, 1], C[3, 3]
        alpha[idx] = rec.alpha
        nu[idx] = rec.nu
    # thermal stress E alpha dT / (1 - 2 nu) on the normal components
    sig0 = E_q * alpha[:, None] * (T_q - materials.T0) / (1 - 2 * nu)[:, None]

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
    f = np.bincount(dofs.ravel(), weights=fe.ravel(), minlength=ndof)

    # boundary tractions (edge interiors; contact constraints win at nodes)
    table = mesh.boundary_edge_table
    conds = table.conditions(bc.lookup)
    for e, cond in enumerate(conds):
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

    fixed = _contact_constraints(mesh, conds)
    for (node, comp), value in (extra_constraints or {}).items():
        fixed[2 * node + comp] = value
    if not any(d % 2 == 1 for d in fixed):
        raise SingularSystemError(
            "axial rigid translation unconstrained: no u_y dof is fixed")

    K, f = apply_constraints(K, f, fixed)
    return K, f, fixed


def solve_mechanical(mesh: Mesh, materials: MaterialSet, bc: MechanicalBC,
                     T: np.ndarray, body_force=None, extra_constraints=None):
    """Solve for the displacement field; returns (u (N,2), SolveReport).

    K is factored once, in single precision, and the solution refined in
    double (:func:`solve_refined`), in the mesh's node order expanded to
    the dof pairs (u_r, u_y) of each node. Fixed dofs take their
    prescribed values exactly. The report's one residual is the relative
    residual |K u - f| / |f| of the constrained system (0 for f = 0).
    """
    start = time.perf_counter()
    K, f, fixed = assemble_mechanical_system(mesh, materials, bc, T,
                                             body_force, extra_constraints)
    order = 2 * mesh.assembly_workspace.node_order[:, None] + np.arange(2)
    x = solve_refined(K, f, order.ravel())
    # refined values of fixed dofs can miss the prescribed ones in the
    # last bits
    x[np.fromiter(fixed, int)] = np.fromiter(fixed.values(), float)
    fnorm = np.linalg.norm(f)
    res = np.linalg.norm(K @ x - f)
    report = SolveReport(iterations=1,
                         residuals=[float(res / fnorm if fnorm > 0 else res)],
                         converged=True, linear_solves=1, factorizations=1,
                         wall_time=time.perf_counter() - start)
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
    for sid, idx in geo.subdomains.items():
        rec = materials[sid]
        E_b = np.asarray(rec.E(T_bar[idx]))
        sig = (strain[idx] @ elasticity_matrix(1.0, rec.nu).T) * E_b[:, None]
        sig[:, :3] -= thermal_stress_term(E_b, rec.nu, rec.alpha, T_bar[idx],
                                          materials.T0)[:, None]
        stress[idx] = sig
    return StressField(stress=stress, strain=strain, element_temperature=T_bar)
