"""Nonlinear steady axisymmetric heat conduction.

Weak form: sum_i int k(T) grad T . grad psi r + int_R h T psi r ds
         = int_R h T_R psi r ds (+ an optional volumetric source used
only for manufactured-solution verification). Solved with full Newton
steps; optional residual-halving backtracking for stubborn cases.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .fem_core import (
    ConvergenceError,
    TriangleGeometry,
    assemble_csr,
    solve,
    triangle_rule,
)
from .materials import MaterialSet
from .mesh import BoundaryTag, Mesh

# Vertex (trapezoid) rule for the Robin edge terms. The resulting edge
# mass matrix is diagonal, which keeps the assembled system an M-matrix
# on meshes of right triangles and so preserves the discrete maximum
# principle; a consistent Gauss rule produces positive off-diagonals
# that let corner nodes overshoot the hottest ambient temperature.
ROBIN_EDGE_POINTS = np.array([0.0, 1.0])
ROBIN_EDGE_WEIGHTS = np.array([0.5, 0.5])


@dataclass(frozen=True)
class Robin:
    """Convection condition -k grad T . n = h (T - T_R).

    ``T_R`` may be a constant or a callable of (r, y); callables are
    used by the verification module to impose manufactured data.
    """

    h: float
    T_R: object

    def ambient(self, r, y):
        if callable(self.T_R):
            return np.asarray(self.T_R(r, y), float)
        return np.full_like(np.asarray(r, float), float(self.T_R))


ADIABATIC = "adiabatic"


@dataclass
class ThermalBC:
    """Boundary condition per tag; unlisted tags must not occur."""

    conditions: dict  # BoundaryTag -> Robin | ADIABATIC

    def robin_rows(self, table):
        """(rows, conditions) of every convection edge of a
        :class:`~axitherm.mesh.BoundaryEdgeTable`, in table order."""
        rows, conds = [], []
        for e, tag in enumerate(table.tags):
            if tag is BoundaryTag.INTERFACE or tag is None:
                continue
            if tag not in self.conditions:
                raise ValueError(f"no thermal boundary condition for tag {tag}")
            cond = self.conditions[tag]
            if cond is not ADIABATIC:
                rows.append(e)
                conds.append(cond)
        return np.asarray(rows, dtype=int), conds


@dataclass
class NewtonConfig:
    abs_tol: float = 1e-4
    max_iter: int = 25
    initial_guess: float = 300.0
    relative: bool = False
    backtracking: bool = False
    solver: str = "lu"


@dataclass
class SolveReport:
    iterations: int = 0
    residuals: list = field(default_factory=list)
    converged: bool = False
    linear_solves: int = 0
    wall_time: float = 0.0

    def as_dict(self):
        return {
            "iterations": self.iterations,
            "residuals": [float(r) for r in self.residuals],
            "converged": self.converged,
            "linear_solves": self.linear_solves,
            "wall_time": self.wall_time,
        }


class _ThermalWorkspace:
    """Geometry, quadrature and Robin edge data shared by residual and
    Jacobian; valid for the mesh, materials and bc it was built with."""

    def __init__(self, mesh: Mesh, materials: MaterialSet, bc: ThermalBC):
        self.mesh = mesh
        self.materials = materials
        self.geom = TriangleGeometry.from_mesh(mesh.nodes, mesh.triangles)
        self.rule = triangle_rule(3)
        # quadrature point radii per element: (M, Q)
        self.r_q = np.einsum("qi,mi->mq", self.rule.points,
                             self.geom.coords[:, :, 0])
        self.y_q = np.einsum("qi,mi->mq", self.rule.points,
                             self.geom.coords[:, :, 1])
        self.sub_masks = {
            sid: mesh.tri_subdomain == sid for sid in materials.subdomain_ids()
        }
        missing = set(np.unique(mesh.tri_subdomain)) - set(materials.subdomain_ids())
        if missing:
            raise ValueError(f"no material record for subdomains {sorted(missing)}")
        self.edges = _edge_arrays(mesh, bc)

    def conductivity(self, T_q):
        k = np.empty_like(T_q)
        for sid, mask in self.sub_masks.items():
            k[mask] = self.materials[sid].k(T_q[mask])
        return k

    def conductivity_derivative(self, T_q):
        dk = np.empty_like(T_q)
        for sid, mask in self.sub_masks.items():
            dk[mask] = self.materials[sid].k.derivative(T_q[mask])
        return dk


def _edge_arrays(mesh, bc):
    table = mesh.boundary_edge_table()
    rows, conds = bc.robin_rows(table)
    if len(rows) == 0:
        return None
    ij = np.column_stack([table.i[rows], table.j[rows]])
    p = mesh.nodes[ij[:, 0]]
    q = mesh.nodes[ij[:, 1]]
    length = table.length[rows]
    h = np.array([c.h for c in conds])
    # rule points along each edge
    t = ROBIN_EDGE_POINTS
    r_g = p[:, 0, None] * (1 - t) + q[:, 0, None] * t
    y_g = p[:, 1, None] * (1 - t) + q[:, 1, None] * t
    TR_g = np.empty_like(r_g)
    for row, c in enumerate(conds):
        TR_g[row] = c.ambient(r_g[row], y_g[row])
    return ij, length, h, r_g, y_g, TR_g


def assemble_thermal_residual(mesh: Mesh, materials: MaterialSet,
                              bc: ThermalBC, T: np.ndarray,
                              source=None,
                              workspace: _ThermalWorkspace | None = None
                              ) -> np.ndarray:
    """Residual vector of the weak form tested with every hat function."""
    ws = workspace or _ThermalWorkspace(mesh, materials, bc)
    geom, rule = ws.geom, ws.rule
    tris = mesh.triangles
    T_el = T[tris]                                   # (M, 3)
    gradT = np.einsum("mi,mid->md", T_el, geom.grads)  # (M, 2)
    R = np.zeros(mesh.num_nodes)

    for q in range(len(rule.weights)):
        lam = rule.points[q]
        w = rule.weights[q] * 2.0 * geom.area * ws.r_q[:, q]  # (M,)
        T_q = T_el @ lam
        k_q = ws.conductivity(T_q)
        # k grad T . grad lambda_i
        flux = np.einsum("md,mid->mi", gradT, geom.grads)      # (M, 3)
        contrib = (w * k_q)[:, None] * flux
        if source is not None:
            f_q = source(ws.r_q[:, q], ws.y_q[:, q])
            contrib -= (w * f_q)[:, None] * lam[None, :]
        np.add.at(R, tris, contrib)

    edge_data = ws.edges
    if edge_data is not None:
        ij, length, h, r_g, y_g, TR_g = edge_data
        T_g = T[ij[:, 0], None] * (1 - ROBIN_EDGE_POINTS) \
            + T[ij[:, 1], None] * ROBIN_EDGE_POINTS
        for g, (t, wg) in enumerate(zip(ROBIN_EDGE_POINTS, ROBIN_EDGE_WEIGHTS)):
            w = wg * length * r_g[:, g] * h * (T_g[:, g] - TR_g[:, g])
            np.add.at(R, ij[:, 0], w * (1 - t))
            np.add.at(R, ij[:, 1], w * t)
    return R


def assemble_thermal_jacobian(mesh: Mesh, materials: MaterialSet,
                              bc: ThermalBC, T: np.ndarray,
                              workspace: _ThermalWorkspace | None = None):
    """Exact Jacobian: k-stiffness + dk/dT secondary term + Robin mass."""
    ws = workspace or _ThermalWorkspace(mesh, materials, bc)
    geom, rule = ws.geom, ws.rule
    tris = mesh.triangles
    M = len(tris)
    T_el = T[tris]
    gradT = np.einsum("mi,mid->md", T_el, geom.grads)
    gg = np.einsum("mid,mjd->mij", geom.grads, geom.grads)   # (M, 3, 3)
    flux = np.einsum("md,mid->mi", gradT, geom.grads)        # (M, 3)

    blocks = np.zeros((M, 3, 3))
    for q in range(len(rule.weights)):
        lam = rule.points[q]
        w = rule.weights[q] * 2.0 * geom.area * ws.r_q[:, q]
        T_q = T_el @ lam
        k_q = ws.conductivity(T_q)
        dk_q = ws.conductivity_derivative(T_q)
        blocks += (w * k_q)[:, None, None] * gg
        blocks += (w * dk_q)[:, None, None] * \
            np.einsum("mi,j->mij", flux, lam)
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    vals = blocks.reshape(M, 9).ravel()

    edge_data = ws.edges
    if edge_data is not None:
        ij, length, h, r_g, y_g, _ = edge_data
        erows, ecols, evals = [], [], []
        for g, (t, wg) in enumerate(zip(ROBIN_EDGE_POINTS, ROBIN_EDGE_WEIGHTS)):
            w = wg * length * r_g[:, g] * h
            shp = np.array([1 - t, t])
            for a in range(2):
                for b_ in range(2):
                    erows.append(ij[:, a])
                    ecols.append(ij[:, b_])
                    evals.append(w * shp[a] * shp[b_])
        rows = np.concatenate([rows] + [x for x in erows])
        cols = np.concatenate([cols] + [x for x in ecols])
        vals = np.concatenate([vals] + [x for x in evals])

    return assemble_csr(rows, cols, vals, mesh.num_nodes)


def newton_solve(mesh: Mesh, materials: MaterialSet, bc: ThermalBC,
                 config: NewtonConfig | None = None, source=None):
    """Solve the nonlinear thermal problem; returns (T, SolveReport)."""
    config = config or NewtonConfig()
    ws = _ThermalWorkspace(mesh, materials, bc)
    T = np.full(mesh.num_nodes, float(config.initial_guess))
    report = SolveReport()
    start = time.perf_counter()

    R = assemble_thermal_residual(mesh, materials, bc, T, source, ws)
    norm = np.linalg.norm(R)
    ref = norm if (config.relative and norm > 0) else 1.0
    report.residuals.append(norm)

    # negated so that a NaN norm enters the loop and is rejected there
    while not norm / ref <= config.abs_tol:
        if not np.isfinite(norm):
            report.wall_time = time.perf_counter() - start
            raise ConvergenceError(
                f"Newton residual is not finite ({norm}) after "
                f"{report.iterations} iterations")
        if report.iterations >= config.max_iter:
            report.wall_time = time.perf_counter() - start
            raise ConvergenceError(
                f"Newton did not reach {config.abs_tol:g} in "
                f"{config.max_iter} iterations (residual {norm:.3e}); "
                "consider enabling backtracking")
        J = assemble_thermal_jacobian(mesh, materials, bc, T, ws)
        delta = solve(J, -R, method=config.solver)
        report.linear_solves += 1

        step = 1.0
        for _ in range(9):
            T_new = T + step * delta
            R_new = assemble_thermal_residual(mesh, materials, bc, T_new,
                                              source, ws)
            norm_new = np.linalg.norm(R_new)
            if not config.backtracking or norm_new < norm or step <= 1 / 256:
                break
            step *= 0.5
        T, R, norm = T_new, R_new, norm_new
        report.iterations += 1
        report.residuals.append(norm)

    report.converged = True
    report.wall_time = time.perf_counter() - start
    return T, report
