"""Nonlinear steady axisymmetric heat conduction.

Weak form: sum_i int k(T) grad T . grad psi r + int_R h T psi r ds
         = int_R h T_R psi r ds (+ an optional volumetric source used
only for manufactured-solution verification). Solved by inexact Newton:
the first step of a solve factors the Jacobian, later steps are taken by
GMRES preconditioned with that factor to a tight forcing term; optional
residual-halving backtracking for stubborn cases.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .fem_core import LU_RTOL, ConvergenceError, assemble_csr, solve_lu
from .materials import MaterialSet
from .mesh import Mesh

# Krylov steps (one restart cycle) before an inexact Newton step gives
# up and the current Jacobian is factored instead.
GMRES_STEPS = 30
# Backtracking halves the step at most this often (down to 1/256).
MAX_HALVINGS = 8


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

    def lookup(self, tag):
        if tag not in self.conditions:
            raise ValueError(f"no thermal boundary condition for tag {tag}")
        return self.conditions[tag]


@dataclass
class NewtonConfig:
    """Newton settings.

    Convergence is ``|R| / ref <= abs_tol``: ``ref`` is 1, or the first
    residual norm when ``relative``. R holds one entry per node, that
    node's heat imbalance in the r-weighted weak form (W per radian), so
    the absolute test bounds the Euclidean norm of the nodal imbalances,
    not an error in T, and its meaning changes with h. An entry
    integrates over a patch of area about h^2 (h on a Robin edge) while
    the number of nodes grows like h^-2 (h^-1 on the boundary), so the
    norm left by a smooth error in T shrinks like h^(1/2) to h as the
    mesh is refined, and a fixed ``abs_tol`` admits a larger temperature
    error. On the hearth, a smooth error of 1 K leaves a residual norm
    of 1.6e3, 1.2e3 and 0.8e3 at h = 0.1, 0.05 and 0.025, so the
    default 1e-4 admits about 0.6e-7 to 1.2e-7 K there, far below the
    discretization error.
    """

    abs_tol: float = 1e-4
    max_iter: int = 25
    initial_guess: float = 300.0
    relative: bool = False
    backtracking: bool = False

    def __post_init__(self):
        # each message starts with the field name it rejects
        if not np.isfinite(self.initial_guess):
            raise ValueError("initial_guess must be finite")
        if not (np.isfinite(self.abs_tol) and self.abs_tol > 0):
            raise ValueError("abs_tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class SolveReport:
    """What a solve did: Newton iterations and residual norms, one
    linear solve per step, LU factorizations and GMRES steps in total,
    and whether backtracking ever ran out of halvings."""

    iterations: int = 0
    residuals: list = field(default_factory=list)
    converged: bool = False
    linear_solves: int = 0
    factorizations: int = 0
    gmres_steps: int = 0
    backtrack_exhausted: bool = False
    wall_time: float = 0.0

    def as_dict(self):
        return {
            "iterations": self.iterations,
            "residuals": [float(r) for r in self.residuals],
            "converged": self.converged,
            "linear_solves": self.linear_solves,
            "factorizations": self.factorizations,
            "gmres_steps": self.gmres_steps,
            "backtrack_exhausted": self.backtrack_exhausted,
            "wall_time": self.wall_time,
        }


class _ThermalWorkspace:
    """Material and Robin edge data shared by residual and Jacobian, on
    top of the mesh's assembly workspace; valid for the mesh, materials
    and bc it was built with."""

    def __init__(self, mesh: Mesh, materials: MaterialSet, bc: ThermalBC):
        self.mesh_ws = mesh.assembly_workspace
        missing = set(self.mesh_ws.subdomains) - set(materials.subdomain_ids())
        if missing:
            raise ValueError(f"no material record for subdomains {sorted(missing)}")
        self.materials = materials
        self.robin = _RobinEdges.build(mesh, bc)
        if self.robin is not None:
            self.robin_diagonal = \
                self.mesh_ws.scalar_pattern.diagonal()[self.robin.ij]

    def conductivity(self, T_q, derivative=False):
        """k, or dk/dT, at the temperatures T_q (M, Q)."""
        k = np.empty_like(T_q)
        for sid, idx in self.mesh_ws.subdomains.items():
            model = self.materials[sid].k
            k[idx] = (model.derivative if derivative else model)(T_q[idx])
        return k


@dataclass(frozen=True)
class _RobinEdges:
    """Convection edges under the vertex (trapezoid) rule.

    ij (E, 2) end nodes; weight (E, 2) 0.5 * length * r * h at each end
    node; ambient (E, 2) T_R at each end node. The rule's edge mass
    matrix is diagonal (lumped), which keeps the assembled system an
    M-matrix on meshes of right triangles and so preserves the discrete
    maximum principle (Ciarlet & Raviart, CMAME 2, 1973); a consistent
    Gauss rule produces positive off-diagonals that let corner nodes
    overshoot the hottest ambient temperature.
    """

    ij: np.ndarray
    weight: np.ndarray
    ambient: np.ndarray

    @classmethod
    def build(cls, mesh, bc):
        table = mesh.boundary_edge_table
        conds = table.conditions(bc.lookup)
        rows = [e for e, c in enumerate(conds)
                if c is not None and c is not ADIABATIC]
        if not rows:
            return None
        ij = np.column_stack([table.i[rows], table.j[rows]])
        r, y = mesh.nodes[ij, 0], mesh.nodes[ij, 1]
        h = np.array([conds[e].h for e in rows])
        weight = 0.5 * table.length[rows, None] * r * h[:, None]
        # one ambient call per distinct condition, on all of its edges
        edges_of = {}
        for k, e in enumerate(rows):
            edges_of.setdefault(id(conds[e]), (conds[e], []))[1].append(k)
        ambient = np.empty_like(r)
        for cond, ks in edges_of.values():
            ambient[ks] = cond.ambient(r[ks], y[ks])
        return cls(ij, weight, ambient)

    def residual(self, T):
        """(E, 2) contributions of h (T - T_R) to the end-node rows."""
        return self.weight * (T[self.ij] - self.ambient)


def assemble_thermal_residual(mesh: Mesh, materials: MaterialSet,
                              bc: ThermalBC, T: np.ndarray,
                              source=None,
                              workspace: _ThermalWorkspace | None = None
                              ) -> np.ndarray:
    """Residual vector of the weak form tested with every hat function."""
    ws = workspace or _ThermalWorkspace(mesh, materials, bc)
    geo = ws.mesh_ws
    quad = geo.quadrature(3)
    T_el = T[geo.triangles]                                  # (M, 3)
    # grad lambda_i . grad T per element: (M, 3)
    flux = np.einsum("mij,mj->mi", geo.grad_products, T_el)
    k_q = ws.conductivity(T_el @ quad.rule.points.T)         # (M, Q)
    contrib = (quad.w * k_q).sum(axis=1)[:, None] * flux
    if source is not None:
        contrib -= (quad.w * source(quad.r, quad.y)) @ quad.rule.points
    R = np.bincount(geo.triangles.ravel(), weights=contrib.ravel(),
                    minlength=mesh.num_nodes)
    if ws.robin is not None:
        R += np.bincount(ws.robin.ij.ravel(),
                         weights=ws.robin.residual(T).ravel(),
                         minlength=mesh.num_nodes)
    return R


def assemble_thermal_jacobian(mesh: Mesh, materials: MaterialSet,
                              bc: ThermalBC, T: np.ndarray,
                              workspace: _ThermalWorkspace | None = None):
    """Exact Jacobian: k-stiffness + dk/dT secondary term + the lumped
    Robin mass on the diagonal."""
    ws = workspace or _ThermalWorkspace(mesh, materials, bc)
    geo = ws.mesh_ws
    quad = geo.quadrature(3)
    gg = geo.grad_products
    T_el = T[geo.triangles]
    flux = np.einsum("mij,mj->mi", gg, T_el)                 # (M, 3)
    T_q = T_el @ quad.rule.points.T
    wk = (quad.w * ws.conductivity(T_q)).sum(axis=1)
    wdk = (quad.w * ws.conductivity(T_q, derivative=True)) @ quad.rule.points
    # k grad lambda_j . grad lambda_i + dk/dT lambda_j grad T . grad lambda_i
    blocks = wk[:, None, None] * gg + flux[:, :, None] * wdk[:, None, :]
    J = assemble_csr(geo.scalar_pattern, blocks.ravel())
    if ws.robin is not None:
        # unbuffered, in edge order: a node on two Robin edges gets both
        np.add.at(J.data, ws.robin_diagonal, ws.robin.weight)
    return J


def _krylov_step(J, R, factor, eta, report):
    """Newton step delta with |J delta + R| <= eta |R|, or None.

    GMRES runs on J M^-1 z = -R with M^-1 the LU of an earlier Jacobian
    (right preconditioning, so its residual is the Newton residual
    J delta + R), then delta = M^-1 z. scipy's ``M=`` would precondition
    on the left and stop on the preconditioned residual instead. The
    residual is checked explicitly, not taken from GMRES's estimate.
    """
    n = len(R)
    op = LinearOperator((n, n), dtype=float,
                        matvec=lambda v: J @ factor.solve(v))

    def count(_):
        report.gmres_steps += 1

    z, _ = gmres(op, -R, rtol=eta, restart=GMRES_STEPS, maxiter=1,
                 callback=count, callback_type="pr_norm")
    delta = factor.solve(z)
    if (np.all(np.isfinite(delta))
            and np.linalg.norm(J @ delta + R) <= eta * np.linalg.norm(R)):
        return delta
    return None


def newton_solve(mesh: Mesh, materials: MaterialSet, bc: ThermalBC,
                 config: NewtonConfig | None = None, source=None):
    """Solve the nonlinear thermal problem; returns (T, SolveReport).

    Inexact Newton with one LU per solve: the first step factors J, and
    later steps are taken by GMRES preconditioned with that factor, a
    lagged Jacobian (Knoll & Keyes, J. Comput. Phys. 193, 2004). A
    step must leave |J delta + R| <= eta |R| with the forcing term eta
    = LU_RTOL, the bound an exact LU step is checked against, so the
    iterates follow exact Newton's; near convergence eta is loosened to
    leave half the stopping tolerance. A step GMRES cannot take within
    GMRES_STEPS factors the current J instead, and that factor serves
    the steps after it.
    """
    config = config or NewtonConfig()
    ws = _ThermalWorkspace(mesh, materials, bc)
    T = np.full(mesh.num_nodes, float(config.initial_guess))
    report = SolveReport()
    start = time.perf_counter()

    R = assemble_thermal_residual(mesh, materials, bc, T, source, ws)
    norm = np.linalg.norm(R)
    ref = norm if (config.relative and norm > 0) else 1.0
    report.residuals.append(norm)
    factor = None

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
        delta = None
        if factor is not None:
            eta = max(LU_RTOL, 0.5 * config.abs_tol * ref / norm)
            delta = _krylov_step(J, R, factor, eta, report)
        if delta is None:
            delta, factor = solve_lu(J, -R, ws.mesh_ws.node_order)
            report.factorizations += 1
        report.linear_solves += 1

        step = 1.0
        for halving in range(MAX_HALVINGS + 1):
            T_new = T + step * delta
            R_new = assemble_thermal_residual(mesh, materials, bc, T_new,
                                              source, ws)
            norm_new = np.linalg.norm(R_new)
            if not config.backtracking or norm_new < norm:
                break
            if halving == MAX_HALVINGS:
                # no halving lowered the residual; the step is taken
                report.backtrack_exhausted = True
                break
            step *= 0.5
        T, R, norm = T_new, R_new, norm_new
        report.iterations += 1
        report.residuals.append(norm)

    report.converged = True
    report.wall_time = time.perf_counter() - start
    return T, report
