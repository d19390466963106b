"""Nonlinear steady axisymmetric heat conduction.

Weak form: sum_i int k(T) grad T . grad psi r + int_R h T psi r ds
         = int_R h T_R psi r ds (+ an optional volumetric source used
only for manufactured-solution verification). A ThermalProblem holds
one problem's data; the residual and the Jacobian are assembled from
it and a temperature field. Solved by the chord method: steps are
taken on the LU factor of an earlier Jacobian, and the Jacobian is
factored afresh when a step stops cutting the residual
CHORD_CONTRACTION-fold. Every step is a full one, from a given start or
the uniform NEWTON_START.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .fem_core import (ConvergenceError, SolveReport, _norm, assemble_csr,
                       solve_lu)
from .materials import MaterialSet
from .mesh import BoundaryConditions, Mesh, checked_field

# A step on an old factor is kept only if it cuts the residual norm to
# this fraction or less; otherwise the Jacobian is factored afresh.
CHORD_CONTRACTION = 0.1

# uniform temperature (K) a Newton solve starts from unless given a start
NEWTON_START = 300.0

# Newton steps a solve may take before it gives up
NEWTON_MAX_ITER = 25


@dataclass(frozen=True)
class Robin:
    """Convection condition -k grad T . n = h (T - T_R).

    ``T_R`` may be a constant or a callable of (r, y); callables are
    used by the verification module to impose manufactured data.
    """

    h: float
    T_R: object

    def ambient(self, r, y):
        T_R = self.T_R(r, y) if callable(self.T_R) else self.T_R
        return np.broadcast_to(np.asarray(T_R, float), np.shape(r))


ADIABATIC = "adiabatic"


class ThermalBC(BoundaryConditions):
    """Robin or ADIABATIC per tag; unlisted tags must not occur."""

    physics, kinds, constants = "thermal", (Robin,), (ADIABATIC,)


@dataclass(frozen=True)
class NewtonConfig:
    """Newton settings, checked when made and fixed after.

    Convergence is ``|R| / ref <= abs_tol``: ``ref`` is 1, or with
    ``relative`` the residual norm of the start. R holds one entry per
    node, that node's heat imbalance in the r-weighted weak form (W per
    radian), so the absolute test bounds the Euclidean norm of the nodal
    imbalances, not an error in T, and its meaning changes with h. An entry
    integrates over a patch of area about h^2 (h on a Robin edge) while
    the number of nodes grows like h^-2 (h^-1 on the boundary), so the
    norm left by a smooth error in T shrinks like h^(1/2) to h as the
    mesh is refined, and a fixed ``abs_tol`` admits a larger temperature
    error. On the hearth, a smooth error of 1 K leaves a residual norm
    of 1.6e3, 1.2e3 and 0.8e3 at h = 0.1, 0.05 and 0.025, so the
    default 1e-4 admits about 0.6e-7 to 1.2e-7 K there, far below the
    discretization error. No option damps a Newton step.
    """

    abs_tol: float = 1e-4
    relative: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.abs_tol) and self.abs_tol > 0):
            raise ValueError("abs_tol must be positive and finite")


class ThermalProblem:
    """One thermal problem: the mesh, materials, bc and optional source
    it was built for, as the data the residual and the Jacobian share,
    on top of the mesh's assembly workspace.

    Convection edges use the vertex (trapezoid) rule: robin_ij (E, 2)
    end nodes, E >= 0; robin_weight (E, 2) 0.5 * length * r * h at each
    end node; robin_ambient (E, 2) T_R at each end node. The rule's edge
    mass matrix is diagonal (lumped), which keeps the assembled system an
    M-matrix on meshes of right triangles and so preserves the discrete
    maximum principle (Ciarlet & Raviart, CMAME 2, 1973); a consistent
    Gauss rule produces positive off-diagonals that let corner nodes
    overshoot the hottest ambient temperature. The residual's rows sum
    to the net Robin heat sum(robin_weight * (T[robin_ij] -
    robin_ambient)), since the conduction terms of each element cancel.

    A volumetric ``source`` is evaluated once, on the quadrature points:
    source_load (M, 3) is its r-weighted integral against each hat
    function, or None without a source.
    """

    def __init__(self, mesh: Mesh, materials: MaterialSet, bc: ThermalBC,
                 source=None):
        self.mesh = mesh
        self.mesh_ws = mesh.assembly_workspace
        self.records = materials.by_subdomain(self.mesh_ws.subdomains)
        table = mesh.boundary_edge_table
        rows, groups = table.condition_groups(bc.lookup, Robin)
        ij = table.ij[rows]
        r, y = mesh.nodes[ij, 0], mesh.nodes[ij, 1]
        weight, ambient = np.empty_like(r), np.empty_like(r)
        # one ambient call per distinct condition, on all of its edges
        for cond, ks in groups:
            weight[ks] = 0.5 * table.length[rows[ks], None] * r[ks] * cond.h
            ambient[ks] = cond.ambient(r[ks], y[ks])
        self.robin_ij, self.robin_weight, self.robin_ambient = ij, weight, ambient
        self.robin_diagonal = self.mesh_ws.scalar_pattern.diagonal()[ij]
        self.source_load = None
        if source is not None:
            quad = self.mesh_ws.quadrature(3)
            self.source_load = ((quad.w * source(quad.r, quad.y))
                                @ quad.rule.points)

    def conductivity(self, T_q, derivative=False):
        """k, or dk/dT, at the temperatures T_q (M, Q)."""
        k = np.empty_like(T_q)
        for rec, idx in self.records:
            k[idx] = (rec.k.derivative if derivative else rec.k)(T_q[idx])
        return k


def assemble_thermal_residual(problem: ThermalProblem,
                              T: np.ndarray) -> np.ndarray:
    """Residual vector of ``problem``'s weak form at T, tested with every
    hat function."""
    n = problem.mesh.num_nodes
    T = checked_field("T", T, (n,), "nodes")
    geo = problem.mesh_ws
    quad = geo.quadrature(3)
    T_el = T[geo.triangles]                                  # (M, 3)
    # grad lambda_i . grad T per element: (M, 3)
    flux = np.einsum("mij,mj->mi", geo.grad_products, T_el)
    k_q = problem.conductivity(T_el @ quad.rule.points.T)    # (M, Q)
    contrib = (quad.w * k_q).sum(axis=1)[:, None] * flux
    if problem.source_load is not None:
        contrib -= problem.source_load
    R = np.bincount(geo.triangles.ravel(), weights=contrib.ravel(),
                    minlength=n)
    # h (T - T_R) on the end-node rows of each convection edge
    robin = problem.robin_weight * (T[problem.robin_ij] - problem.robin_ambient)
    R += np.bincount(problem.robin_ij.ravel(), weights=robin.ravel(),
                     minlength=n)
    return R


def assemble_thermal_jacobian(problem: ThermalProblem, T: np.ndarray):
    """Exact Jacobian of ``problem``'s residual at T: k-stiffness + dk/dT
    secondary term + the lumped Robin mass on the diagonal."""
    T = checked_field("T", T, (problem.mesh.num_nodes,), "nodes")
    geo = problem.mesh_ws
    quad = geo.quadrature(3)
    gg = geo.grad_products
    T_el = T[geo.triangles]
    flux = np.einsum("mij,mj->mi", gg, T_el)                 # (M, 3)
    T_q = T_el @ quad.rule.points.T
    wk = (quad.w * problem.conductivity(T_q)).sum(axis=1)
    wdk = (quad.w * problem.conductivity(T_q, derivative=True)) @ quad.rule.points
    # k grad lambda_j . grad lambda_i + dk/dT lambda_j grad T . grad lambda_i
    blocks = wk[:, None, None] * gg + flux[:, :, None] * wdk[:, None, :]
    J = assemble_csr(geo.scalar_pattern, blocks.ravel())
    # unbuffered, in edge order: a node on two Robin edges gets both
    np.add.at(J.data, problem.robin_diagonal, problem.robin_weight)
    return J


def newton_solve(mesh: Mesh, materials: MaterialSet, bc: ThermalBC,
                 config: NewtonConfig | None = None, source=None,
                 start=None):
    """Solve the nonlinear thermal problem; returns (T, SolveReport).

    The chord method (Kelley, Solving Nonlinear Equations with Newton's
    Method, SIAM 2003, ch. 5): with no factor in hand, J is assembled
    at the current T and solved by :func:`solve_lu`, and that exact
    Newton step is always taken. Later steps solve with its float32
    factor, a lagged Jacobian (Knoll & Keyes, J. Comput. Phys. 193,
    2004), and one is kept only if it cuts the residual norm to
    CHORD_CONTRACTION of the last one or less; a step that does not (a
    NaN norm among them) is dropped, with its factor, so the next step
    factors J at the same T. Each step is taken in full, T + delta,
    from ``start``, one finite value per node (copied, never written),
    or the uniform NEWTON_START without one; with ``config.relative``
    the reference residual is the start's. A solve not converged after
    NEWTON_MAX_ITER kept steps raises ConvergenceError.
    """
    config = config or NewtonConfig()
    problem = ThermalProblem(mesh, materials, bc, source)
    if start is None:
        start = np.full(mesh.num_nodes, NEWTON_START)
    T = np.array(checked_field("start", np.ravel(start), (mesh.num_nodes,),
                               "nodes"))
    bad = np.flatnonzero(~np.isfinite(T))
    if bad.size:
        raise ValueError(f"start is not finite at node {bad[0]}: {T[bad[0]]}")
    report = SolveReport()
    began = time.perf_counter()

    R = assemble_thermal_residual(problem, T)
    norm = _norm(R)
    ref = norm if (config.relative and norm > 0) else 1.0
    report.residuals.append(norm)
    factor = None

    # negated so that a NaN norm enters the loop and is rejected there
    while not norm / ref <= config.abs_tol:
        if not np.isfinite(norm):
            raise ConvergenceError(
                f"Newton residual is not finite ({norm}) after "
                f"{report.iterations} iterations")
        if report.iterations >= NEWTON_MAX_ITER:
            raise ConvergenceError(
                f"Newton did not reach {config.abs_tol:g} in "
                f"{NEWTON_MAX_ITER} iterations (residual {norm:.3e})")
        chord = factor is not None
        if chord:
            delta = -factor.solve(R)
        else:
            J = assemble_thermal_jacobian(problem, T)
            delta, factor, factorizations, _ = solve_lu(J, -R)
            report.factorizations += factorizations
        T_next = T + delta
        R_next = assemble_thermal_residual(problem, T_next)
        norm_next = _norm(R_next)
        # negated so that a chord step leaving a NaN norm is dropped too
        if chord and not norm_next <= CHORD_CONTRACTION * norm:
            factor = None
            continue
        T, R, norm = T_next, R_next, norm_next
        report.iterations += 1
        report.residuals.append(norm)

    report.converged = True
    report.wall_time = time.perf_counter() - began
    return T, report
