"""Shared finite element machinery.

P1 triangle shape functions, r-weighted quadrature, sparse assembly
helpers, symmetric constraint elimination and the linear solvers (sparse
LU by default, conjugate gradients as the alternative).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SingularSystemError(RuntimeError):
    pass


class ConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class QuadratureRule:
    """Barycentric points and reference-triangle weights (sum 1/2)."""

    points: np.ndarray   # (Q, 3)
    weights: np.ndarray  # (Q,)
    degree: int


def triangle_rule(degree: int = 3) -> QuadratureRule:
    if degree <= 3:
        # classic 4-point degree-3 rule (one negative weight)
        pts = np.array([
            [1 / 3, 1 / 3, 1 / 3],
            [0.6, 0.2, 0.2],
            [0.2, 0.6, 0.2],
            [0.2, 0.2, 0.6],
        ])
        w = np.array([-27.0, 25.0, 25.0, 25.0]) / 96.0
        return QuadratureRule(pts, w, 3)
    if degree <= 5:
        a, b = 0.059715871789770, 0.470142064105115
        c, d = 0.797426985353087, 0.101286507323456
        pts = np.array([
            [1 / 3, 1 / 3, 1 / 3],
            [a, b, b], [b, a, b], [b, b, a],
            [c, d, d], [d, c, d], [d, d, c],
        ])
        w = 0.5 * np.array([0.225,
                            0.132394152788506, 0.132394152788506,
                            0.132394152788506,
                            0.125939180544827, 0.125939180544827,
                            0.125939180544827])
        return QuadratureRule(pts, w, 5)
    raise ValueError(f"no triangle rule of degree {degree}")


# 2-point Gauss rule on [0, 1] for boundary (line) integrals
EDGE_GAUSS_POINTS = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
EDGE_GAUSS_WEIGHTS = np.array([0.5, 0.5])


def shape_functions(bary):
    """P1 hat function values and their constant reference gradients.

    Reference triangle (0,0)-(1,0)-(0,1) with barycentric coordinates
    (1-x-y, x, y).
    """
    bary = np.asarray(bary, float)
    if np.any(bary < -1e-12) or abs(bary.sum() - 1.0) > 1e-12:
        raise ValueError("barycentric coordinates must be nonnegative and sum to 1")
    grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    return bary.copy(), grads


@dataclass
class TriangleGeometry:
    """Per-element geometry precomputed for vectorized assembly."""

    coords: np.ndarray  # (M, 3, 2)
    area: np.ndarray    # (M,)
    grads: np.ndarray   # (M, 3, 2) physical gradients of the hat functions

    @classmethod
    def from_mesh(cls, nodes, triangles) -> "TriangleGeometry":
        p = nodes[triangles]
        v1 = p[:, 1] - p[:, 0]
        v2 = p[:, 2] - p[:, 0]
        det = v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0]
        if np.any(det <= 0):
            raise ValueError("mesh contains non-positively-oriented triangles")
        area = 0.5 * det
        grads = np.empty((len(p), 3, 2))
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            grads[:, i, 0] = (p[:, j, 1] - p[:, k, 1]) / det
            grads[:, i, 1] = (p[:, k, 0] - p[:, j, 0]) / det
        return cls(coords=p, area=area, grads=grads)


def integrate_weighted(triangle, f, rule: QuadratureRule | None = None) -> float:
    """Integral of f(r, y) * r over one triangle via mapped quadrature."""
    if rule is None:
        rule = triangle_rule(3)
    p = np.asarray(triangle, float)
    det = ((p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
           - (p[1, 1] - p[0, 1]) * (p[2, 0] - p[0, 0]))
    if det <= 0:
        raise ValueError("triangle must have positive signed area")
    pts = rule.points @ p  # (Q, 2)
    vals = np.array([f(r, y) for r, y in pts])
    return float(np.sum(rule.weights * det * vals * pts[:, 0]))


@dataclass
class DofMap:
    """Node-major dof numbering with a constrained set.

    dof = node * components + component. Constrained dofs carry
    prescribed values and are eliminated symmetrically.
    """

    num_nodes: int
    components: int = 1
    constraints: dict = field(default_factory=dict)  # dof -> value

    @property
    def size(self) -> int:
        return self.num_nodes * self.components

    def dof(self, node: int, component: int = 0) -> int:
        return node * self.components + component

    def constrain(self, node: int, component: int = 0, value: float = 0.0):
        d = self.dof(node, component)
        if not 0 <= d < self.size:
            raise IndexError(f"dof {d} out of range 0..{self.size - 1}")
        self.constraints[d] = value


def apply_constraints(A: sp.csr_matrix, b: np.ndarray, dofs: DofMap):
    """Symmetric elimination of constrained dofs.

    Rows and columns of constrained dofs are zeroed, the diagonal set to
    one and the right-hand side adjusted so the solution takes the
    prescribed values exactly. Symmetric input stays symmetric.
    """
    if not dofs.constraints:
        return A.tocsr(), b.copy()
    n = A.shape[0]
    idx = np.fromiter(dofs.constraints.keys(), dtype=int)
    if np.any(idx < 0) or np.any(idx >= n):
        raise IndexError("constraint on nonexistent dof")
    vals = np.fromiter((dofs.constraints[i] for i in idx), dtype=float)

    x_c = np.zeros(n)
    x_c[idx] = vals
    b = b - A @ x_c

    mask = np.ones(n, dtype=bool)
    mask[idx] = False
    keep = sp.diags(mask.astype(float), format="csr")
    A = keep @ A @ keep
    A = A + sp.diags((~mask).astype(float), format="csr")
    b[idx] = vals
    A = A.tocsr()
    A.sort_indices()
    return A, b


def solve_lu(A: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """Sparse LU solve with a residual check (<= 1e-10 relative)."""
    A = A.tocsc()
    n = A.shape[0]
    empty = np.flatnonzero(np.diff(A.tocsr().indptr) == 0)
    if len(empty):
        raise SingularSystemError(
            f"structurally singular matrix: row {empty[0]} is empty")
    try:
        lu = spla.splu(A)
        x = lu.solve(b)
    except RuntimeError as exc:
        raise SingularSystemError(f"LU factorization failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("LU solve produced non-finite values")
    bnorm = np.linalg.norm(b)
    if bnorm > 0:
        rel = np.linalg.norm(A @ x - b) / bnorm
        if rel > 1e-10:
            raise SingularSystemError(
                f"LU residual {rel:.3e} exceeds 1e-10; matrix near-singular")
    return x


def solve_cg(A: sp.spmatrix, b: np.ndarray, tol: float = 1e-10,
             max_iter: int | None = None) -> np.ndarray:
    """Conjugate gradients with diagonal scaling for SPD systems."""
    A = A.tocsr()
    n = A.shape[0]
    if max_iter is None:
        max_iter = 10 * n
    diag = A.diagonal()
    if np.any(diag <= 0):
        raise SingularSystemError("CG requires a positive diagonal")
    minv = 1.0 / diag

    x = np.zeros(n)
    r = b - A @ x
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return x
    z = minv * r
    p = z.copy()
    rz = r @ z
    for it in range(1, max_iter + 1):
        Ap = A @ p
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        res = np.linalg.norm(r) / bnorm
        if res <= tol:
            return x
        z = minv * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise ConvergenceError(
        f"CG did not converge in {max_iter} iterations "
        f"(relative residual {np.linalg.norm(r) / bnorm:.3e})")


def solve(A, b, method: str = "lu", **kwargs) -> np.ndarray:
    if method == "lu":
        return solve_lu(A, b)
    if method == "cg":
        return solve_cg(A, b, **kwargs)
    raise ValueError(f"unknown solver '{method}'")


def assemble_csr(rows, cols, vals, n: int) -> sp.csr_matrix:
    """COO triplets -> finalized CSR with sorted, deduplicated indices."""
    A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    A.sum_duplicates()
    A.sort_indices()
    return A
