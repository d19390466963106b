"""Shared finite element machinery.

P1 triangle geometry, r-weighted quadrature, the per-mesh assembly
workspace with its cached scalar sparsity pattern, on which scalar and
two-dof-per-node matrices are assembled, the restriction of a system to
the dofs that are not fixed, the report of a solve, and the one sparse
LU solver, :func:`solve_lu`, for the Jacobian and the stiffness alike:
it factors in single precision, refines in double, and returns a factor
that Newton's chord steps reuse and the residual that it checked. SuperLU
orders every factorization itself, by minimum degree on A^T + A's pattern.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SingularSystemError(RuntimeError):
    pass


class ConvergenceError(RuntimeError):
    pass


@dataclass
class SolveReport:
    """What a solve did: the Newton steps it took, the residual norms of
    its start and after each step (a dropped chord step is in neither)
    and the LU factorizations. A caller that computed the start by
    another solve may keep its report in ``coarse_start``."""

    iterations: int = 0
    residuals: list = field(default_factory=list)
    converged: bool = False
    factorizations: int = 0
    wall_time: float = 0.0
    coarse_start: SolveReport | None = None


@dataclass(frozen=True)
class QuadratureRule:
    """Barycentric points and reference-triangle weights (sum 1/2)."""

    points: np.ndarray   # (Q, 3)
    weights: np.ndarray  # (Q,)


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
        return QuadratureRule(pts, w)
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
        return QuadratureRule(pts, w)
    raise ValueError(f"no triangle rule of degree {degree}")


# 2-point Gauss rule on [0, 1] for boundary (line) integrals
EDGE_GAUSS_POINTS = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
EDGE_GAUSS_WEIGHTS = np.array([0.5, 0.5])


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def read_only(a, dtype=None) -> np.ndarray:
    """``a`` as a read-only array of ``dtype``: ``a`` itself when it
    already is one, else a read-only copy."""
    out = np.asarray(a, dtype)
    if out.flags.writeable:
        return _readonly(out.copy() if out is a else out)
    return out


def _reject_empty_rows(indptr) -> None:
    empty = np.flatnonzero(np.diff(indptr) == 0)
    if len(empty):
        raise SingularSystemError(
            f"structurally singular matrix: row {empty[0]} is empty")


def _index32(a) -> np.ndarray:
    """Read-only int32 copy of an index array, which must fit."""
    if a.size and a.max() > np.iinfo(np.int32).max:
        raise ValueError("sparsity pattern too large for int32 indices")
    return read_only(a, np.int32)


@dataclass(frozen=True)
class CsrPattern:
    """Sorted, duplicate-free CSR structure of an n x n matrix, and for
    each COO entry it serves, that entry's position in the CSR ``data``.

    Summing the COO values into ``data`` through ``scatter`` replaces
    the COO -> CSR conversion (Cuvelier, Japhet & Scarella, "An efficient
    way to assemble finite element matrices in vector languages", BIT
    Numer. Math. 56, 2016). All arrays are int32 and read-only.
    """

    n: int
    indptr: np.ndarray   # (n + 1,)
    indices: np.ndarray  # (nnz,)
    scatter: np.ndarray  # (number of COO entries,)

    @property
    def nnz(self) -> int:
        return len(self.indices)

    @classmethod
    def from_coo(cls, rows, cols, n: int) -> "CsrPattern":
        keys = (np.asarray(rows, np.int64) * n
                + np.asarray(cols, np.int64)).ravel()
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = sorted_keys[1:] != sorted_keys[:-1]
        scatter = np.empty(len(keys), dtype=np.int64)
        scatter[order] = np.cumsum(first) - 1
        unique = sorted_keys[first]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(unique // n, minlength=n), out=indptr[1:])
        return cls(n, _index32(indptr), _index32(unique % n),
                   _index32(scatter))

    def diagonal(self) -> np.ndarray:
        """Position in ``data`` of each diagonal entry (i, i); -1 for a
        row without one."""
        row_of = np.repeat(np.arange(self.n), np.diff(self.indptr))
        on_diagonal = row_of == self.indices
        pos = np.full(self.n, -1)
        pos[row_of[on_diagonal]] = np.flatnonzero(on_diagonal)
        return pos


@dataclass(frozen=True)
class ElementQuadrature:
    """A triangle rule mapped onto every element: point radii ``r`` and
    heights ``y``, and the r-weighted weights ``w`` = weight * 2 * area
    * r, all (M, Q)."""

    rule: QuadratureRule
    r: np.ndarray
    y: np.ndarray
    w: np.ndarray


class AssemblyWorkspace:
    """Per-mesh data shared by thermal and mechanical assembly, stress
    recovery and verification.

    Built once per mesh, as ``Mesh.assembly_workspace``; it refers to the
    mesh's read-only ``nodes``, ``triangles`` and ``tri_subdomain`` and
    holds the element areas and P1 gradients, the centroid radii, quadrature
    points mapped onto the elements, per-subdomain triangle indices,
    and the CSR pattern of the scalar matrices with its element scatter
    map. The mechanical matrix, two dofs per node, is assembled on that
    same pattern as 2x2 blocks that store every entry, zeros included
    (see :func:`assemble_csr`): the solvers' minimum degree ordering of
    that block pattern fills far less than one of the nonzeros alone.
    Parts other than the geometry are computed on first use.
    """

    def __init__(self, mesh):
        # an axitherm.mesh.Mesh, read by attribute: mesh imports this module
        self.nodes = mesh.nodes
        self.triangles = mesh.triangles
        self.tri_subdomain = mesh.tri_subdomain
        p = self.nodes[self.triangles]                      # (M, 3, 2)
        v1 = p[:, 1] - p[:, 0]
        v2 = p[:, 2] - p[:, 0]
        det = v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0]
        if not np.all(np.isfinite(det) & (det > 0)):
            raise ValueError("mesh contains non-positively-oriented or "
                             "non-finite triangles")
        # gradient of hat function i: the edge (j, k) opposite i, rotated
        grads = np.empty((len(p), 3, 2))
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            grads[:, i, 0] = (p[:, j, 1] - p[:, k, 1]) / det
            grads[:, i, 1] = (p[:, k, 0] - p[:, j, 0]) / det
        self.area = _readonly(0.5 * det)
        self.grads = _readonly(grads)
        self.centroid_r = _readonly(p[:, :, 0].mean(axis=1))
        self._coords = p
        self._quadrature = {}

    def quadrature(self, degree: int = 3) -> ElementQuadrature:
        if degree not in self._quadrature:
            rule = triangle_rule(degree)
            r = self._coords[:, :, 0] @ rule.points.T
            y = self._coords[:, :, 1] @ rule.points.T
            w = rule.weights * 2.0 * self.area[:, None] * r
            self._quadrature[degree] = ElementQuadrature(
                rule, _readonly(r), _readonly(y), _readonly(w))
        return self._quadrature[degree]

    @cached_property
    def subdomains(self) -> dict:
        """Subdomain id -> indices of its triangles, ids ascending."""
        return {int(sid): _readonly(np.flatnonzero(self.tri_subdomain == sid))
                for sid in np.unique(self.tri_subdomain)}

    @cached_property
    def grad_products(self) -> np.ndarray:
        """(M, 3, 3) products grad lambda_i . grad lambda_j."""
        return _readonly(self.grads @ self.grads.transpose(0, 2, 1))

    @cached_property
    def scalar_pattern(self) -> CsrPattern:
        """N x N pattern; scatter of the (M, 3, 3) element blocks."""
        tris = self.triangles
        return CsrPattern.from_coo(np.repeat(tris, 3, axis=1),
                                   np.tile(tris, (1, 3)), len(self.nodes))


def apply_constraints(A: sp.csr_matrix, b: np.ndarray, dofs, values):
    """Restrict A x = b to the dofs not fixed, ``dofs`` to ``values``.

    Returns (A[free, free], b[free] - A[free, fixed] x_fixed, free, x).
    The matrix keeps every entry A stores among the free dofs, zeros
    included: the solvers' minimum degree ordering reads that pattern,
    and a P1 stiffness without its exact zeros fills far more. ``free``
    is ascending, and x is a new full vector that holds the prescribed
    values, into which the caller writes the solution at ``free``. A
    dof fixed twice raises ValueError.
    """
    n = A.shape[0]
    dofs = np.asarray(dofs, dtype=np.intp)
    if np.any(dofs < 0) or np.any(dofs >= n):
        raise IndexError("constraint on nonexistent dof")
    is_free = np.ones(n, dtype=bool)
    is_free[dofs] = False
    free = np.flatnonzero(is_free)
    if len(free) + len(dofs) > n:
        raise ValueError("a dof is fixed twice")
    x = np.zeros(n)
    x[dofs] = values
    return A[free][:, free], (b - A @ x)[free], free, x


# Largest relative residual |Ax - b| / |b| a solve may leave.
LU_RTOL = 1e-10

# A refinement step must cut the residual at least this many times, or
# the system goes to the double-precision factor instead.
REFINE_MIN_REDUCTION = 10.0


def _norm(v: np.ndarray) -> float:
    """Every solver's vector norm, by numpy's pairwise sum: unlike the BLAS
    ddot in np.linalg.norm, it sums in one order under any thread count."""
    return np.sqrt(np.sum(v * v))


def _splu(A: sp.csr_matrix, dtype) -> spla.SuperLU:
    """SuperLU factor of A in ``dtype``, with the minimum degree column
    ordering of A^T + A's stored pattern."""
    return spla.splu(A.astype(dtype).tocsc(), permc_spec="MMD_AT_PLUS_A")


@dataclass(frozen=True)
class _Float32Factor:
    """A float32 SuperLU factor applied to float64 right-hand sides."""

    lu: spla.SuperLU

    def solve(self, b: np.ndarray) -> np.ndarray:
        """M^-1 (b / |b|) |b|, inside float32's range; zeros for b = 0.
        The solution is widened before the scaling, which float32 *
        float would keep in single precision."""
        norm = _norm(b)
        if norm == 0:
            return np.zeros(len(b))
        return self.lu.solve((b / norm).astype(np.float32)).astype(float) * norm


def _solve_double(A: sp.csr_matrix, b: np.ndarray):
    """The float64 fallback of :func:`solve_lu`: 2 factorizations, checked."""
    try:
        factor = _splu(A, float)
        x = factor.solve(b)
    except RuntimeError as exc:
        raise SingularSystemError(f"LU factorization failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("LU solve produced non-finite values")
    rnorm, bnorm = _norm(b - A @ x), _norm(b)
    rel = rnorm / bnorm if bnorm > 0 else rnorm
    if not rel <= LU_RTOL:
        raise SingularSystemError(
            f"LU residual {rel:.3e} exceeds {LU_RTOL:g}; "
            "matrix near-singular")
    return x, factor, 2, rel


def solve_lu(A: sp.spmatrix, b: np.ndarray):
    """Solve A x = b to a relative residual <= LU_RTOL; returns (x,
    factor, factorizations, residual), the residual checked: |b - A x| /
    |b|, or |b - A x| for b = 0. A is factored in float32 and x refined
    in float64, x += factor.solve(b - A x) (Carson & Higham, SIAM J. Sci.
    Comput. 40, 2018); the factor solves further systems with A to about
    float32 accuracy, as chord steps need. If that factorization fails,
    or a step cuts the residual less than REFINE_MIN_REDUCTION times (a
    non-finite one does), the float64 factor is made and returned, and
    factorizations is 2, else 1. An empty row, a failed float64
    factorization, a non-finite x or a residual above LU_RTOL raise
    SingularSystemError."""
    A = A.tocsr()
    _reject_empty_rows(A.indptr)
    try:
        with np.errstate(over="ignore"):   # too large for float32: inf
            factor = _Float32Factor(_splu(A, np.float32))
    except RuntimeError:
        return _solve_double(A, b)
    x = np.zeros(len(b))
    r = np.asarray(b, float)
    bnorm = rnorm = _norm(r)
    # negated so that a NaN residual enters the loop and falls back
    while not rnorm <= LU_RTOL * bnorm:
        x += factor.solve(r)
        r = b - A @ x
        previous, rnorm = rnorm, _norm(r)
        if not rnorm * REFINE_MIN_REDUCTION <= previous:
            return _solve_double(A, b)
    return x, factor, 1, rnorm / bnorm if bnorm > 0 else rnorm


def assemble_csr(pattern: CsrPattern, vals) -> sp.csr_matrix:
    """Finalized CSR matrix of ``pattern`` whose entries are the sums of
    the COO values ``vals``, given in the order of ``pattern.scatter``.
    Values of shape (E, 2, 2) are 2x2 blocks: the result is then the
    node-major matrix over the dofs (2 * node, 2 * node + 1) with every
    entry of every block stored, zeros included."""
    vals = np.asarray(vals)
    k = 1 if vals.ndim == 1 else 2
    vals = vals.reshape(-1, k, k)
    data = np.empty((pattern.nnz, k, k))
    for c, d in np.ndindex(k, k):
        data[:, c, d] = np.bincount(pattern.scatter, weights=vals[:, c, d],
                                    minlength=pattern.nnz)
    A = sp.bsr_matrix((data, pattern.indices, pattern.indptr),
                      shape=(k * pattern.n, k * pattern.n)).tocsr()
    A.has_sorted_indices = True
    A.has_canonical_format = True
    return A
