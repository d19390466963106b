"""Shared finite element machinery.

P1 triangle geometry, r-weighted quadrature, the per-mesh assembly
workspace with its cached scalar sparsity pattern, on which scalar and
two-dof-per-node matrices are assembled, symmetric elimination of fixed
dofs, the per-mesh fill-reducing node ordering and the sparse LU
solvers: :func:`solve_lu`, whose double-precision factor can be reused
(Newton's Jacobian preconditions GMRES with it), and
:func:`solve_refined` for one-shot solves (the stiffness), which
factors in single precision and refines in double to the same residual
bound.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    same pattern as 2x2 blocks (see :func:`assemble_csr`). Parts other
    than the geometry are computed on first use.
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

    @cached_property
    def node_order(self) -> np.ndarray:
        """Fill-reducing node numbering for every factorization on this
        mesh (node k of it is node ``node_order[k]``): SuperLU's minimum
        degree ordering of the scalar pattern. Matrices with two dofs
        per node are factored in it expanded to the pairs (2n, 2n + 1),
        which fills less than ordering their own pattern.

        It is read off an incomplete factorization that drops every
        entry: the same permutation as a full LU's, at a fraction of its
        cost. The matrix must have exactly the pattern (-1 off the
        diagonal, row degree + 1 on it): a P1 stiffness has exact zeros
        on right triangles that a sum such as ``K + I`` would drop, and
        the ordering of that smaller graph fills far more.
        """
        pat = self.scalar_pattern
        _reject_empty_rows(pat.indptr)
        length = np.diff(pat.indptr)
        rows = np.repeat(np.arange(pat.n), length)
        data = np.where(rows == pat.indices, length[rows], -1.0)
        S = sp.csr_matrix((data, pat.indices, pat.indptr),
                          shape=(pat.n, pat.n)).tocsc()
        ilu = spla.spilu(S, permc_spec="MMD_AT_PLUS_A", drop_tol=1e30,
                         fill_factor=1)
        return _readonly(np.argsort(ilu.perm_c))


def apply_constraints(A: sp.csr_matrix, b: np.ndarray, fixed: dict):
    """Symmetric elimination of the dofs in ``fixed`` (dof -> value).

    Rows and columns of fixed dofs are zeroed, the diagonal set to
    one and the right-hand side adjusted so the solution takes the
    prescribed values exactly. Symmetric input stays symmetric. The
    result is a new sorted CSR matrix that stores no zeros.
    """
    if not fixed:
        return A.tocsr(), b.copy()
    n = A.shape[0]
    idx = np.fromiter(fixed.keys(), dtype=int)
    if np.any(idx < 0) or np.any(idx >= n):
        raise IndexError("constraint on nonexistent dof")
    vals = np.fromiter(fixed.values(), dtype=float)

    x_c = np.zeros(n)
    x_c[idx] = vals
    b = b - A @ x_c
    b[idx] = vals

    A = sp.csr_matrix(A, copy=True)
    A.sum_duplicates()
    is_fixed = np.zeros(n, dtype=bool)
    is_fixed[idx] = True
    A.data[np.repeat(is_fixed, np.diff(A.indptr)) | is_fixed[A.indices]] = 0.0
    A[idx, idx] = 1.0
    A.eliminate_zeros()
    return A, b


# Largest relative residual |Ax - b| / |b| a solve may leave.
LU_RTOL = 1e-10


@dataclass(frozen=True)
class LuFactor:
    """SuperLU factor of ``A[order][:, order]`` that solves in A's own
    numbering."""

    superlu: spla.SuperLU
    order: np.ndarray

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b)
        x[self.order] = self.superlu.solve(b[self.order])
        return x


def _permuted_csc(A: sp.csr_matrix, order, dtype=None) -> sp.csc_matrix:
    """``A[order][:, order]`` in CSC form, entry for entry, built with
    one copy of A: its column ids renumbered, one CSR -> CSC pass, then
    the row ids renumbered and sorted within each column. With a
    ``dtype``, that one copy holds the values cast to it."""
    rank = np.empty(A.shape[0], dtype=A.indices.dtype)
    rank[order] = np.arange(A.shape[0], dtype=rank.dtype)
    data = A.data if dtype is None else A.data.astype(dtype)
    C = sp.csr_matrix((data, rank[A.indices], A.indptr),
                      shape=A.shape).tocsc()
    C.indices = rank[C.indices]
    C.has_sorted_indices = False
    C.sort_indices()
    return C


def solve_lu(A: sp.spmatrix, b: np.ndarray, order):
    """Sparse LU solve with a residual check (<= LU_RTOL relative).

    Returns (x, factor); the :class:`LuFactor` solves further systems
    with the same matrix. ``order`` is a fill-reducing numbering of the
    unknowns, such as :attr:`AssemblyWorkspace.node_order`; A is
    factored in that numbering with no further column ordering.
    """
    A = A.tocsr()
    _reject_empty_rows(A.indptr)
    try:
        factor = LuFactor(
            spla.splu(_permuted_csc(A, order), permc_spec="NATURAL"), order)
        x = factor.solve(b)
    except RuntimeError as exc:
        raise SingularSystemError(f"LU factorization failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("LU solve produced non-finite values")
    bnorm = np.linalg.norm(b)
    if bnorm > 0:
        rel = np.linalg.norm(A @ x - b) / bnorm
        if rel > LU_RTOL:
            raise SingularSystemError(
                f"LU residual {rel:.3e} exceeds {LU_RTOL:g}; "
                "matrix near-singular")
    return x, factor


# A refinement step must cut the residual at least this many times, or
# solve_refined gives the system to solve_lu instead.
REFINE_MIN_REDUCTION = 10.0


def solve_refined(A: sp.spmatrix, b: np.ndarray, order) -> np.ndarray:
    """One-shot solve of A x = b to the residual bound of :func:`solve_lu`
    (<= LU_RTOL relative) from a single-precision factor, which holds
    about 60% of the memory of a double-precision one.

    A is factored in float32 in the numbering ``order``, then x is
    refined in float64: r = b - A x, x += M^-1 (r / |r|) |r|, where the
    scaling by |r| keeps each correction inside float32's range
    (Carson & Higham, SIAM J. Sci. Comput. 40, 2018). The system goes
    to :func:`solve_lu` instead, with its checks and messages, if the
    float32 factorization fails or a step cuts the residual less than
    REFINE_MIN_REDUCTION times, as one whose correction is not finite
    does.
    """
    A = A.tocsr()
    _reject_empty_rows(A.indptr)
    try:
        with np.errstate(over="ignore"):   # too large for float32: inf
            superlu = spla.splu(_permuted_csc(A, order, np.float32),
                                permc_spec="NATURAL")
    except RuntimeError:
        return solve_lu(A, b, order)[0]
    x = np.zeros(len(b))
    r = np.asarray(b, float)
    rnorm = np.linalg.norm(r)
    bound = LU_RTOL * rnorm
    # negated so that a NaN residual enters the loop and falls back
    while not rnorm <= bound:
        dx = np.empty_like(x)
        dx[order] = superlu.solve((r[order] / rnorm).astype(np.float32))
        dx *= rnorm
        x += dx
        r = b - A @ x
        previous, rnorm = rnorm, np.linalg.norm(r)
        if not rnorm * REFINE_MIN_REDUCTION <= previous:
            return solve_lu(A, b, order)[0]
    return x


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
