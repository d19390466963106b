"""The per-mesh assembly workspace and its cached CSR patterns.

Every matrix built through a cached pattern is compared with a fresh
COO -> CSR conversion (scipy) of the same element values, so a drift in
the pattern, the scatter maps or the zeros kept shows here, in tier-1.
"""
import numpy as np
import pytest
import scipy.sparse as sp

import axitherm.mesh as mesh_module
from axitherm import mechanical, thermal
from axitherm.fem_core import AssemblyWorkspace, apply_constraints, solve_lu
from axitherm.hearth import hearth_mechanical_bc, hearth_mesh, hearth_thermal_bc
from axitherm.mechanical import recover_stress, solve_mechanical
from axitherm.thermal import (ThermalProblem, assemble_thermal_jacobian,
                              newton_solve)
from axitherm.verification import weighted_l2_error


@pytest.fixture(scope="module")
def mesh():
    return hearth_mesh(0.2)


def _captured(monkeypatch, module):
    """Record the (pattern, values) of every assemble_csr call made from
    ``module`` and the matrix it returned."""
    calls = []
    original = module.assemble_csr

    def recording(pattern, vals):
        A = original(pattern, vals)
        calls.append((np.array(vals), A))
        return A

    monkeypatch.setattr(module, "assemble_csr", recording)
    return calls


def _fresh_csr(rows, cols, vals, n):
    A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    A.sum_duplicates()
    A.sort_indices()
    return A


def _assert_same_matrix(A, ref):
    assert A.has_sorted_indices
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    scale = np.abs(ref.data).max()
    assert np.abs(A.data - ref.data).max() <= 1e-14 * scale


def test_jacobian_matches_fresh_coo_build(monkeypatch, mesh, hearth_materials,
                                          rng):
    calls = _captured(monkeypatch, thermal)
    T = 300.0 + 1200.0 * rng.random(mesh.num_nodes)
    problem = ThermalProblem(mesh, hearth_materials, hearth_thermal_bc())
    J = assemble_thermal_jacobian(problem, T)
    (vals, A), = calls
    assert A is J
    # element blocks (M, 3, 3) row-major, then the lumped Robin mass of
    # each edge on the diagonal entries of its two end nodes
    tris = mesh.triangles
    ij = problem.robin_ij.ravel()
    rows = np.concatenate([np.repeat(tris, 3, axis=1).ravel(), ij])
    cols = np.concatenate([np.tile(tris, (1, 3)).ravel(), ij])
    ref = _fresh_csr(rows, cols,
                     np.concatenate([vals, problem.robin_weight.ravel()]),
                     mesh.num_nodes)
    _assert_same_matrix(J, ref)


def test_stiffness_matches_fresh_coo_build(monkeypatch, mesh, hearth_materials,
                                           rng):
    calls = _captured(monkeypatch, mechanical)
    T = 300.0 + 1200.0 * rng.random(mesh.num_nodes)
    mechanical.assemble_mechanical_system(mesh, hearth_materials,
                                          hearth_mechanical_bc(), T)
    (vals, K), = calls
    # a 2x2 block per vertex pair (i, j) of each element, in the order of
    # the scalar pattern's scatter, over the dofs (2n, 2n + 1)
    tris = mesh.triangles
    assert vals.shape == (9 * len(tris), 2, 2)
    node_rows = np.repeat(tris, 3, axis=1).ravel()[:, None, None]
    node_cols = np.tile(tris, (1, 3)).ravel()[:, None, None]
    rows, cols = np.broadcast_arrays(2 * node_rows + np.arange(2)[:, None],
                                     2 * node_cols + np.arange(2))
    ref = _fresh_csr(rows.ravel(), cols.ravel(), vals.ravel(),
                     2 * mesh.num_nodes)
    _assert_same_matrix(K, ref)
    # K is bitwise symmetric and keeps its pattern
    assert (K != K.T).nnz == 0


def test_built_once_per_mesh(monkeypatch, hearth_materials):
    builds = []

    class Counting(AssemblyWorkspace):
        def __init__(self, *args):
            builds.append(1)
            super().__init__(*args)

    monkeypatch.setattr(mesh_module, "AssemblyWorkspace", Counting)
    mesh = hearth_mesh(0.4)
    T, _ = newton_solve(mesh, hearth_materials, hearth_thermal_bc())
    u, _ = solve_mechanical(mesh, hearth_materials, hearth_mechanical_bc(), T)
    recover_stress(mesh, hearth_materials, T, u)
    weighted_l2_error(mesh, T, lambda r, y: 0.0 * r)
    assert len(builds) == 1
    assert mesh.assembly_workspace is mesh.assembly_workspace


def test_arrays_are_read_only(mesh, hearth_materials):
    ws = mesh.assembly_workspace
    # the mesh's own arrays, not copies
    for name in ("nodes", "triangles", "tri_subdomain"):
        assert getattr(ws, name) is getattr(mesh, name)
    quads = [ws.quadrature(3), ws.quadrature(5)]
    arrays = [ws.nodes, ws.triangles, ws.tri_subdomain, ws.area, ws.grads,
              ws.centroid_r, ws.grad_products]
    arrays += [a for q in quads for a in (q.r, q.y, q.w)]
    arrays += list(ws.subdomains.values())
    p = ws.scalar_pattern
    arrays += [p.indptr, p.indices, p.scatter]
    assert p.scatter.dtype == np.int32
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1


def test_stiffness_keeps_its_block_pattern(hearth_materials):
    # every entry of every 2x2 block stays stored, and so does every one
    # among the free dofs when the system is restricted to them: the
    # exact zeros a P1 stiffness holds on right triangles, dropped, leave
    # a graph whose minimum degree ordering fills far more
    mesh = hearth_mesh(0.1)
    T, _ = newton_solve(mesh, hearth_materials, hearth_thermal_bc())
    K, f, dofs, values = mechanical.assemble_mechanical_system(
        mesh, hearth_materials, hearth_mechanical_bc(), T)
    assert K.nnz == 4 * mesh.assembly_workspace.scalar_pattern.nnz
    K_ff, f_f, free, _ = apply_constraints(K, f, dofs, values)
    is_free = np.zeros(K.shape[0], dtype=bool)
    is_free[free] = True
    rows = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
    assert K_ff.nnz == np.count_nonzero(is_free[rows] & is_free[K.indices])
    x, factor = solve_lu(K_ff, f_f)
    dropped = K_ff.copy()
    dropped.eliminate_zeros()
    assert dropped.nnz < K_ff.nnz
    _, dropped_factor = solve_lu(dropped, f_f)
    assert factor.nnz <= 0.9 * dropped_factor.nnz
    assert np.linalg.norm(K_ff @ x - f_f) <= 1e-12 * np.linalg.norm(f_f)
