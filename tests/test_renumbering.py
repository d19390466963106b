"""A renumbered mesh gives the same answer.

The hearth at h = 0.2 is rebuilt by hand with its node ids, its
triangle order, each triangle's vertices (rotated cyclically, so the
orientation holds) and its boundary rows permuted at random. That one
test covers the edge table, both assemblies, SuperLU's own column
ordering, stress recovery and isoline extraction.
"""
import numpy as np
import pytest

from axitherm.hearth import (build_hearth_materials, hearth_mechanical_bc,
                             hearth_mesh, hearth_thermal_bc)
from axitherm.isoline import extract_isoline
from axitherm.mechanical import recover_stress, solve_mechanical
from axitherm.mesh import Mesh
from axitherm.thermal import newton_solve

LEVELS = (1423.0, 1000.0)


def _renumbered(mesh, rng):
    """(mesh, new_id, order): ``mesh`` with old node k as node new_id[k]
    and new triangle t as old triangle order[t]."""
    n, m = mesh.num_nodes, len(mesh.triangles)
    new_id = rng.permutation(n)
    nodes = np.empty_like(mesh.nodes)
    nodes[new_id] = mesh.nodes
    order = rng.permutation(m)
    tris = new_id[mesh.triangles[order]]
    turn = (np.arange(3) + rng.integers(0, 3, (m, 1))) % 3
    tris = np.take_along_axis(tris, turn, axis=1)
    rows = [(*sorted(new_id[[i, j]].tolist()), tag)
            for i, j, tag in mesh.boundary_edges]
    rows = [rows[k] for k in rng.permutation(len(rows))]
    # built by hand, so it passes the checks every Mesh makes
    return Mesh(nodes, tris, mesh.tri_subdomain[order], rows), new_id, order


def _solve(mesh):
    materials = build_hearth_materials()
    T, thermal = newton_solve(mesh, materials, hearth_thermal_bc())
    u, mechanical = solve_mechanical(mesh, materials, hearth_mechanical_bc(), T)
    stress = recover_stress(mesh, materials, T, u)
    isolines = [extract_isoline(mesh, T, level).polylines for level in LEVELS]
    return T, u, stress, isolines, thermal, mechanical


@pytest.fixture(scope="module")
def reference():
    mesh = hearth_mesh(0.2)
    return mesh, _solve(mesh)


@pytest.mark.parametrize("seed", [0, 1])
def test_renumbered_hearth_gives_the_same_answer(reference, seed):
    mesh, (T, u, stress, isolines, thermal, mechanical) = reference
    permuted, new_id, order = _renumbered(mesh, np.random.default_rng(seed))
    assert not np.array_equal(permuted.triangles, mesh.triangles)
    T2, u2, stress2, isolines2, thermal2, mechanical2 = _solve(permuted)
    assert (thermal2.iterations, thermal2.factorizations) == \
        (thermal.iterations, thermal.factorizations) == (7, 3)
    assert mechanical2.factorizations == mechanical.factorizations == 1
    # measured, seeds 0 and 1: up to 8.0e-13 K, and 1.1e-11 and 6.6e-12
    # of the max norms
    assert np.abs(T2[new_id] - T).max() <= 1e-10
    assert np.abs(u2[new_id] - u).max() <= 1e-9 * np.abs(u).max()
    assert np.abs(stress2 - stress[order]).max() <= 1e-9 * np.abs(stress).max()
    for lines, lines2 in zip(isolines, isolines2):
        assert len(lines2) == len(lines) > 0
        assert sorted(map(len, lines2)) == sorted(map(len, lines))
        points, points2 = (np.array(sorted(p for line in ls for p in line))
                           for ls in (lines, lines2))
        # measured: up to 5.9e-14 m
        assert np.abs(points2 - points).max() <= 1e-12
