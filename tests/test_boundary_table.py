"""The per-mesh boundary-edge table against a brute-force owner scan."""
import numpy as np
import pytest

from axitherm.mesh import (
    BoundaryTag,
    Mesh,
    _collect_boundary_edges,
    hearth_mesh,
    load_mesh,
    save_mesh,
)


def _brute_force(mesh, i, j):
    """Owner, its third node, outward unit normal and length of edge
    (i, j), found by scanning every triangle. Every edge here is
    axis-aligned, so normals and lengths are exact in any evaluation
    order."""
    tris = mesh.triangles
    owner = int(np.flatnonzero(np.any(tris == i, axis=1)
                               & np.any(tris == j, axis=1))[0])
    k = [n for n in tris[owner] if n != i and n != j][0]
    p, q, o = mesh.nodes[i], mesh.nodes[j], mesh.nodes[k]
    t = q - p
    n = np.array([t[1], -t[0]])
    if n @ (o - p) > 0:
        n = -n
    return owner, k, n / np.linalg.norm(n), np.linalg.norm(t)


def _check_table(mesh):
    table = mesh.boundary_edge_table()
    assert len(table.i) == len(mesh.boundary_edges)
    assert [(int(a), int(b), t) for a, b, t in
            zip(table.i, table.j, table.tags)] == mesh.boundary_edges
    for e, (i, j, _) in enumerate(mesh.boundary_edges):
        owner, k, normal, length = _brute_force(mesh, i, j)
        assert table.owner[e] == owner
        assert {i, j} <= set(mesh.triangles[owner].tolist())
        n = table.normal[e]
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-15)
        assert n @ (mesh.nodes[k] - mesh.nodes[i]) < 0
        assert np.array_equal(n, normal)
        assert table.length[e] == length


def test_unit_square(unit_square_mesh):
    _check_table(unit_square_mesh)


def test_hearth():
    _check_table(hearth_mesh(0.5))


def test_loaded_mesh(tmp_path, coarse_hearth_mesh):
    path = tmp_path / "mesh.txt"
    save_mesh(coarse_hearth_mesh, path)
    back = load_mesh(path)
    _check_table(back)
    ref = coarse_hearth_mesh.boundary_edge_table()
    table = back.boundary_edge_table()
    for name in ("i", "j", "owner", "normal", "length"):
        assert np.array_equal(getattr(table, name), getattr(ref, name))


def test_interface_owner_is_lowest_numbered_triangle(coarse_hearth_mesh):
    table = coarse_hearth_mesh.boundary_edge_table()
    rows = np.flatnonzero([t is BoundaryTag.INTERFACE for t in table.tags])
    assert len(rows) > 0
    tris = coarse_hearth_mesh.triangles
    for e in rows:
        both = np.flatnonzero(np.any(tris == table.i[e], axis=1)
                              & np.any(tris == table.j[e], axis=1))
        assert len(both) == 2
        assert table.owner[e] == both.min()


def test_table_is_built_once_and_read_only(unit_square_mesh):
    table = unit_square_mesh.boundary_edge_table()
    assert unit_square_mesh.boundary_edge_table() is table
    with pytest.raises(ValueError):
        table.normal[0, 0] = 0.0


def test_replacing_boundary_edges_rebuilds_table(unit_square_mesh):
    mesh = Mesh(nodes=unit_square_mesh.nodes,
                triangles=unit_square_mesh.triangles,
                tri_subdomain=unit_square_mesh.tri_subdomain,
                boundary_edges=list(unit_square_mesh.boundary_edges))
    old = mesh.boundary_edge_table()
    mesh.boundary_edges = [e for e in mesh.boundary_edges
                           if e[2] is BoundaryTag.AXIS]
    new = mesh.boundary_edge_table()
    assert new is not old
    assert set(new.tags) == {BoundaryTag.AXIS}
    _check_table(mesh)
    # an edit in place is seen as well
    mesh.boundary_edges.pop()
    assert len(mesh.boundary_edge_table().i) == len(mesh.boundary_edges)


def test_conditions_skip_interface_and_untagged_rows():
    mesh = hearth_mesh(0.4)
    mesh.boundary_edges[0] = mesh.boundary_edges[0][:2] + (None,)
    table = mesh.boundary_edge_table()
    conds = table.conditions(lambda tag: tag.value)
    assert len(conds) == len(table.tags)
    for tag, cond in zip(table.tags, conds):
        exterior = tag is not None and tag is not BoundaryTag.INTERFACE
        assert cond == (tag.value if exterior else None)
    assert conds[0] is None
    assert any(c is None for c, t in zip(conds, table.tags)
               if t is BoundaryTag.INTERFACE)


def test_edge_on_no_triangle_raises(unit_square_mesh):
    # (0, 0) and (1, 1) are opposite corners, not an edge
    mesh = Mesh(nodes=unit_square_mesh.nodes,
                triangles=unit_square_mesh.triangles,
                tri_subdomain=unit_square_mesh.tri_subdomain,
                boundary_edges=[(0, unit_square_mesh.num_nodes - 1, None)])
    with pytest.raises(ValueError, match="lies on no triangle"):
        mesh.boundary_edge_table()


def test_edge_shared_by_three_triangles_raises():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0],
                      [0.5, 2.0]])
    tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    mesh = Mesh(nodes=nodes, triangles=tris, tri_subdomain=np.ones(3, int))
    with pytest.raises(ValueError, match=r"non-conforming edge \(0, 1\)"):
        _collect_boundary_edges(mesh)
