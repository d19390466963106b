"""The per-mesh boundary-edge table against a brute-force owner scan."""
from dataclasses import replace

import numpy as np
import pytest

from axitherm.hearth import hearth_mechanical_bc, hearth_mesh, hearth_thermal_bc
from axitherm.mechanical import Displacement, MechanicalBC
from axitherm.mesh import BoundaryTag, Mesh, load_mesh, save_mesh
from axitherm.thermal import Robin, ThermalBC


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
    table = mesh.boundary_edge_table
    n_edges = len(mesh.boundary_edges)
    assert table.ij.shape == (n_edges, 2)
    assert table.tags.shape == (n_edges,) and table.tags.dtype == object
    assert tuple((int(a), int(b), t) for (a, b), t in
                 zip(table.ij, table.tags)) == mesh.boundary_edges
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
    ref = coarse_hearth_mesh.boundary_edge_table
    table = back.boundary_edge_table
    for name in ("ij", "tags", "owner", "normal", "length"):
        assert np.array_equal(getattr(table, name), getattr(ref, name))


def test_table_is_built_once_and_read_only(unit_square_mesh):
    table = unit_square_mesh.boundary_edge_table
    assert unit_square_mesh.boundary_edge_table is table
    for name, value in (("ij", 0), ("tags", BoundaryTag.TOP), ("owner", 0),
                        ("normal", 0.0), ("length", 0.0)):
        with pytest.raises(ValueError, match="read-only"):
            getattr(table, name)[0] = value


def test_conditions_reject_untagged_rows():
    tagged = hearth_mesh(0.4)
    table = tagged.boundary_edge_table
    conds = table.conditions(lambda tag: tag.value)
    assert conds == [tag.value for tag in table.tags]
    # an untagged row would drop its edge's condition unnoticed, so a
    # mesh with one is never made
    (i, j, _), *rest = tagged.boundary_edges
    with pytest.raises(ValueError,
                       match=rf"boundary edge \({i}, {j}\) has no tag"):
        replace(tagged, boundary_edges=[(i, j, None), *rest])
    # the mesh it was made from keeps its own table and tags
    assert tagged.boundary_edge_table is table


def test_condition_groups_follow_identity_in_table_order():
    mesh = hearth_mesh(0.4)
    table = mesh.boundary_edge_table
    bc = hearth_thermal_bc()
    rows, groups = table.condition_groups(bc.lookup, Robin)
    conds = table.conditions(bc.lookup)
    assert rows.tolist() == [e for e, c in enumerate(conds)
                             if isinstance(c, Robin)]
    # BOTTOM and OUTER hold equal but distinct Robin objects
    assert [cond for cond, _ in groups] == [
        bc.lookup(t) for t in dict.fromkeys(table.tags[e] for e in rows)]
    positions = sorted(k for _, ks in groups for k in ks)
    assert positions == list(range(len(rows)))
    for cond, ks in groups:
        assert all(conds[rows[k]] is cond for k in ks)


@pytest.mark.parametrize("make, value", [
    (hearth_mechanical_bc, "traction-free"),
    (hearth_mechanical_bc, "Contact"),
    (hearth_mechanical_bc, Robin(200.0, 300.0)),
    (hearth_thermal_bc, "adiabatc"),
    (hearth_thermal_bc, "contact"),
    (hearth_thermal_bc, None),
    (hearth_thermal_bc, Displacement(lambda r, y: (0.0, 0.0))),
])
def test_conditions_of_the_wrong_kind_are_rejected(make, value):
    # each was once taken as TRACTION_FREE or ADIABATIC, or failed on
    # first use with an AttributeError
    tag = BoundaryTag.OUTER if make is hearth_mechanical_bc else BoundaryTag.TOP
    with pytest.raises(ValueError, match=f"on tag {tag}"):
        type(make())({**make().conditions, tag: value})


def test_edge_on_no_triangle_raises(unit_square_mesh):
    # (0, 0) and (1, 1) are opposite corners, not an edge
    mesh = replace(unit_square_mesh, boundary_edges=[
        (0, unit_square_mesh.num_nodes - 1, BoundaryTag.AXIS)])
    with pytest.raises(ValueError, match="lies on no triangle"):
        mesh.boundary_edge_table


def test_edge_shared_by_three_triangles_raises(tmp_path):
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0],
                      [0.5, 2.0]])
    tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    path = tmp_path / "mesh.txt"
    save_mesh(Mesh(nodes, tris, np.ones(3, int)), path)
    with pytest.raises(ValueError,
                       match=r"edge \(0, 1\) lies on more than two triangles"):
        load_mesh(path)


def test_hand_built_mesh_off_the_axis_raises(unit_square_mesh):
    nodes = unit_square_mesh.nodes
    # the r-weighted forms take negative weights left of r = 0, so such
    # a mesh is never made
    with pytest.raises(ValueError,
                       match=r"node 0 lies left of the axis, at r = -0\.5"):
        replace(unit_square_mesh, nodes=nodes - [0.5, 0.0])
    # the whole square moved to r >= 1, its AXIS rows with it
    moved = replace(unit_square_mesh, nodes=nodes + [1.0, 0.0])
    with pytest.raises(ValueError, match=r"is tagged axis but does not lie "
                                         r"on the axis r = 0"):
        moved.boundary_edge_table
