"""Mesh generation, tagging and serialization tests."""
import dataclasses
import tracemalloc

import numpy as np
import pytest

from axitherm.mesh import (
    BoundaryTag,
    HEARTH_CAVITY_SEGMENTS,
    Mesh,
    SubdomainPolygon,
    build_hearth_geometry,
    generate_mesh,
    hearth_mesh,
    load_mesh,
    save_mesh,
    tag_boundaries,
)

# Shoelace area of the hearth cross-section, summed over all polygons.
# Frozen from an independent hand evaluation of the vertex table.
HEARTH_AREA = 20.454675


def _edges_with_tag(mesh, tag):
    """(i, j) node pairs of the boundary edges carrying ``tag``."""
    table = mesh.boundary_edge_table
    rows = np.flatnonzero([t is tag for t in table.tags])
    return list(zip(table.i[rows].tolist(), table.j[rows].tolist()))


class TestSubdomainPolygon:
    def test_shoelace_area_unit_square(self):
        p = SubdomainPolygon(1, ((0, 0), (1, 0), (1, 1), (0, 1)))
        assert p.area() == pytest.approx(1.0)

    def test_rejects_clockwise(self):
        with pytest.raises(ValueError, match="counterclockwise"):
            SubdomainPolygon(1, ((0, 0), (0, 1), (1, 1), (1, 0)))

    def test_rejects_diagonal_edge(self):
        with pytest.raises(ValueError, match="non-axis-aligned"):
            SubdomainPolygon(1, ((0, 0), (1, 1), (0, 1)))

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError, match="r < 0"):
            SubdomainPolygon(1, ((-0.5, 0), (1, 0), (1, 1), (-0.5, 1)))

    def test_contains_even_odd(self):
        p = SubdomainPolygon(1, ((0, 0), (2, 0), (2, 1), (0, 1)))
        pts = np.array([[1.0, 0.5], [3.0, 0.5], [1.0, 2.0]])
        assert list(p.contains(pts)) == [True, False, False]


class TestGenerateMesh:
    def test_positive_orientation(self, unit_square_mesh):
        assert np.all(unit_square_mesh.assembly_workspace.area > 0)

    def test_area_conservation(self, unit_square_mesh):
        area = unit_square_mesh.assembly_workspace.area
        assert area.sum() == pytest.approx(1.0)

    def test_vertices_become_nodes(self):
        poly = SubdomainPolygon(1, ((0, 0), (1, 0), (1, 1), (0.3, 1), (0, 1)))
        mesh = generate_mesh([poly], 0.5)
        for v in poly.vertices:
            d = np.linalg.norm(mesh.nodes - np.asarray(v), axis=1)
            assert d.min() < 1e-12

    def test_h_bound(self):
        poly = SubdomainPolygon(1, ((0, 0), (1, 0), (1, 1), (0, 1)))
        mesh = generate_mesh([poly], 0.3)
        assert mesh.h <= 2 * 0.3

    def test_conformity(self, unit_square_mesh):
        # every interior edge is shared by exactly two triangles
        tris = unit_square_mesh.triangles
        edges = np.concatenate(
            [tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
        key = np.sort(edges, axis=1)
        _, counts = np.unique(key, axis=0, return_counts=True)
        assert set(counts) <= {1, 2}

    def test_interface_tagging(self):
        lower = SubdomainPolygon(1, ((0, 0), (1, 0), (1, 1), (0, 1)))
        upper = SubdomainPolygon(2, ((0, 1), (1, 1), (1, 2), (0, 2)))
        mesh = generate_mesh([lower, upper], 0.5)
        iface = [e for e in mesh.boundary_edges if e[2] is BoundaryTag.INTERFACE]
        assert len(iface) > 0
        for (i, j, _) in iface:
            assert mesh.nodes[i][1] == pytest.approx(1.0)
            assert mesh.nodes[j][1] == pytest.approx(1.0)

    def test_rejects_target_h_above_feature_size(self):
        small = SubdomainPolygon(1, ((0, 0), (0.2, 0), (0.2, 0.2), (0, 0.2)))
        with pytest.raises(ValueError, match="smallest polygon extent"):
            generate_mesh([small], 0.5)

    @pytest.mark.parametrize("h", [float("nan"), float("inf"), 0.0])
    def test_rejects_target_h_not_finite_and_positive(self, h):
        square = SubdomainPolygon(1, ((0, 0), (1, 0), (1, 1), (0, 1)))
        with pytest.raises(ValueError, match="target_h must be finite and positive"):
            generate_mesh([square], h)

    def test_rejects_overlapping_polygons(self):
        a = SubdomainPolygon(1, ((0, 0), (1, 0), (1, 1), (0, 1)))
        b = SubdomainPolygon(2, ((0.5, 0), (1.5, 0), (1.5, 1), (0.5, 1)))
        with pytest.raises(ValueError, match="overlap"):
            generate_mesh([a, b], 0.25)

    def test_cavity_stays_unmeshed(self):
        # a C-shaped pair of blocks around a hole
        left = SubdomainPolygon(1, ((0, 0), (1, 0), (1, 3), (0, 3)))
        right = SubdomainPolygon(1, ((2, 0), (3, 0), (3, 3), (2, 3)))
        mesh = generate_mesh([left, right], 0.5)
        centroids = mesh.nodes[mesh.triangles].mean(axis=1)
        assert not np.any((centroids[:, 0] > 1) & (centroids[:, 0] < 2))

    def test_determinism(self):
        polys = build_hearth_geometry()
        a = generate_mesh(polys, 0.3)
        b = generate_mesh(polys, 0.3)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.triangles, b.triangles)
        assert np.array_equal(a.tri_subdomain, b.tri_subdomain)


class TestTagBoundaries:
    def test_axis_edge(self, unit_square_mesh):
        axis = _edges_with_tag(unit_square_mesh, BoundaryTag.AXIS)
        assert axis
        for (i, j) in axis:
            assert unit_square_mesh.nodes[i][0] == 0.0
            assert unit_square_mesh.nodes[j][0] == 0.0

    def test_every_exterior_edge_tagged(self, unit_square_mesh):
        assert all(t is not None for (_, _, t) in unit_square_mesh.boundary_edges)

    def test_untaggable_edge_raises(self):
        # exterior edges at r = r_max of the *left* block are inner walls
        # unless inner segments say so; here a conflicting segment list
        # leaves them unmatched
        left = SubdomainPolygon(1, ((0, 0), (1, 0), (1, 3), (0, 3)))
        right = SubdomainPolygon(1, ((2, 0), (3, 0), (3, 3), (2, 3)))
        mesh = generate_mesh([left, right], 0.5)
        with pytest.raises(ValueError, match="untaggable"):
            tag_boundaries(mesh, [left, right],
                           inner_segments=[((1.0, 0.0), (1.0, 3.0))])

    def test_tag_multiset_stable_under_refinement(self):
        polys = build_hearth_geometry()
        tags = []
        for h in (0.4, 0.2):
            mesh = hearth_mesh(h)
            tags.append({t for (_, _, t) in mesh.boundary_edges})
        assert tags[0] == tags[1]


def _brute_force_longest_edge(mesh):
    return max(float(np.linalg.norm(mesh.nodes[a] - mesh.nodes[b]))
               for tri in mesh.triangles.tolist()
               for a, b in zip(tri, tri[1:] + tri[:1]))


class TestImmutableMesh:
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Mesh)])
    def test_fields_cannot_be_reassigned(self, unit_square_mesh, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(unit_square_mesh, name, getattr(unit_square_mesh, name))

    @pytest.mark.parametrize("name", ["nodes", "triangles", "tri_subdomain"])
    def test_arrays_are_read_only(self, unit_square_mesh, name):
        a = getattr(unit_square_mesh, name)
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = a[(0,) * a.ndim]

    def test_writable_input_is_copied_and_read_only_input_shared(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        mesh = Mesh(nodes, np.array([[0, 1, 2]]), np.array([1]),
                    [[0, 1, BoundaryTag.BOTTOM]])
        nodes[0, 0] = 5.0
        assert mesh.nodes[0, 0] == 0.0
        assert mesh.triangles.dtype == np.int64
        assert mesh.boundary_edges == ((0, 1, BoundaryTag.BOTTOM),)
        again = dataclasses.replace(mesh, boundary_edges=())
        for name in ("nodes", "triangles", "tri_subdomain"):
            assert getattr(again, name) is getattr(mesh, name)

    def test_tag_boundaries_returns_a_new_mesh(self):
        poly = SubdomainPolygon(1, ((0, 0), (1, 0), (1, 1), (0, 1)))
        plain = generate_mesh([poly], 0.25)
        tagged = tag_boundaries(plain, [poly])
        assert tagged is not plain
        for name in ("nodes", "triangles", "tri_subdomain"):
            assert getattr(tagged, name) is getattr(plain, name)
        assert all(t is None for (_, _, t) in plain.boundary_edges)
        assert all(t is not None for (_, _, t) in tagged.boundary_edges)
        assert [e[:2] for e in tagged.boundary_edges] == \
            [e[:2] for e in plain.boundary_edges]

    def test_h_is_the_longest_edge(self, tmp_path):
        mesh = hearth_mesh(0.4)
        assert mesh.h == _brute_force_longest_edge(mesh)
        save_mesh(mesh, tmp_path / "mesh.txt")
        back = load_mesh(tmp_path / "mesh.txt")
        assert back.h == _brute_force_longest_edge(back) == mesh.h


class TestHearthGeometry:
    def test_seven_polygons_six_subdomains(self):
        polys = build_hearth_geometry()
        assert len(polys) == 7
        assert {p.subdomain_id for p in polys} == set(range(1, 7))

    def test_total_area(self):
        polys = build_hearth_geometry()
        assert sum(p.area() for p in polys) == pytest.approx(HEARTH_AREA)

    def test_mesh_conserves_area(self):
        mesh = hearth_mesh(0.2)
        area = mesh.assembly_workspace.area
        assert area.sum() == pytest.approx(HEARTH_AREA)

    def test_outer_edge_at_reference_radius(self):
        mesh = hearth_mesh(0.4)
        for (i, j) in _edges_with_tag(mesh, BoundaryTag.OUTER):
            assert mesh.nodes[i][0] == pytest.approx(6.0201)
            assert mesh.nodes[j][0] == pytest.approx(6.0201)

    def test_cavity_wall_edge_is_inner(self):
        # 0.15 puts wall nodes on a 0.1 grid along y in [1.6, 2.1]
        mesh = hearth_mesh(0.15)
        inner = _edges_with_tag(mesh, BoundaryTag.INNER)
        target = {(0.39, 1.8), (0.39, 1.9)}
        found = any(
            {tuple(np.round(mesh.nodes[i], 6)),
             tuple(np.round(mesh.nodes[j], 6))} == target
            for (i, j) in inner)
        assert found

    def test_inner_edges_lie_on_cavity_polyline(self):
        mesh = hearth_mesh(0.2)
        segs = [np.asarray(s, float) for s in HEARTH_CAVITY_SEGMENTS]
        for (i, j) in _edges_with_tag(mesh, BoundaryTag.INNER):
            mid = 0.5 * (mesh.nodes[i] + mesh.nodes[j])
            on_any = False
            for s in segs:
                lo = s.min(axis=0) - 1e-9
                hi = s.max(axis=0) + 1e-9
                if np.all(mid >= lo) and np.all(mid <= hi):
                    on_any = True
            assert on_any, f"inner edge off the cavity wall at {mid}"

    def test_all_six_tags_present(self):
        mesh = hearth_mesh(0.1)
        tags = {t for (_, _, t) in mesh.boundary_edges}
        assert tags == set(BoundaryTag)


class TestMeshIO:
    def test_round_trip(self, tmp_path, unit_square_mesh):
        path = tmp_path / "mesh.txt"
        save_mesh(unit_square_mesh, path)
        back = load_mesh(path)
        assert np.allclose(back.nodes, unit_square_mesh.nodes)
        assert np.array_equal(back.triangles, unit_square_mesh.triangles)
        assert np.array_equal(back.tri_subdomain,
                              unit_square_mesh.tri_subdomain)
        assert back.boundary_edges == unit_square_mesh.boundary_edges
        assert back.h == pytest.approx(unit_square_mesh.h)

    def test_round_trip_exact_hearth(self, tmp_path):
        mesh = hearth_mesh(0.1)
        save_mesh(mesh, tmp_path / "mesh.txt")
        back = load_mesh(tmp_path / "mesh.txt")
        assert [repr(v) for v in back.nodes.ravel().tolist()] == \
            [repr(v) for v in mesh.nodes.ravel().tolist()]
        assert np.array_equal(back.triangles, mesh.triangles)
        assert np.array_equal(back.tri_subdomain, mesh.tri_subdomain)
        assert back.boundary_edges == mesh.boundary_edges

    def test_comments_ignored(self, tmp_path, unit_square_mesh):
        path = tmp_path / "mesh.txt"
        save_mesh(unit_square_mesh, path)
        text = "# a comment\n" + path.read_text()
        path.write_text(text)
        back = load_mesh(path)
        assert back.num_nodes == unit_square_mesh.num_nodes

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_comments_blank_lines_and_indents_ignored(self, tmp_path,
                                                      newline):
        mesh = hearth_mesh(0.4)
        save_mesh(mesh, tmp_path / "plain.txt")
        lines = (tmp_path / "plain.txt").read_text().splitlines()
        noisy = ["# hand-edited copy", "", "  # indented comment"]
        for k, line in enumerate(lines):
            noisy.append(f"{' ' * (k % 3)}\t{line}  # row {k}" if k % 2
                         else line)
            if k % 5 == 0:
                noisy.append(" \t ")
        (tmp_path / "noisy.txt").write_text("\n".join(noisy) + "\n",
                                            newline=newline)
        plain = load_mesh(tmp_path / "plain.txt")
        back = load_mesh(tmp_path / "noisy.txt")
        for name in ("nodes", "triangles", "tri_subdomain"):
            assert np.array_equal(getattr(back, name), getattr(plain, name))
            assert np.array_equal(getattr(back, name), getattr(mesh, name))
        assert back.boundary_edges == plain.boundary_edges == mesh.boundary_edges
        assert back.h == plain.h

    def test_save_memory_per_node(self, tmp_path):
        # tracemalloc high-water mark of save_mesh on hearth_mesh(0.1)
        # (4780 nodes): 428 bytes per node; building each row as a
        # Python list or tuple takes 609
        mesh = hearth_mesh(0.1)
        save_mesh(mesh, tmp_path / "mesh.txt")
        tracemalloc.start()
        try:
            save_mesh(mesh, tmp_path / "mesh.txt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / mesh.num_nodes < 500

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text("# nothing but a comment\n")
        with pytest.raises(ValueError, match="empty mesh file"):
            load_mesh(path)

    def test_truncated_file_rejected(self, tmp_path, unit_square_mesh):
        path = tmp_path / "mesh.txt"
        save_mesh(unit_square_mesh, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:unit_square_mesh.num_nodes]) + "\n")
        with pytest.raises(ValueError, match="truncated mesh file"):
            load_mesh(path)
        # cut after the node section: the triangle header is missing
        path.write_text("\n".join(lines[:unit_square_mesh.num_nodes + 2]) + "\n")
        with pytest.raises(ValueError, match="expected 'triangles <count>'"):
            load_mesh(path)

    @pytest.mark.parametrize("section, row", [
        ("triangles", "0 1 {n} 1"),
        ("boundary_edges", "-1 0 axis"),
    ])
    def test_node_id_out_of_range_rejected(self, tmp_path, unit_square_mesh,
                                           section, row):
        path = tmp_path / "mesh.txt"
        save_mesh(unit_square_mesh, path)
        lines = path.read_text().splitlines()
        head = next(k for k, line in enumerate(lines) if line.startswith(section))
        lines[head + 1] = row.format(n=unit_square_mesh.num_nodes)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"node id -?\d+ outside 0\.\."):
            load_mesh(path)

    @pytest.mark.parametrize("row", ["0 1", "0 1 sideways", "0 one axis"])
    def test_malformed_boundary_edge_row_rejected(self, tmp_path,
                                                  unit_square_mesh, row):
        path = tmp_path / "mesh.txt"
        save_mesh(unit_square_mesh, path)
        lines = path.read_text().splitlines()
        head = next(k for k, line in enumerate(lines)
                    if line.startswith("boundary_edges"))
        lines[head + 2] = row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load_mesh(path)
        assert str(err.value) == (
            "boundary_edges row 2: expected 'i j tag' with integer node ids "
            "and tag one of bottom, outer, top, inner, axis, interface, "
            f"untagged, got '{row}'")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_node_rejected(self, tmp_path, unit_square_mesh,
                                      value):
        path = tmp_path / "mesh.txt"
        save_mesh(unit_square_mesh, path)
        lines = path.read_text().splitlines()
        lines[2 + 3] = f"{value} 0.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError,
                           match=rf"node 3 has a non-finite coordinate: "
                                 rf"\({value}, 0\.0\)"):
            load_mesh(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text("not-a-mesh\n")
        with pytest.raises(ValueError):
            load_mesh(path)
