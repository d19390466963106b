"""Mesh generation, tagging and serialization tests."""
import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axitherm.hearth import HEARTH_POLYGONS, hearth_mesh
from axitherm.mesh import (
    GEOM_TOL,
    BoundaryTag,
    Mesh,
    SubdomainPolygon,
    generate_mesh,
    interpolate,
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
    return list(map(tuple, table.ij[table.tags == tag].tolist()))


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
        # the edges where the subdomains meet get no row: the conforming
        # mesh carries T and flux across them with no boundary term
        assert {t for (_, _, t) in mesh.boundary_edges} == {
            BoundaryTag.AXIS, BoundaryTag.BOTTOM, BoundaryTag.OUTER,
            BoundaryTag.TOP}
        on_interface = [(i, j) for (i, j, _) in mesh.boundary_edges
                        if mesh.nodes[i][1] == mesh.nodes[j][1] == 1.0]
        assert on_interface == []
        # and the rows that are left run once round the outline
        length = sum(np.linalg.norm(mesh.nodes[j] - mesh.nodes[i])
                     for (i, j, _) in mesh.boundary_edges)
        assert length == pytest.approx(2 * (1 + 2))

    _OUTLINES = pytest.mark.parametrize("polygons, h", [
        (HEARTH_POLYGONS, 0.5),
        ([SubdomainPolygon(1, ((0.5, 0), (1.5, 0), (1.5, 1), (0.5, 1)))], 0.25),
    ], ids=["hearth", "annulus"])

    @_OUTLINES
    def test_every_row_is_tagged(self, polygons, h):
        mesh = generate_mesh(polygons, h)
        assert mesh.boundary_edges
        assert all(isinstance(t, BoundaryTag)
                   for (_, _, t) in mesh.boundary_edges)

    @_OUTLINES
    def test_tagging_again_finds_the_same_rows(self, polygons, h):
        mesh = generate_mesh(polygons, h)
        assert tag_boundaries(mesh).boundary_edges == mesh.boundary_edges

    def test_rejects_target_h_above_feature_size(self):
        small = SubdomainPolygon(1, ((0, 0), (0.2, 0), (0.2, 0.2), (0, 0.2)))
        with pytest.raises(ValueError, match="smallest polygon extent"):
            generate_mesh([small], 0.5)

    def test_feature_size_error_prints_the_extent_as_tabulated(self):
        # 1.6 - 1.0 is 0.6000000000000001 in binary
        with pytest.raises(ValueError, match=r"extent 0\.6 \(subdomain 3\)"):
            generate_mesh(HEARTH_POLYGONS, 0.61)

    @pytest.mark.parametrize("h", [float("nan"), float("inf"), 0.0])
    def test_rejects_target_h_not_finite_and_positive(self, h):
        square = SubdomainPolygon(1, ((0, 0), (1, 0), (1, 1), (0, 1)))
        with pytest.raises(ValueError, match="target_h must be finite and positive"):
            generate_mesh([square], h)

    def test_rejects_no_polygons(self):
        with pytest.raises(ValueError, match="at least one polygon"):
            generate_mesh([], 0.1)

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
        polys = HEARTH_POLYGONS
        a = generate_mesh(polys, 0.3)
        b = generate_mesh(polys, 0.3)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.triangles, b.triangles)
        assert np.array_equal(a.tri_subdomain, b.tri_subdomain)

    def test_cell_triangles_are_consecutive(self, coarse_hearth_mesh):
        # each grid cell gives a lower and an upper triangle on its
        # lower-left to upper-right diagonal, numbered one after the other
        tris = coarse_hearth_mesh.triangles
        sub = coarse_hearth_mesh.tri_subdomain
        assert len(tris) % 2 == 0
        assert np.array_equal(tris[0::2][:, [0, 2]], tris[1::2][:, [0, 1]])
        assert np.array_equal(sub[0::2], sub[1::2])


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
        # a step in the outer wall: its horizontal edge at y = 1 reaches
        # r_max without lying on it, so it is neither OUTER nor INNER
        step = SubdomainPolygon(1, ((0, 0), (3, 0), (3, 1), (2, 1), (2, 3),
                                    (0, 3)))
        with pytest.raises(ValueError, match=r"^untaggable exterior edge "
                                             r"\(2\.66667,1\)-\(3,1\)$"):
            generate_mesh([step], 0.5)

    @pytest.mark.parametrize("polygons, h", [
        (HEARTH_POLYGONS, 0.2),
        (HEARTH_POLYGONS, 0.1),
        ([SubdomainPolygon(1, ((0.5, 0), (1.5, 0), (1.5, 1), (0.5, 1)))], 0.25),
        ([SubdomainPolygon(1, ((0, 0), (1, 0), (1, 3), (0, 3))),
          SubdomainPolygon(1, ((2, 0), (3, 0), (3, 3), (2, 3)))], 0.5),
    ], ids=["hearth-0.2", "hearth-0.1", "annulus", "two-blocks"])
    def test_tags_follow_the_rules_edge_by_edge(self, polygons, h):
        # the rules, applied in order to one edge at a time
        mesh = generate_mesh(polygons, h)
        r_max, y_max = mesh.nodes.max(axis=0)
        for i, j, tag in mesh.boundary_edges:
            (pr, py), (qr, qy) = mesh.nodes[i], mesh.nodes[j]
            if abs(pr) < GEOM_TOL and abs(qr) < GEOM_TOL:
                want = BoundaryTag.AXIS
            elif abs(py) < GEOM_TOL and abs(qy) < GEOM_TOL:
                want = BoundaryTag.BOTTOM
            elif abs(pr - r_max) < GEOM_TOL and abs(qr - r_max) < GEOM_TOL:
                want = BoundaryTag.OUTER
            elif abs(py - y_max) < GEOM_TOL and abs(qy - y_max) < GEOM_TOL:
                want = BoundaryTag.TOP
            else:
                assert max(pr, qr) < r_max - GEOM_TOL
                want = BoundaryTag.INNER
            assert tag is want, (i, j)

    def test_tag_multiset_stable_under_refinement(self):
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
        mesh = generate_mesh([poly], 0.25)
        # the rows come from the triangles, not from the mesh's own rows
        plain = dataclasses.replace(mesh, boundary_edges=())
        tagged = tag_boundaries(plain)
        assert tagged is not plain
        assert plain.boundary_edges == ()
        for name in ("nodes", "triangles", "tri_subdomain"):
            assert getattr(tagged, name) is getattr(plain, name)
        assert tagged.boundary_edges == mesh.boundary_edges

    @pytest.mark.parametrize("tag", [None, "axis"])
    def test_row_without_a_tag_is_rejected(self, tag):
        with pytest.raises(ValueError,
                           match=r"^boundary edge \(0, 1\) has no tag$"):
            Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                 np.array([[0, 1, 2]]), np.array([1]), [(0, 1, tag)])

    def test_h_is_the_longest_edge(self, tmp_path):
        mesh = hearth_mesh(0.4)
        assert mesh.h == _brute_force_longest_edge(mesh)
        save_mesh(mesh, tmp_path / "mesh.txt")
        back = load_mesh(tmp_path / "mesh.txt")
        assert back.h == _brute_force_longest_edge(back) == mesh.h


# the unit square cut into four triangles about its centre, node 4
SQUARE = dict(
    nodes=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                    [0.5, 0.5]]),
    triangles=np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]),
    tri_subdomain=np.ones(4, int),
    boundary_edges=((0, 1, BoundaryTag.BOTTOM), (1, 2, BoundaryTag.OUTER),
                    (2, 3, BoundaryTag.TOP), (0, 3, BoundaryTag.AXIS)))
TRIS = SQUARE["triangles"]


class TestMeshGate:
    """Every mesh, however made, is checked when it is made. Each mesh
    below was once accepted: it solved with uninitialized conductivities,
    dropped a column, or failed later with a message that named neither
    the node nor the array."""

    def test_hand_built_square_is_accepted(self):
        table = Mesh(**SQUARE).boundary_edge_table
        assert table.ij.tolist() == [[0, 1], [1, 2], [2, 3], [0, 3]]

    @pytest.mark.parametrize("make", ["Mesh", "replace"])
    @pytest.mark.parametrize("change, message", [
        (dict(tri_subdomain=np.ones(2, int)),
         "tri_subdomain has shape (2,), not (4,)"),
        (dict(triangles=np.column_stack([TRIS, TRIS[:, :1]])),
         "triangles has shape (4, 4), not (4, 3)"),
        (dict(nodes=np.ones((5, 3))), "nodes has shape (5, 3), not (5, 2)"),
        (dict(triangles=np.empty((0, 3), int), tri_subdomain=np.ones(0, int)),
         "mesh has no triangles"),
        (dict(triangles=np.where(TRIS == 4, 5, TRIS)),
         "triangle node id 5 outside 0..4"),
        (dict(triangles=np.where(TRIS == 4, -1, TRIS)),
         "triangle node id -1 outside 0..4"),
        (dict(nodes=np.where([[0, 0]] * 2 + [[1, 0]] + [[0, 0]] * 2,
                             np.nan, SQUARE["nodes"])),
         "node 2 has a non-finite coordinate: (nan, 1.0)"),
        (dict(nodes=np.vstack([SQUARE["nodes"], [2.0, 2.0]])),
         "node 5 lies on no triangle"),
        (dict(boundary_edges=((0, 1, BoundaryTag.BOTTOM),
                              (1, 7, BoundaryTag.OUTER))),
         "boundary edge node id 7 outside 0..4"),
    ], ids=["short-tri-subdomain", "four-columns", "three-coordinates",
            "no-triangles", "id-above-n", "id-below-0", "nan-node",
            "unused-node", "row-id-above-n"])
    def test_bad_mesh_raises_when_made(self, make, change, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            if make == "Mesh":
                Mesh(**(SQUARE | change))
            else:
                dataclasses.replace(Mesh(**SQUARE), **change)


class TestHearthGeometry:
    def test_seven_polygons_six_subdomains(self):
        polys = HEARTH_POLYGONS
        assert len(polys) == 7
        assert {p.subdomain_id for p in polys} == set(range(1, 7))

    def test_total_area(self):
        polys = HEARTH_POLYGONS
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
        # the cavity wall, from the floor near the axis up and over to
        # the top of the wall at (4.875, 7.4)
        cavity = [
            ((0.0, 1.6), (0.39, 1.6)),
            ((0.39, 1.6), (0.39, 2.1)),
            ((0.39, 2.1), (4.475, 2.1)),
            ((4.475, 2.1), (4.475, 7.0)),
            ((4.475, 7.0), (4.875, 7.0)),
            ((4.875, 7.0), (4.875, 7.4)),
        ]
        mesh = hearth_mesh(0.2)
        segs = [np.asarray(s, float) for s in cavity]
        for (i, j) in _edges_with_tag(mesh, BoundaryTag.INNER):
            mid = 0.5 * (mesh.nodes[i] + mesh.nodes[j])
            on_any = False
            for s in segs:
                lo = s.min(axis=0) - 1e-9
                hi = s.max(axis=0) + 1e-9
                if np.all(mid >= lo) and np.all(mid <= hi):
                    on_any = True
            assert on_any, f"inner edge off the cavity wall at {mid}"

    def test_every_exterior_tag_present(self):
        mesh = hearth_mesh(0.1)
        tags = {t for (_, _, t) in mesh.boundary_edges}
        assert tags == {BoundaryTag.AXIS, BoundaryTag.BOTTOM, BoundaryTag.OUTER,
                        BoundaryTag.TOP, BoundaryTag.INNER}


@pytest.fixture(scope="module")
def fine_hearth_mesh():
    return hearth_mesh(0.05)


class TestInterpolate:
    """From the h = 0.4 hearth mesh (COARSE_H) onto the h = 0.05 one, as a
    hearth run finer than COARSE_H starts its Newton solve."""

    @staticmethod
    def _linear(points):
        return 700.0 + 90.0 * points[:, 0] - 40.0 * points[:, 1]

    def test_linear_field_is_reproduced_at_every_fine_node(
            self, coarse_hearth_mesh, fine_hearth_mesh):
        coarse, fine = coarse_hearth_mesh, fine_hearth_mesh
        got = interpolate(coarse, self._linear(coarse.nodes), fine.nodes)
        want = self._linear(fine.nodes)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
        # the nodes next to the unmeshed cavity and notch are among them
        r, y = fine.nodes.T
        wall = np.unique(_edges_with_tag(fine, BoundaryTag.INNER))
        notch = (r >= 5.5188 - 1e-9) & (r <= 5.9501 + 1e-9) & (y >= 7.35 - 1e-9)
        on_6 = r >= 5.9501 - 1e-9
        for nodes in (r == 0.0, wall, notch & ~on_6, on_6):
            assert len(fine.nodes[nodes]) > 0

    def test_coarse_nodes_keep_their_values(self, coarse_hearth_mesh, rng):
        values = rng.uniform(300.0, 1800.0, coarse_hearth_mesh.num_nodes)
        got = interpolate(coarse_hearth_mesh, values, coarse_hearth_mesh.nodes)
        assert np.array_equal(got, values)

    def test_centroids_take_their_triangle_s_mean(self, coarse_hearth_mesh,
                                                  rng):
        # a linear field cannot tell the two triangles of a cell apart
        values = rng.uniform(300.0, 1800.0, coarse_hearth_mesh.num_nodes)
        tris = coarse_hearth_mesh.triangles
        centroids = coarse_hearth_mesh.nodes[tris].mean(axis=1)
        got = interpolate(coarse_hearth_mesh, values, centroids)
        assert got == pytest.approx(values[tris].mean(axis=1), rel=1e-13)

    @pytest.mark.parametrize("point", [(2.0, 4.0), (6.5, 1.0)],
                             ids=["cavity", "beyond_r_max"])
    def test_point_in_no_triangle_raises(self, coarse_hearth_mesh, point):
        values = np.zeros(coarse_hearth_mesh.num_nodes)
        points = np.array([(1.0, 0.5), point])
        with pytest.raises(ValueError, match=rf"^point 1 \(r={point[0]:g}, "
                           rf"y={point[1]:g}\) lies in no triangle"):
            interpolate(coarse_hearth_mesh, values, points)


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

    def test_generated_mesh_loads_back(self, tmp_path):
        # every mesh save_mesh writes, load_mesh reads back
        mesh = generate_mesh(HEARTH_POLYGONS, 0.5)
        save_mesh(mesh, tmp_path / "mesh.txt")
        back = load_mesh(tmp_path / "mesh.txt")
        assert back.boundary_edges == mesh.boundary_edges

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

    @pytest.mark.parametrize("row", ["0 1", "0 1 sideways", "0 one axis",
                                     "0 1 untagged"])
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
            f"got '{row}'")

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

    @pytest.mark.parametrize("pattern, new, message", [
        (r"^0\.0 ", "-0.05 ",
         r"node \d+ lies left of the axis, at r = -0\.05"),
        (r" outer$", " axis", r"boundary edge \(\d+, \d+\) is tagged axis "
                              r"but does not lie on the axis r = 0"),
        (r" axis$", " outer", r"boundary edge \(\d+, \d+\) is tagged outer "
                              r"but lies on the axis r = 0"),
    ], ids=["node-left-of-axis", "outer-tagged-axis", "axis-tagged-outer"])
    def test_domain_off_the_axis_rejected(self, tmp_path, pattern, new,
                                          message):
        # an axis node moved to r < 0, an OUTER row retagged AXIS and an
        # AXIS row retagged OUTER each changed the answer with no message
        save_mesh(hearth_mesh(0.4), tmp_path / "mesh.txt")
        text = (tmp_path / "mesh.txt").read_text()
        bad = re.sub(pattern, new, text, count=1, flags=re.MULTILINE)
        assert bad != text
        (tmp_path / "mesh.txt").write_text(bad)
        with pytest.raises(ValueError, match=message):
            load_mesh(tmp_path / "mesh.txt")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text("not-a-mesh\n")
        with pytest.raises(ValueError):
            load_mesh(path)


@pytest.fixture(scope="module")
def saved_coarse_hearth(tmp_path_factory):
    """The lines of the h = 0.4 hearth's mesh file, the (start, stop)
    line range of each section, its header first, and a path to write a
    mutation of it to."""
    path = tmp_path_factory.mktemp("mutations") / "mesh.txt"
    save_mesh(hearth_mesh(0.4), path)
    lines = path.read_text().splitlines()
    heads = [k for k, line in enumerate(lines) if line[0].isalpha()]
    return lines, list(zip(heads, heads[1:] + [len(lines)])), path


def _replacements(token):
    """What one token may become: a NaN, a tag, or the number negated,
    shifted or scaled by 1e6 (an integer stays an integer)."""
    out = ["nan", *(t.value for t in BoundaryTag)]
    if token.lstrip("-").isdigit():
        x = int(token)
        return out + [str(v) for v in (-x, x - 1, x + 1, x * 10**6)]
    try:
        x = float(token)
    except ValueError:  # a tag, a section name or the format name
        return out
    return out + [repr(v) for v in (-x, x - 0.05, x + 0.05, x * 1e6)]


@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_single_line_mutations_raise_or_keep_the_axisymmetric_domain(
        saved_coarse_hearth, data):
    # a mutated file either fails to load with a ValueError or describes
    # a domain the axisymmetric forms accept: r >= 0 everywhere, and a
    # row tagged AXIS exactly when both its ends lie on r = 0
    lines, sections, path = saved_coarse_hearth
    # a section first, so that the short boundary_edges section is
    # mutated as often as the long ones
    start, stop = data.draw(st.sampled_from(sections))
    k = data.draw(st.integers(start, stop - 1))
    tokens = lines[k].split()
    kind = data.draw(st.sampled_from(["delete", "repeat", "swap", "replace"]))
    if kind == "delete":
        mutated = []
    elif kind == "repeat":
        mutated = [lines[k]] * 2
    else:
        a, b = data.draw(st.lists(st.integers(0, len(tokens) - 1),
                                  min_size=2, max_size=2))
        if kind == "swap":
            tokens[a], tokens[b] = tokens[b], tokens[a]
        else:
            tokens[a] = data.draw(st.sampled_from(_replacements(tokens[a])))
        mutated = [" ".join(tokens)]
    path.write_text("\n".join(lines[:k] + mutated + lines[k + 1:]) + "\n")
    try:
        mesh = load_mesh(path)
    except ValueError:
        return
    assert mesh.nodes[:, 0].min() >= -GEOM_TOL
    for i, j, tag in mesh.boundary_edges:
        on_axis = max(abs(mesh.nodes[i, 0]), abs(mesh.nodes[j, 0])) < GEOM_TOL
        assert (tag is BoundaryTag.AXIS) == on_axis, (i, j, tag)
