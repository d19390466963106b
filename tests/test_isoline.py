"""Isoline extraction tests."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axitherm.cli import RunConfig, main, run_scenario
from axitherm.isoline import IsoLine, _segment_keys, extract_isoline, isoline_csv
from axitherm.mesh import (
    Mesh,
    SubdomainPolygon,
    generate_mesh,
)


def _square(h=0.25):
    poly = SubdomainPolygon(1, ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    return generate_mesh([poly], h)


class TestExtractIsoline:
    def test_linear_field_gives_straight_line(self):
        mesh = _square()
        T = mesh.nodes[:, 1]  # T = y
        iso = extract_isoline(mesh, T, 0.4)
        assert len(iso.polylines) >= 1
        pts = np.concatenate([np.asarray(p) for p in iso.polylines])
        assert np.allclose(pts[:, 1], 0.4, atol=1e-12)
        # spans the full width
        assert pts[:, 0].min() == pytest.approx(0.0, abs=1e-12)
        assert pts[:, 0].max() == pytest.approx(1.0, abs=1e-12)

    def test_vertices_lie_on_level_set(self):
        mesh = _square(0.2)
        T = np.sin(3.0 * mesh.nodes[:, 0]) + mesh.nodes[:, 1] ** 2
        level = 0.7
        iso = extract_isoline(mesh, T, level)
        geom_nodes = mesh.nodes
        tris = mesh.triangles
        for poly in iso.polylines:
            for (r, y) in poly:
                # P1 interpolant at (r, y) equals the level on the owning
                # triangle: find a triangle containing the point
                found = False
                for t in range(len(tris)):
                    p = geom_nodes[tris[t]]
                    A = np.column_stack([p[1] - p[0], p[2] - p[0]])
                    try:
                        xi = np.linalg.solve(A, np.array([r, y]) - p[0])
                    except np.linalg.LinAlgError:
                        continue
                    lam = np.array([1 - xi.sum(), xi[0], xi[1]])
                    if np.all(lam >= -1e-9):
                        val = lam @ T[tris[t]]
                        assert val == pytest.approx(level, abs=1e-9)
                        found = True
                        break
                assert found

    def test_level_outside_range_is_empty(self):
        mesh = _square()
        T = np.full(mesh.num_nodes, 5.0)
        iso = extract_isoline(mesh, T, 99.0)
        assert iso.polylines == []

    @pytest.mark.parametrize("level", [np.nan, np.inf, -np.inf])
    def test_non_finite_level_rejected(self, level):
        mesh = _square()
        with pytest.raises(ValueError, match="isoline level must be finite"):
            extract_isoline(mesh, mesh.nodes[:, 0], level)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_value_rejected(self, value):
        # a NaN node once dropped the crossings of its edges unnoticed
        mesh = _square()
        T = mesh.nodes[:, 1].copy()
        T[4] = value
        with pytest.raises(ValueError,
                           match=f"node 4 has a non-finite value: {value}"):
            extract_isoline(mesh, T, 0.4)

    def test_closed_contour_around_hot_spot(self):
        mesh = _square(0.1)
        c = np.array([0.5, 0.5])
        T = np.exp(-10 * np.sum((mesh.nodes - c) ** 2, axis=1))
        iso = extract_isoline(mesh, T, 0.5)
        assert len(iso.polylines) == 1
        poly = np.asarray(iso.polylines[0])
        # chained into a closed loop around the centre
        assert np.allclose(poly[0], poly[-1], atol=1e-9)
        assert len(poly) > 8

    def test_chains_are_maximal(self):
        # a straight isoline should come back as one polyline, not many
        # single segments
        mesh = _square(0.125)
        T = mesh.nodes[:, 0]
        iso = extract_isoline(mesh, T, 0.3125)
        assert len(iso.polylines) == 1

    def test_level_exactly_at_nodes(self):
        mesh = _square(0.2)
        T = mesh.nodes[:, 1]
        iso = extract_isoline(mesh, T, 0.25)  # hits a full row of nodes
        pts = np.concatenate([np.asarray(p) for p in iso.polylines])
        assert np.allclose(pts[:, 1], 0.25, atol=1e-12)

    def test_row_of_nodes_on_level_is_one_line(self):
        # every edge of the row lies in two triangles and is emitted once;
        # the grid of _square(0.2) has a row of nodes at y = 0.25
        mesh = _square(0.2)
        iso = extract_isoline(mesh, mesh.nodes[:, 1], 0.25)
        assert len(iso.polylines) == 1
        pts = np.asarray(iso.polylines[0])
        assert np.all(pts[:, 1] == 0.25)
        steps = np.diff(pts[:, 0])
        assert np.all(steps > 0) or np.all(steps < 0)
        assert len(set(map(tuple, pts.tolist()))) == len(pts)
        row = mesh.nodes[mesh.nodes[:, 1] == 0.25]
        assert sorted(pts[:, 0]) == sorted(row[:, 0])

    def test_flat_triangle_gives_its_edges(self):
        mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                    np.array([[0, 1, 2]]), np.array([1]))
        iso = extract_isoline(mesh, np.array([2.0, 2.0, 2.0]), 2.0)
        assert iso.polylines == [[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0),
                                  (0.0, 0.0)]]

    def test_edge_on_level_is_emitted_once(self):
        # the diagonal (0, 2) of the unit square lies on the level and in
        # both triangles
        mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                    np.array([[0, 1, 2], [0, 2, 3]]), np.array([1, 1]))
        iso = extract_isoline(mesh, np.array([0.0, -1.0, 0.0, 1.0]), 0.0)
        assert iso.polylines == [[(0.0, 0.0), (1.0, 1.0)]]

    @pytest.mark.parametrize("level", [-1.0, 0.0, 0.5, 2.0])
    def test_segment_keys_match_triangle_loop(self, level):
        # integer field: nodes, edges and whole triangles on the level
        mesh = _square(0.125)
        n = mesh.num_nodes
        d = np.random.default_rng(4).integers(-2, 3, n) - level
        expect, on_level = [], set()
        for tri in mesh.triangles.tolist():
            keys = []
            for a, b in ((0, 1), (1, 2), (2, 0)):
                i, j = tri[a], tri[b]
                if d[i] == 0:
                    keys.append(i)
                if d[i] * d[j] < 0:
                    keys.append(n + min(i, j) * n + max(i, j))
            if len(keys) == 2:
                segs = [keys]
            elif len(keys) == 3:
                segs = [keys[:2], keys[1:], [keys[2], keys[0]]]
            else:
                segs = []
            for seg in segs:
                pair = frozenset(seg)
                if max(seg) < n:
                    if pair in on_level:
                        continue
                    on_level.add(pair)
                expect.append(seg)
        got = _segment_keys(mesh.triangles, d, n).tolist()
        assert got == expect
        assert bool(on_level) == (level != 0.5)

    @given(data=st.data(), cells=st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_vertices_on_straddling_edges(self, data, cells):
        # integer fields at half-integer levels: no node lies on the level
        mesh = _square(1.0 / cells)
        n = mesh.num_nodes
        T = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n,
                                        max_size=n)), float)
        level = data.draw(st.integers(-3, 2)) + 0.5
        iso = extract_isoline(mesh, T, level)
        # every edge with the number of triangles holding it
        tris = mesh.triangles
        pairs = np.sort(np.concatenate(
            [tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]), axis=1)
        edges, uses = np.unique(pairs, axis=0, return_counts=True)
        crossing = {}
        for (a, b), k in zip(edges.tolist(), uses.tolist()):
            if (T[a] - level) * (T[b] - level) < 0:
                t = (level - T[a]) / (T[b] - T[a])
                crossing[(a, b)] = (mesh.nodes[a] + t * (mesh.nodes[b]
                                                         - mesh.nodes[a]), k)
        seen = 0
        for poly in iso.polylines:
            keys = []
            for q in poly:
                near = [e for e, (p, _) in crossing.items()
                        if np.linalg.norm(p - q) <= 1e-12]
                assert len(near) == 1, q
                keys.append(near[0])
            closed = keys[0] == keys[-1]
            ends_on_boundary = (crossing[keys[0]][1] == 1
                                and crossing[keys[-1]][1] == 1)
            assert closed or ends_on_boundary
            seen += len(set(keys))
        # each crossed edge appears in exactly one polyline, once
        assert seen == len(crossing)


class TestHearthReread:
    def test_reread_gives_the_same_single_contour(self, tmp_path):
        # the 1431.1 K contour at h = 0.12 once came back as two
        # polylines from the reread and one from the run
        run = tmp_path / "run"
        run_scenario(RunConfig(target_h=0.12, output_dir=str(run),
                               isoline_levels=[1431.1]))
        reread = tmp_path / "reread"
        assert main(["isoline", "--mesh-file", str(run / "mesh.txt"),
                     "--csv", str(run / "fields.csv"), "--isoline", "1431.1",
                     "--out", str(reread)]) == 0
        name = "isoline_1431.1K.csv"
        text = (run / name).read_text()
        assert (reread / name).read_text() == text
        ids = {line.split(",")[0] for line in text.splitlines()[1:]}
        assert ids == {"0"}


class TestIsolineCsv:
    def test_format(self):
        iso = IsoLine(level=500.0,
                      polylines=[[(0.0, 1.0), (0.5, 1.5)]])
        text = isoline_csv(iso)
        lines = text.strip().split("\n")
        assert lines[0] == "polyline,r,y"
        assert lines[1] == "0,0.0,1.0"
        assert len(lines) == 3

    def test_no_polylines_writes_the_header_only(self):
        assert isoline_csv(IsoLine(level=5000.0, polylines=[])) == \
            "polyline,r,y\n"

    def test_plain_floats(self):
        mesh = _square(0.25)
        text = isoline_csv(extract_isoline(mesh, mesh.nodes[:, 0] ** 2, 0.3))
        assert "np." not in text
        for line in text.splitlines()[1:]:
            pid, r, y = line.split(",")
            assert int(pid) == 0
            float(r), float(y)
