"""Export format tests: VTK, CSV, reports, atomic writes."""
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axitherm.io import (
    atomic_write_text,
    export_csv,
    export_report,
    export_vtk,
    vtk_text,
)
from axitherm.mesh import BoundaryTag, Mesh, hearth_mesh, save_mesh
from axitherm.thermal import SolveReport

DATA = Path(__file__).parent / "data"


def _single_triangle():
    return Mesh(nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                triangles=np.array([[0, 1, 2]]),
                tri_subdomain=np.array([1]),
                boundary_edges=[])


GOLDEN_FIELDS = dict(
    temperature=np.array([1.0, 2.0, 3.0]),
    displacement=np.array([[0.1, 0.0], [0.0, -0.2], [0.25, 0.5]]),
    stress=np.array([[1e6, -2e6, 3.5e6, 0.0]]),
)


class TestVtk:
    def test_golden_file_bit_exact(self):
        text = vtk_text(_single_triangle(), **GOLDEN_FIELDS)
        golden = (DATA / "single_triangle_golden.vtk").read_text()
        assert text == golden

    def test_round_trip_through_parser(self, parse_vtk):
        mesh = _single_triangle()
        text = vtk_text(mesh, **GOLDEN_FIELDS)
        parsed = parse_vtk(text)
        assert np.allclose(parsed["points"][:, :2], mesh.nodes)
        assert parsed["cells"] == [[0, 1, 2]]
        assert parsed["cell_types"] == [5]
        assert np.allclose(parsed["point_data"]["temperature"],
                           GOLDEN_FIELDS["temperature"])
        assert np.allclose(parsed["point_data"]["displacement"][:, :2],
                           GOLDEN_FIELDS["displacement"])
        assert np.allclose(parsed["cell_data"]["stress_ry"], [0.0])
        assert parsed["cell_data"]["subdomain"].tolist() == [1]

    def test_export_writes_file(self, tmp_path, parse_vtk):
        path = tmp_path / "out.vtk"
        export_vtk(_single_triangle(), path, **GOLDEN_FIELDS)
        assert path.exists()
        assert parse_vtk(path.read_text())["cell_types"] == [5]

    def test_parser_rejects_non_vtk(self, parse_vtk):
        with pytest.raises(ValueError, match="not a VTK"):
            parse_vtk("hello world this is not vtk at all ok")

    def test_deterministic(self):
        a = vtk_text(_single_triangle(), **GOLDEN_FIELDS)
        b = vtk_text(_single_triangle(), **GOLDEN_FIELDS)
        assert a == b

    @pytest.mark.parametrize("name, rows, expected, what", [
        ("temperature", 6, 3, "nodes"),
        ("temperature", 2, 3, "nodes"),
        ("displacement", 5, 3, "nodes"),
        ("stress", 3, 1, "triangles"),
    ])
    def test_field_of_wrong_length_rejected(self, name, rows, expected, what):
        fields = dict(GOLDEN_FIELDS)
        fields[name] = np.resize(fields[name], (rows,) + fields[name].shape[1:])
        with pytest.raises(ValueError, match=f"^{name} has {rows} rows, the "
                                             f"mesh has {expected} {what}$"):
            vtk_text(_single_triangle(), **fields)


class TestCsvAndReports:
    def test_csv_fields(self, tmp_path):
        path = tmp_path / "fields.csv"
        mesh = _single_triangle()
        export_csv(mesh, path, np.array([10.0, 20.0, 30.0]),
                   np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "node_id,r,y,T,u_r,u_y"
        assert lines[1] == "0,0,0,10,1,2"
        assert len(lines) == 4

    def test_csv_temperature_round_trips(self, tmp_path):
        # T is written losslessly; r, y and u keep 12 significant digits
        path = tmp_path / "fields.csv"
        T = np.array([1423.0 + 1e-9, 1 / 3, -2.0 ** -1074])
        export_csv(_single_triangle(), path, T)
        back = np.loadtxt(path, delimiter=",", skiprows=1, usecols=3)
        assert np.array_equal(back, T)

    def test_csv_defaults_zero_displacement(self, tmp_path):
        path = tmp_path / "fields.csv"
        export_csv(_single_triangle(), path, np.array([1.0, 2.0, 3.0]))
        last = path.read_text().strip().split("\n")[-1]
        assert last.endswith(",0,0")

    @pytest.mark.parametrize("T_rows, u_rows, name, rows", [
        (4, 3, "temperature", 4),
        (2, 3, "temperature", 2),
        (3, 5, "displacement", 5),
    ])
    def test_csv_field_of_wrong_length_rejected(self, tmp_path, T_rows,
                                                u_rows, name, rows):
        path = tmp_path / "fields.csv"
        with pytest.raises(ValueError, match=f"^{name} has {rows} rows, the "
                                             f"mesh has 3 nodes$"):
            export_csv(_single_triangle(), path, np.ones(T_rows),
                       np.ones((u_rows, 2)))
        assert not path.exists()

    def test_report_json(self, tmp_path):
        path = tmp_path / "report.json"
        rep = SolveReport(iterations=3, residuals=[1.0, 0.1, 1e-5],
                          converged=True, linear_solves=3, wall_time=0.5)
        export_report(rep, path)
        data = json.loads(path.read_text())
        assert data["iterations"] == 3
        assert data["residuals"][-1] == 1e-5
        assert data["converged"] is True


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "f.txt"
        atomic_write_text(path, "payload\n")
        assert path.read_text() == "payload\n"

    def test_overwrites_existing(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_no_temp_files_left(self, tmp_path):
        atomic_write_text(tmp_path / "f.txt", "x")
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
        assert leftovers == []


def _fmt(x):
    return f"{x:.12g}"


def _reference_vtk(mesh, temperature, displacement, stress):
    """Writer formatting one numpy scalar at a time: the reference for
    the bulk formatting in vtk_text."""
    n, m = mesh.num_nodes, len(mesh.triangles)
    lines = ["# vtk DataFile Version 3.0", "axitherm fields", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {n} double"]
    lines += [f"{_fmt(r)} {_fmt(y)} 0" for r, y in mesh.nodes]
    lines.append(f"CELLS {m} {4 * m}")
    lines += [f"3 {i} {j} {k}" for i, j, k in mesh.triangles]
    lines.append(f"CELL_TYPES {m}")
    lines += ["5"] * m
    lines += [f"POINT_DATA {n}", "SCALARS temperature double 1",
              "LOOKUP_TABLE default"]
    lines += [_fmt(v) for v in temperature]
    lines.append("VECTORS displacement double")
    lines += [f"{_fmt(a)} {_fmt(b)} 0" for a, b in displacement]
    lines += [f"CELL_DATA {m}", "SCALARS subdomain int 1",
              "LOOKUP_TABLE default"]
    lines += [str(int(s)) for s in mesh.tri_subdomain]
    for col, name in enumerate(["stress_rr", "stress_yy", "stress_tt",
                                "stress_ry"]):
        lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        lines += [_fmt(v) for v in stress[:, col]]
    return "\n".join(lines) + "\n"


def _reference_csv(mesh, temperature, u):
    lines = ["node_id,r,y,T,u_r,u_y"]
    for n in range(mesh.num_nodes):
        r, y = mesh.nodes[n]
        lines.append(f"{n},{_fmt(r)},{_fmt(y)},{temperature[n]:.17g},"
                     f"{_fmt(u[n, 0])},{_fmt(u[n, 1])}")
    return "\n".join(lines) + "\n"


def _reference_mesh_text(mesh):
    lines = ["axitherm-mesh v1", f"nodes {mesh.num_nodes}"]
    lines += [f"{float(r)!r} {float(y)!r}" for r, y in mesh.nodes]
    lines.append(f"triangles {len(mesh.triangles)}")
    lines += [f"{i} {j} {k} {s}"
              for (i, j, k), s in zip(mesh.triangles, mesh.tri_subdomain)]
    lines.append(f"boundary_edges {len(mesh.boundary_edges)}")
    lines += [f"{i} {j} {t.value if t is not None else 'untagged'}"
              for i, j, t in mesh.boundary_edges]
    return "\n".join(lines) + "\n"


class TestBulkFormatting:
    """Each writer gives the same bytes as formatting value by value."""

    @pytest.fixture(scope="class")
    def fields(self):
        mesh = hearth_mesh(0.2)
        rng = np.random.default_rng(7)

        def values(*shape):
            v = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
            v.flat[:6] = [0.0, -0.0, 1e-310, -1e300, 1423.0, 0.1]
            return v

        return (mesh, values(mesh.num_nodes), values(mesh.num_nodes, 2),
                values(len(mesh.triangles), 4))

    def test_vtk(self, fields):
        assert vtk_text(*fields) == _reference_vtk(*fields)

    def test_csv(self, tmp_path, fields):
        mesh, T, u, _ = fields
        export_csv(mesh, tmp_path / "fields.csv", T, u)
        assert (tmp_path / "fields.csv").read_text() == \
            _reference_csv(mesh, T, u)

    def test_mesh(self, tmp_path, fields):
        mesh = fields[0]
        save_mesh(mesh, tmp_path / "mesh.txt")
        assert (tmp_path / "mesh.txt").read_text() == _reference_mesh_text(mesh)


# edge cases of %-formatting, and of keying distinct values on their
# bit pattern (-0.0 against 0.0, NaN of either sign)
_SPECIAL = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300,
                            2.0 ** -1074, -1423.5, math.nan, -math.nan,
                            math.inf, -math.inf])
_FLOATS = _SPECIAL | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _mesh_and_fields(draw):
    """A mesh of more than 256 nodes with T, u and stress. Each float
    column either repeats a few drawn values (formatted once per
    distinct value) or is drawn value by value (formatted one by one)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(257, 400))
    m = draw(st.integers(1, 120))

    def column(size):
        pool = np.array(draw(st.lists(_FLOATS, min_size=1, max_size=6)))
        if draw(st.booleans()):
            return pool[rng.integers(0, len(pool), size)]
        v = -rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
        v[rng.integers(0, size, len(pool))] = pool
        return v

    node_ids = (rng.choice([0, 255, 256, 257, n - 1], (m, 3))
                if draw(st.booleans()) else rng.integers(0, n, (m, 3)))
    tags = [*BoundaryTag, None]
    edges = [(int(i), int(j), tags[k]) for i, j, k in zip(
        rng.integers(0, n, 40), rng.integers(0, n, 40),
        rng.integers(0, len(tags), 40))]
    mesh = Mesh(nodes=np.column_stack([column(n), column(n)]),
                triangles=node_ids,
                tri_subdomain=rng.integers(1, 7, m),
                boundary_edges=edges[:draw(st.integers(0, 40))])
    return (mesh, column(n), np.column_stack([column(n), column(n)]),
            np.column_stack([column(m) for _ in range(4)]))


@given(fields=_mesh_and_fields())
@settings(max_examples=40, deadline=None)
def test_writers_match_per_value_reference(tmp_path_factory, fields):
    """mesh.txt, solution.vtk and fields.csv, byte for byte, against
    formatting one value at a time."""
    mesh, T, u, stress = fields
    out = tmp_path_factory.mktemp("writers")
    assert vtk_text(mesh, T, u, stress) == _reference_vtk(mesh, T, u, stress)
    export_csv(mesh, out / "fields.csv", T, u)
    assert (out / "fields.csv").read_text() == _reference_csv(mesh, T, u)
    save_mesh(mesh, out / "mesh.txt")
    assert (out / "mesh.txt").read_text() == _reference_mesh_text(mesh)
