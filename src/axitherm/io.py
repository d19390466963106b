"""Field export: legacy ASCII VTK, CSV and structured solve reports.

All files are written atomically (temporary name, then rename) so two
identical runs produce bit-identical artifacts or nothing.
"""
from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .mesh import Mesh


def _format_rows(fmt: str, *columns) -> str:
    """``fmt`` (one line, ending in a newline) applied to each row of the
    given columns in one ``%`` operation over Python scalars from
    ``tolist``: the same text as formatting each value on its own."""
    cols = [np.asarray(c).tolist() for c in columns]
    return (fmt * len(cols[0])) % tuple(v for row in zip(*cols) for v in row)


def atomic_write_text(path, text: str) -> None:
    path = str(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def vtk_text(mesh: Mesh, temperature=None, displacement=None,
             stress=None) -> str:
    """Render the mesh and fields as a legacy ASCII VTK unstructured grid."""
    n = mesh.num_nodes
    m = len(mesh.triangles)
    tris = np.asarray(mesh.triangles)
    parts = [
        "# vtk DataFile Version 3.0\n"
        "axitherm fields\n"
        "ASCII\n"
        "DATASET UNSTRUCTURED_GRID\n",
        f"POINTS {n} double\n",
        _format_rows("%.12g %.12g 0\n", mesh.nodes[:, 0], mesh.nodes[:, 1]),
        f"CELLS {m} {4 * m}\n",
        _format_rows("3 %s %s %s\n", tris[:, 0], tris[:, 1], tris[:, 2]),
        f"CELL_TYPES {m}\n",
        "5\n" * m,
    ]

    point_fields = []
    if temperature is not None:
        point_fields.append(("temperature", temperature))
    if point_fields or displacement is not None:
        parts.append(f"POINT_DATA {n}\n")
    for name, values in point_fields:
        parts.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        parts.append(_format_rows("%.12g\n", np.asarray(values, float)))
    if displacement is not None:
        u = np.asarray(displacement, float)
        parts.append("VECTORS displacement double\n")
        parts.append(_format_rows("%.12g %.12g 0\n", u[:, 0], u[:, 1]))

    parts.append(f"CELL_DATA {m}\n"
                 "SCALARS subdomain int 1\n"
                 "LOOKUP_TABLE default\n")
    parts.append(_format_rows("%d\n", np.asarray(mesh.tri_subdomain, int)))
    if stress is not None:
        stress = np.asarray(stress, float)
        for col, name in enumerate(
                ["stress_rr", "stress_yy", "stress_tt", "stress_ry"]):
            parts.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            parts.append(_format_rows("%.12g\n", stress[:, col]))
    return "".join(parts)


def export_vtk(mesh: Mesh, path, temperature=None, displacement=None,
               stress=None) -> None:
    atomic_write_text(path, vtk_text(mesh, temperature, displacement, stress))


def parse_vtk(text: str) -> dict:
    """Minimal legacy-VTK reader used as an independent round-trip check.

    Returns points, cells, and the named point/cell data arrays. Only
    the subset emitted by :func:`vtk_text` is understood.
    """
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# vtk"):
        raise ValueError("not a VTK file")
    # line 2 is a free-form title and may contain spaces; drop it before
    # switching to token-wise parsing
    tokens = "\n".join(lines[2:]).split()
    out = {"point_data": {}, "cell_data": {}}
    i = 0

    def take(k=1):
        nonlocal i
        vals = tokens[i:i + k]
        i += k
        return vals

    if take(1)[0] != "ASCII":
        raise ValueError("only ASCII VTK supported")
    if take(2) != ["DATASET", "UNSTRUCTURED_GRID"]:
        raise ValueError("only unstructured grids supported")

    section = None
    n_items = 0
    while i < len(tokens):
        word = tokens[i]
        if word == "POINTS":
            take(1)
            n = int(take(1)[0])
            take(1)  # dtype
            flat = [float(v) for v in take(3 * n)]
            out["points"] = np.array(flat).reshape(n, 3)
        elif word == "CELLS":
            take(1)
            m = int(take(1)[0])
            total = int(take(1)[0])
            flat = [int(v) for v in take(total)]
            cells = []
            j = 0
            while j < total:
                cnt = flat[j]
                cells.append(flat[j + 1:j + 1 + cnt])
                j += cnt + 1
            out["cells"] = cells
        elif word == "CELL_TYPES":
            take(1)
            m = int(take(1)[0])
            out["cell_types"] = [int(v) for v in take(m)]
        elif word == "POINT_DATA":
            take(1)
            n_items = int(take(1)[0])
            section = "point_data"
        elif word == "CELL_DATA":
            take(1)
            n_items = int(take(1)[0])
            section = "cell_data"
        elif word == "SCALARS":
            take(1)
            name, dtype, _comps = take(3)
            if take(2) != ["LOOKUP_TABLE", "default"]:
                raise ValueError("expected default lookup table")
            conv = int if dtype == "int" else float
            out[section][name] = np.array([conv(v) for v in take(n_items)])
        elif word == "VECTORS":
            take(1)
            name, _dtype = take(2)
            flat = [float(v) for v in take(3 * n_items)]
            out[section][name] = np.array(flat).reshape(n_items, 3)
        else:
            raise ValueError(f"unexpected token '{word}'")
    return out


def export_csv(mesh: Mesh, path, temperature, displacement=None) -> None:
    """Per-node table: node_id,r,y,T,u_r,u_y.

    T is written with 17 significant digits, which round-trips every
    double, so ``axitherm isoline`` rereads the solver's field exactly.
    """
    u = np.asarray(displacement, float) if displacement is not None \
        else np.zeros((mesh.num_nodes, 2))
    T = np.asarray(temperature, float)[:mesh.num_nodes]
    text = "node_id,r,y,T,u_r,u_y\n" + _format_rows(
        "%d,%.12g,%.12g,%.17g,%.12g,%.12g\n", np.arange(mesh.num_nodes),
        mesh.nodes[:, 0], mesh.nodes[:, 1], T, u[:, 0], u[:, 1])
    atomic_write_text(path, text)


def export_report(report, path) -> None:
    atomic_write_text(path, json.dumps(report.as_dict(), indent=2) + "\n")
