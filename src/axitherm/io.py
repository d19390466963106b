"""Field export: legacy ASCII VTK, CSV and structured solve reports.

Numeric blocks are formatted by :func:`axitherm.mesh.format_table`, one
``%`` per block, with the same bytes as formatting value by value. All
files are written atomically (temporary name, then rename) so two
identical runs produce bit-identical artifacts or nothing.
"""
from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .mesh import Mesh, format_table


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


def _field(name: str, values, rows: int, what: str) -> np.ndarray:
    """``values`` as a float array, which must have one row per ``what``."""
    values = np.asarray(values, float)
    if len(values) != rows:
        raise ValueError(f"{name} has {len(values)} rows, the mesh has "
                         f"{rows} {what}")
    return values


def vtk_text(mesh: Mesh, temperature=None, displacement=None,
             stress=None) -> str:
    """Render the mesh and fields as a legacy ASCII VTK unstructured grid;
    a field with the wrong number of rows raises ValueError."""
    n = mesh.num_nodes
    m = len(mesh.triangles)
    tris = mesh.triangles
    parts = [
        "# vtk DataFile Version 3.0\n"
        "axitherm fields\n"
        "ASCII\n"
        "DATASET UNSTRUCTURED_GRID\n",
        f"POINTS {n} double\n",
        format_table("%.12g %.12g 0\n", mesh.nodes[:, 0], mesh.nodes[:, 1]),
        f"CELLS {m} {4 * m}\n",
        format_table("3 %s %s %s\n", tris[:, 0], tris[:, 1], tris[:, 2]),
        f"CELL_TYPES {m}\n",
        "5\n" * m,
    ]

    if temperature is not None or displacement is not None:
        parts.append(f"POINT_DATA {n}\n")
    if temperature is not None:
        parts.append("SCALARS temperature double 1\nLOOKUP_TABLE default\n")
        parts.append(format_table(
            "%.12g\n", _field("temperature", temperature, n, "nodes")))
    if displacement is not None:
        u = _field("displacement", displacement, n, "nodes")
        parts.append("VECTORS displacement double\n")
        parts.append(format_table("%.12g %.12g 0\n", u[:, 0], u[:, 1]))

    parts.append(f"CELL_DATA {m}\n"
                 "SCALARS subdomain int 1\n"
                 "LOOKUP_TABLE default\n")
    parts.append(format_table("%d\n", np.asarray(mesh.tri_subdomain, int)))
    if stress is not None:
        stress = _field("stress", stress, m, "triangles")
        for col, name in enumerate(
                ["stress_rr", "stress_yy", "stress_tt", "stress_ry"]):
            parts.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            parts.append(format_table("%.12g\n", stress[:, col]))
    return "".join(parts)


def export_vtk(mesh: Mesh, path, temperature=None, displacement=None,
               stress=None) -> None:
    atomic_write_text(path, vtk_text(mesh, temperature, displacement, stress))


def export_csv(mesh: Mesh, path, temperature, displacement=None) -> None:
    """Per-node table: node_id,r,y,T,u_r,u_y.

    T is written with 17 significant digits, which round-trips every
    double, so ``axitherm isoline`` rereads the solver's field exactly.
    A field with the wrong number of rows raises ValueError.
    """
    n = mesh.num_nodes
    T = _field("temperature", temperature, n, "nodes")
    u = _field("displacement", displacement, n, "nodes") \
        if displacement is not None else np.zeros((n, 2))
    text = "node_id,r,y,T,u_r,u_y\n" + format_table(
        "%d,%.12g,%.12g,%.17g,%.12g,%.12g\n", np.arange(n),
        mesh.nodes[:, 0], mesh.nodes[:, 1], T, u[:, 0], u[:, 1])
    atomic_write_text(path, text)


def export_report(report, path) -> None:
    atomic_write_text(path, json.dumps(report.as_dict(), indent=2) + "\n")
