"""Field export: legacy ASCII VTK, CSV and structured solve reports.

Numeric blocks are formatted by :func:`axitherm.mesh.format_table`, one
``%`` per block, with the same bytes as formatting value by value. Every
file, ``mesh.txt`` included, goes through one writer,
:func:`axitherm.mesh.atomic_write_text`: a temporary name, then a rename,
so two identical runs produce bit-identical artifacts or nothing, each
with the permissions ``open()`` would give it.
"""
from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .mesh import Mesh, atomic_write_text, checked_field, format_table


def vtk_text(mesh: Mesh, temperature, displacement, stress) -> str:
    """Render the mesh and fields as a legacy ASCII VTK unstructured grid;
    a field with the wrong number of rows raises ValueError."""
    n = mesh.num_nodes
    m = len(mesh.triangles)
    tris = mesh.triangles
    T = checked_field("temperature", temperature, (n,), "nodes")
    u = checked_field("displacement", displacement, (n, 2), "nodes")
    stress = checked_field("stress", stress, (m, 4), "triangles")
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
        f"POINT_DATA {n}\n"
        "SCALARS temperature double 1\nLOOKUP_TABLE default\n",
        format_table("%.12g\n", T),
        "VECTORS displacement double\n",
        format_table("%.12g %.12g 0\n", u[:, 0], u[:, 1]),
        f"CELL_DATA {m}\n"
        "SCALARS subdomain int 1\n"
        "LOOKUP_TABLE default\n",
        format_table("%d\n", mesh.tri_subdomain),
    ]
    for col, name in enumerate(
            ["stress_rr", "stress_yy", "stress_tt", "stress_ry"]):
        parts.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        parts.append(format_table("%.12g\n", stress[:, col]))
    return "".join(parts)


def export_vtk(mesh: Mesh, path, temperature, displacement, stress) -> None:
    atomic_write_text(path, vtk_text(mesh, temperature, displacement, stress))


def export_csv(mesh: Mesh, path, temperature, displacement) -> None:
    """Per-node table: node_id,r,y,T,u_r,u_y.

    T is written with 17 significant digits, which round-trips every
    double, so ``axitherm isoline`` rereads the solver's field exactly.
    A field with the wrong number of rows raises ValueError.
    """
    n = mesh.num_nodes
    T = checked_field("temperature", temperature, (n,), "nodes")
    u = checked_field("displacement", displacement, (n, 2), "nodes")
    text = "node_id,r,y,T,u_r,u_y\n" + format_table(
        "%d,%.12g,%.12g,%.17g,%.12g,%.12g\n", np.arange(n),
        mesh.nodes[:, 0], mesh.nodes[:, 1], T, u[:, 0], u[:, 1])
    atomic_write_text(path, text)


def export_report(report, path) -> None:
    atomic_write_text(path, json.dumps(asdict(report), indent=2) + "\n")
