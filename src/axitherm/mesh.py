"""Rectilinear multi-material mesh generation in the (r, y) half plane.

Subdomains are simple, axis-aligned polygons. The mesher overlays a grid
whose lines contain every distinct r- and y-coordinate of the polygons,
so every subdomain interface is resolved exactly, then splits each cell
into two triangles along the lower-left to upper-right diagonal. The
result is deterministic and conforming by construction.

The module also reads and writes the plain-text mesh format, and holds
:func:`format_table`, the text formatter that :mod:`axitherm.io` uses
for its files too (``io`` imports ``mesh``, not the other way round).
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .fem_core import AssemblyWorkspace, read_only

GEOM_TOL = 1e-9


class BoundaryTag(Enum):
    BOTTOM = "bottom"
    OUTER = "outer"
    TOP = "top"
    INNER = "inner"
    AXIS = "axis"
    INTERFACE = "interface"


@dataclass(frozen=True)
class SubdomainPolygon:
    """Closed, counterclockwise, axis-aligned simple polygon.

    ``subdomain_id`` need not be unique in a list of polygons: a
    subdomain made of several disconnected pieces is represented by
    several polygons sharing one id.
    """

    subdomain_id: int
    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        v = np.asarray(self.vertices, float)
        if len(v) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if np.any(v[:, 0] < -GEOM_TOL):
            raise ValueError("polygon extends into r < 0")
        nxt = np.roll(v, -1, axis=0)
        dr = np.abs(nxt[:, 0] - v[:, 0])
        dy = np.abs(nxt[:, 1] - v[:, 1])
        if np.any((dr > GEOM_TOL) & (dy > GEOM_TOL)):
            raise ValueError(
                f"polygon {self.subdomain_id} has a non-axis-aligned edge"
            )
        if self.area() <= 0:
            raise ValueError(f"polygon {self.subdomain_id} is not counterclockwise")

    def area(self) -> float:
        """Signed shoelace area (positive for counterclockwise)."""
        v = np.asarray(self.vertices, float)
        nxt = np.roll(v, -1, axis=0)
        return 0.5 * float(np.sum(v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1]))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Even-odd point-in-polygon test, vectorized over ``points``."""
        x = points[:, 0]
        y = points[:, 1]
        inside = np.zeros(len(points), dtype=bool)
        v = np.asarray(self.vertices, float)
        n = len(v)
        for i in range(n):
            x1, y1 = v[i]
            x2, y2 = v[(i + 1) % n]
            cross = (y1 > y) != (y2 > y)
            with np.errstate(divide="ignore", invalid="ignore"):
                xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            inside ^= cross & (x < xi)
        return inside


@dataclass(frozen=True)
class BoundaryEdgeTable:
    """Per-edge arrays for ``Mesh.boundary_edges``, one row per edge in
    the same order.

    i, j     (E,) int arrays of the edge's node ids
    tags     tuple of BoundaryTag (or None for untagged exterior edges)
    owner    (E,) lowest-numbered triangle containing the edge
    normal   (E, 2) unit normal pointing away from the owner's third node
    length   (E,) edge length
    """

    i: np.ndarray
    j: np.ndarray
    tags: tuple
    owner: np.ndarray
    normal: np.ndarray
    length: np.ndarray

    def conditions(self, lookup) -> list:
        """``lookup(tag)`` for every row in table order: the boundary
        condition of each exterior edge, None on interface and untagged
        rows."""
        return [None if tag is None or tag is BoundaryTag.INTERFACE
                else lookup(tag) for tag in self.tags]


@dataclass(frozen=True, eq=False)
class Mesh:
    """Conforming triangle mesh with subdomain and boundary tagging.

    nodes            (N, 2) float array of (r, y) coordinates
    triangles        (M, 3) int64 array, positively oriented
    tri_subdomain    (M,) int array of subdomain ids
    boundary_edges   tuple of (i, j, BoundaryTag) with i < j

    A mesh cannot change: its fields cannot be reassigned and its arrays
    are read-only (a writable input is copied once, a read-only one is
    shared, so ``dataclasses.replace`` copies no array). So every table
    derived from it is built once, on first use.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    tri_subdomain: np.ndarray
    boundary_edges: tuple = ()

    def __post_init__(self):
        for name, dtype in (("nodes", float), ("triangles", np.int64),
                            ("tri_subdomain", None)):
            object.__setattr__(self, name, read_only(getattr(self, name), dtype))
        object.__setattr__(self, "boundary_edges",
                           tuple(map(tuple, self.boundary_edges)))

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @cached_property
    def h(self) -> float:
        """Maximum triangle diameter: the longest triangle edge."""
        p = self.nodes[self.triangles]
        return float(np.linalg.norm(p - np.roll(p, 1, axis=1), axis=2).max())

    @cached_property
    def boundary_edge_table(self) -> BoundaryEdgeTable:
        """Owners, normals and lengths of ``boundary_edges`` as arrays."""
        return _build_edge_table(self)

    @cached_property
    def assembly_workspace(self) -> AssemblyWorkspace:
        """Geometry, quadrature, subdomain and sparsity-pattern data that
        every assembly on this mesh shares."""
        return AssemblyWorkspace(self)


def _sorted_edge_keys(triangles: np.ndarray, num_nodes: int):
    """Every triangle edge as the key lo * num_nodes + hi, sorted.

    Returns (keys, tri): equal keys are adjacent and ordered by
    triangle index, and ``tri`` gives each key's triangle.
    """
    tris = np.asarray(triangles, dtype=np.int64)
    ends = tris[:, [[0, 1], [1, 2], [2, 0]]]          # (M, 3, 2)
    keys = (ends.min(axis=2) * num_nodes + ends.max(axis=2)).ravel()
    order = np.argsort(keys, kind="stable")
    return keys[order], order // 3


def _build_edge_table(mesh: Mesh) -> BoundaryEdgeTable:
    n_edges = len(mesh.boundary_edges)
    i = np.fromiter((e[0] for e in mesh.boundary_edges), np.int64, n_edges)
    j = np.fromiter((e[1] for e in mesh.boundary_edges), np.int64, n_edges)
    tags = tuple(e[2] for e in mesh.boundary_edges)
    n = mesh.num_nodes
    keys, tri = _sorted_edge_keys(mesh.triangles, n)
    want = np.minimum(i, j) * n + np.maximum(i, j)
    pos = np.searchsorted(keys, want)
    found = pos < len(keys)
    found[found] = keys[pos[found]] == want[found]
    if not np.all(found):
        e = int(np.flatnonzero(~found)[0])
        raise ValueError(f"boundary edge ({i[e]}, {j[e]}) lies on no triangle")
    owner = tri[pos]
    third = mesh.triangles[owner].sum(axis=1) - i - j
    p, q, o = mesh.nodes[i], mesh.nodes[j], mesh.nodes[third]
    t = q - p
    normal = np.column_stack([t[:, 1], -t[:, 0]])
    inward = np.einsum("ed,ed->e", normal, o - p) > 0
    normal[inward] *= -1.0
    length = np.linalg.norm(t, axis=1)
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    # the table is shared by every caller of the mesh: keep it read-only
    for a in (i, j, owner, normal, length):
        a.setflags(write=False)
    return BoundaryEdgeTable(i=i, j=j, tags=tags, owner=owner,
                             normal=normal, length=length)


# Hearth geometry. Vertex coordinates in meters. Subdomain 2 consists of
# two disconnected blocks; a naive vertex list for it would overlap the
# neighbouring subdomains, so the two blocks are trimmed to a tiling of
# the domain (west edge of the lower block at r = 0.39, inner corner of
# the upper block at y = 6.4).
_HEARTH_POLYGONS = [
    (1, [(0.0, 0.0), (5.9501, 0.0), (5.9501, 1.0), (2.1, 1.0), (0.0, 1.0)]),
    (2, [(0.39, 1.0), (2.1, 1.0), (2.1, 1.6), (0.39, 1.6)]),
    (2, [(4.875, 5.2), (5.9501, 5.2), (5.9501, 7.35), (5.5188, 7.35),
         (5.5188, 6.4), (4.875, 6.4)]),
    (3, [(0.0, 1.0), (0.39, 1.0), (0.39, 1.6), (0.0, 1.6)]),
    (4, [(0.39, 1.6), (2.1, 1.6), (4.875, 1.6), (4.875, 5.2), (4.875, 6.4),
         (5.5188, 6.4), (5.5188, 7.35), (5.5188, 7.4), (4.875, 7.4),
         (4.875, 7.0), (4.475, 7.0), (4.475, 2.1), (0.39, 2.1)]),
    (5, [(2.1, 1.0), (5.9501, 1.0), (5.9501, 5.2), (4.875, 5.2),
         (4.875, 1.6), (2.1, 1.6)]),
    (6, [(5.9501, 0.0), (6.0201, 0.0), (6.0201, 7.4), (5.9501, 7.4),
         (5.9501, 7.35), (5.9501, 5.2), (5.9501, 1.0)]),
]

# Inner (cavity) wall of the hearth: the polyline from the cavity floor
# near the axis up-and-over to (4.875, 7.4). Edges lying on these
# segments face the molten metal.
HEARTH_CAVITY_SEGMENTS = [
    ((0.0, 1.6), (0.39, 1.6)),
    ((0.39, 1.6), (0.39, 2.1)),
    ((0.39, 2.1), (4.475, 2.1)),
    ((4.475, 2.1), (4.475, 7.0)),
    ((4.475, 7.0), (4.875, 7.0)),
    ((4.875, 7.0), (4.875, 7.4)),
]

# Edges of the stepped upper surface (a notch between the top of the
# middle block at y = 7.35 and y_max) count as top-boundary contact.
HEARTH_TOP_BAND_MIN_Y = 7.35


def build_hearth_geometry() -> list[SubdomainPolygon]:
    """Blast-furnace hearth cross-section: 6 subdomains, 7 polygons."""
    return [SubdomainPolygon(sid, tuple(v)) for sid, v in _HEARTH_POLYGONS]


def _breaklines(polygons, axis: int, target_h: float) -> np.ndarray:
    breaks = sorted({float(v[axis]) for p in polygons for v in p.vertices})
    lines = [breaks[0]]
    # subdivide so every cell diagonal stays below target_h
    for a, b in zip(breaks[:-1], breaks[1:]):
        n = max(1, math.ceil(math.sqrt(2.0) * (b - a) / target_h))
        lines.extend(np.linspace(a, b, n + 1)[1:])
    return np.asarray(lines)


def _min_feature(polygons) -> tuple[float, int]:
    """Smallest polygon extent: min over polygons of max(width, height)."""
    best, best_id = math.inf, -1
    for p in polygons:
        v = np.asarray(p.vertices, float)
        ext = max(np.ptp(v[:, 0]), np.ptp(v[:, 1]))
        if ext < best:
            best, best_id = ext, p.subdomain_id
    return best, best_id


def generate_mesh(polygons: list[SubdomainPolygon], target_h: float) -> Mesh:
    """Generate a conforming triangle mesh covering the given polygons.

    Cells whose centroid falls in no polygon are dropped, so hollow
    regions (such as the hearth cavity) stay unmeshed.
    """
    if not (np.isfinite(target_h) and target_h > 0):
        raise ValueError(f"target_h must be finite and positive, not {target_h}")
    feature, fid = _min_feature(polygons)
    if target_h > feature + GEOM_TOL:
        raise ValueError(
            f"target_h={target_h} exceeds the smallest polygon extent "
            f"{feature} (subdomain {fid})"
        )

    r_lines = _breaklines(polygons, 0, target_h)
    y_lines = _breaklines(polygons, 1, target_h)
    nr, ny = len(r_lines), len(y_lines)

    # cell centroids -> subdomain id (0 = outside every polygon)
    cr = 0.5 * (r_lines[:-1] + r_lines[1:])
    cy = 0.5 * (y_lines[:-1] + y_lines[1:])
    CR, CY = np.meshgrid(cr, cy, indexing="ij")
    centroids = np.column_stack([CR.ravel(), CY.ravel()])
    cell_sub = np.zeros(len(centroids), dtype=int)
    for p in polygons:
        hit = p.contains(centroids)
        claimed = hit & (cell_sub != 0)
        if np.any(claimed):
            bad = centroids[claimed][0]
            raise ValueError(
                f"polygons overlap near (r={bad[0]:g}, y={bad[1]:g})"
            )
        cell_sub[hit] = p.subdomain_id
    cell_sub = cell_sub.reshape(nr - 1, ny - 1)

    ci, cj = np.nonzero(cell_sub)
    if len(ci) == 0:
        raise ValueError("no cell centroid lies inside any polygon")
    sub = cell_sub[ci, cj]

    def gid(i, j):
        return i * ny + j

    ll, lr = gid(ci, cj), gid(ci + 1, cj)
    ul, ur = gid(ci, cj + 1), gid(ci + 1, cj + 1)
    # fixed diagonal lower-left -> upper-right, both triangles CCW
    tris = np.concatenate(
        [np.column_stack([ll, lr, ur]), np.column_stack([ll, ur, ul])]
    )
    tri_sub = np.concatenate([sub, sub])

    # drop unused grid nodes, renumber
    used = np.unique(tris)
    remap = -np.ones(nr * ny, dtype=int)
    remap[used] = np.arange(len(used))
    tris = remap[tris]
    nodes = np.column_stack(
        [r_lines[used // ny], y_lines[used % ny]]
    )

    # interleave the two triangles of each cell back into cell order so
    # element numbering follows the grid deterministically
    order = np.argsort(np.r_[np.arange(len(ci)) * 2, np.arange(len(ci)) * 2 + 1],
                       kind="stable")
    tris = tris[order]
    tri_sub = tri_sub[order]

    edges = _collect_boundary_edges(tris, tri_sub, len(nodes))
    return Mesh(nodes=nodes, triangles=tris, tri_subdomain=tri_sub,
                boundary_edges=edges)


def _collect_boundary_edges(triangles, tri_subdomain, n: int) -> list:
    """The exterior and inter-subdomain edges of a mesh of ``n`` nodes,
    exterior ones untagged."""
    keys, tri = _sorted_edge_keys(triangles, n)
    start = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    counts = np.diff(np.r_[start, len(keys)])
    lo, hi = keys[start] // n, keys[start] % n
    if np.any(counts > 2):
        e = int(np.flatnonzero(counts > 2)[0])
        raise ValueError(f"non-conforming edge ({lo[e]}, {hi[e]})")
    sub = tri_subdomain[tri]
    shared = counts == 2
    interface = np.zeros(len(start), dtype=bool)
    interface[shared] = sub[start[shared]] != sub[start[shared] + 1]
    keep = (counts == 1) | interface
    return [
        (i, j, BoundaryTag.INTERFACE if iface else None)
        for i, j, iface in zip(lo[keep].tolist(), hi[keep].tolist(),
                               interface[keep].tolist())
    ]


def _on_segment(p, q, seg) -> bool:
    (ax, ay), (bx, by) = seg
    lo_x, hi_x = min(ax, bx) - GEOM_TOL, max(ax, bx) + GEOM_TOL
    lo_y, hi_y = min(ay, by) - GEOM_TOL, max(ay, by) + GEOM_TOL
    for x, y in (p, q):
        if not (lo_x <= x <= hi_x and lo_y <= y <= hi_y):
            return False
        # axis-aligned segments: collinearity is a single coordinate match
        if abs(ax - bx) < GEOM_TOL and abs(x - ax) > GEOM_TOL:
            return False
        if abs(ay - by) < GEOM_TOL and abs(y - ay) > GEOM_TOL:
            return False
    return True


def tag_boundaries(
    mesh: Mesh,
    polygons: list[SubdomainPolygon],
    inner_segments=None,
    top_band_min_y: float | None = None,
) -> Mesh:
    """A copy of ``mesh`` with physical tags on its exterior boundary
    edges; it shares the mesh's arrays.

    Exterior edges on r=0 become AXIS, y=0 BOTTOM, r=r_max OUTER and
    y=y_max TOP. When ``inner_segments`` is given, edges lying on those
    segments become INNER and remaining edges above ``top_band_min_y``
    become TOP (stepped upper surfaces); otherwise every leftover
    exterior edge is treated as an inner (cavity-facing) wall. Any edge
    matching no rule raises.
    """
    verts = np.concatenate([np.asarray(p.vertices, float) for p in polygons])
    r_max = float(verts[:, 0].max())
    y_max = float(verts[:, 1].max())

    tagged = []
    for (i, j, tag) in mesh.boundary_edges:
        if tag is BoundaryTag.INTERFACE:
            tagged.append((i, j, tag))
            continue
        p, q = mesh.nodes[i], mesh.nodes[j]
        if abs(p[0]) < GEOM_TOL and abs(q[0]) < GEOM_TOL:
            t = BoundaryTag.AXIS
        elif abs(p[1]) < GEOM_TOL and abs(q[1]) < GEOM_TOL:
            t = BoundaryTag.BOTTOM
        elif abs(p[0] - r_max) < GEOM_TOL and abs(q[0] - r_max) < GEOM_TOL:
            t = BoundaryTag.OUTER
        elif abs(p[1] - y_max) < GEOM_TOL and abs(q[1] - y_max) < GEOM_TOL:
            t = BoundaryTag.TOP
        elif (any(_on_segment(p, q, s) for s in inner_segments)
              if inner_segments is not None
              else max(p[0], q[0]) < r_max - GEOM_TOL):
            t = BoundaryTag.INNER
        elif (inner_segments is not None and top_band_min_y is not None
              and min(p[1], q[1]) >= top_band_min_y - GEOM_TOL):
            t = BoundaryTag.TOP
        else:
            raise ValueError(
                f"untaggable exterior edge ({p[0]:g},{p[1]:g})-({q[0]:g},{q[1]:g})"
            )
        tagged.append((i, j, t))
    return replace(mesh, boundary_edges=tagged)


def hearth_mesh(target_h: float) -> Mesh:
    """Generate and fully tag the built-in hearth mesh."""
    polys = build_hearth_geometry()
    mesh = generate_mesh(polys, target_h)
    return tag_boundaries(mesh, polys, HEARTH_CAVITY_SEGMENTS,
                          HEARTH_TOP_BAND_MIN_Y)


# one %-conversion of a format line: flags, width and precision, then
# the conversion letter
_CONVERSION = re.compile(r"%[^%a-zA-Z]*[a-zA-Z]")


def _distinct_texts(spec: str, column: np.ndarray):
    """``spec`` applied once per distinct value of ``column``, as the
    column of texts, or None when more than a quarter of its values are
    distinct. Values are keyed on their bit pattern, so -0.0, 0.0 and
    each NaN keep their own text."""
    if column.dtype.kind not in "iuf":
        return None
    keys = column.view(f"u{column.itemsize}")
    s = np.sort(keys)
    distinct = s[np.r_[True, s[1:] != s[:-1]]]
    if 4 * len(distinct) > len(keys):
        return None
    texts = list(map(spec.__mod__, distinct.view(column.dtype).tolist()))
    return np.array(texts, dtype=object)[np.searchsorted(distinct, keys)]


def format_table(fmt: str, *columns) -> str:
    """``fmt`` (one line, one %-conversion per column) applied to each
    row of ``columns``: the same text as formatting each value on its
    own.

    The columns fill one 2-D table that a single ``%`` formats, so no
    row is built as a Python container. A column in which at most a
    quarter of the values are distinct is formatted once per distinct
    value and enters the table as text.
    """
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    if n == 0:
        return ""
    pieces = _CONVERSION.split(fmt)
    table = np.empty((n, len(columns)), dtype=object)
    line = pieces[0]
    for k, (spec, column) in enumerate(zip(_CONVERSION.findall(fmt), columns)):
        texts = _distinct_texts(spec, column)
        if texts is not None:
            column, spec = texts, "%s"
        table[:, k] = column
        line += spec + pieces[k + 1]
    return line * n % tuple(table.ravel().tolist())


def save_mesh(mesh: Mesh, path) -> None:
    """Write the plain-text mesh format (axitherm-mesh v1)."""
    nodes, tris, edges = mesh.nodes, mesh.triangles, mesh.boundary_edges
    i, j, tags = zip(*edges) if edges else ((), (), ())
    text = "".join([
        f"axitherm-mesh v1\nnodes {len(nodes)}\n",
        format_table("%r %r\n", nodes[:, 0], nodes[:, 1]),
        f"triangles {len(tris)}\n",
        format_table("%s %s %s %s\n", tris[:, 0], tris[:, 1], tris[:, 2],
                     mesh.tri_subdomain),
        f"boundary_edges {len(edges)}\n",
        format_table("%s %s %s\n", i, j,
                     [t.value if t is not None else "untagged" for t in tags]),
    ])
    with open(path, "w") as f:
        f.write(text)


_COMMENT = re.compile(r"#[^\n]*")
# boundary-edge tag by its text in the mesh file
_TAG_NAMES = {t.value: t for t in BoundaryTag} | {"untagged": None}
# one boundary-edge row, matched on its own or as a line of the
# section: two integers as int() reads them, then a tag name
_INT = r"[+-]?\d(?:_?\d)*"
_EDGE_ROW = re.compile(
    rf"^({_INT})[^\S\n]+({_INT})[^\S\n]+({'|'.join(_TAG_NAMES)})$",
    re.MULTILINE)


def load_mesh(path) -> Mesh:
    """Read the plain-text mesh format written by :func:`save_mesh`; a
    file that is empty, truncated or malformed, that holds a non-finite
    node coordinate, or that names a node id outside 0..N-1, raises
    ValueError."""
    with open(path) as f:
        text = f.read()
    lines = list(filter(None, map(str.strip,
                                  _COMMENT.sub("", text).split("\n"))))
    if not lines:
        raise ValueError("empty mesh file")
    if lines[0].split() != ["axitherm-mesh", "v1"]:
        raise ValueError("not an axitherm-mesh v1 file")
    pos = 1

    def section(keyword):
        """The rows of the ``keyword`` section."""
        nonlocal pos
        head = lines[pos].split() if pos < len(lines) else ["end of file"]
        if len(head) != 2 or head[0] != keyword or not head[1].isdigit():
            raise ValueError(f"expected '{keyword} <count>', got '{' '.join(head)}'")
        count = int(head[1])
        rows = lines[pos + 1:pos + 1 + count]
        if len(rows) < count:
            raise ValueError(f"truncated mesh file: section '{keyword}' has "
                             f"{len(rows)} of {count} rows")
        pos += 1 + count
        return rows

    def numbers(rows, columns, dtype):
        """The rows converted as one (len(rows), columns) array."""
        if not rows:
            return np.empty((0, columns), dtype=dtype)
        out = np.loadtxt(rows, dtype=dtype, ndmin=2)
        if out.shape[1] != columns:
            raise ValueError(f"expected {columns} values per row, got {out.shape[1]}")
        return out

    nodes = numbers(section("nodes"), 2, float)
    bad = np.flatnonzero(~np.isfinite(nodes).all(axis=1))
    if bad.size:
        raise ValueError(f"node {bad[0]} has a non-finite coordinate: "
                         f"{tuple(nodes[bad[0]].tolist())}")
    tri_rows = numbers(section("triangles"), 4, int)
    tris = tri_rows[:, :3]
    sub = tri_rows[:, 3]
    rows = section("boundary_edges")
    fields = _EDGE_ROW.findall("\n".join(rows))
    if len(fields) < len(rows):
        k = next(k for k, row in enumerate(rows, 1)
                 if not _EDGE_ROW.fullmatch(row))
        raise ValueError(
            f"boundary_edges row {k}: expected 'i j tag' with integer node "
            f"ids and tag one of {', '.join(_TAG_NAMES)}, got '{rows[k - 1]}'")
    bedges = [(int(a), int(c), _TAG_NAMES[name]) for a, c, name in fields]
    n = len(nodes)
    if len(tris) == 0:
        raise ValueError("mesh file has no triangles")
    ends = np.array([e[:2] for e in bedges], dtype=np.int64).reshape(-1, 2)
    for what, ids in (("triangle", tris), ("boundary edge", ends)):
        bad = ids[(ids < 0) | (ids >= n)]
        if bad.size:
            raise ValueError(f"{what} node id {bad[0]} outside 0..{n - 1}")
    return Mesh(nodes=nodes, triangles=tris, tri_subdomain=sub,
                boundary_edges=bedges)
