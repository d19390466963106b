"""Rectilinear multi-material mesh generation in the (r, y) half plane.

Subdomains are simple, axis-aligned polygons. The mesher overlays a grid
whose lines contain every distinct r- and y-coordinate of the polygons,
so every subdomain interface is resolved exactly, then splits each cell
into two triangles along the lower-left to upper-right diagonal, and
tags every exterior edge. The result is deterministic and conforming by
construction.

The module also reads and writes the plain-text mesh format, and holds
:func:`format_table` and :func:`atomic_write_text`, the text formatter
and the file writer that :mod:`axitherm.io` uses for its files too
(``io`` imports ``mesh``, not the other way round).
"""
from __future__ import annotations

import math
import os
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
        """Even-odd point-in-polygon test, vectorized over ``points``: a
        rightward ray crosses only vertical edges, each at its own r."""
        x = points[:, 0]
        y = points[:, 1]
        inside = np.zeros(len(points), dtype=bool)
        v = np.asarray(self.vertices, float)
        for (x1, y1), y2 in zip(v, np.roll(v[:, 1], -1)):
            inside ^= ((y1 > y) != (y2 > y)) & (x < x1)
        return inside


@dataclass(frozen=True)
class BoundaryEdgeTable:
    """Per-edge arrays for ``Mesh.boundary_edges``, one row per edge in
    the same order.

    ij       (E, 2) int array of the edge's node ids
    tags     (E,) object array of BoundaryTag
    owner    (E,) the one triangle containing the edge
    normal   (E, 2) unit normal pointing away from the owner's third node
    length   (E,) edge length
    """

    ij: np.ndarray
    tags: np.ndarray
    owner: np.ndarray
    normal: np.ndarray
    length: np.ndarray

    def conditions(self, lookup) -> list:
        """``lookup(tag)`` of every row in table order: its edge's condition."""
        return [lookup(tag) for tag in self.tags]

    def condition_groups(self, lookup, kind) -> tuple:
        """(rows, groups): the rows whose condition is a ``kind``, in table
        order, and each distinct such condition with its rows' positions."""
        conds = self.conditions(lookup)
        rows = [e for e, c in enumerate(conds) if isinstance(c, kind)]
        groups = {}
        for k, e in enumerate(rows):
            groups.setdefault(id(conds[e]), (conds[e], []))[1].append(k)
        return np.array(rows, dtype=np.intp), list(groups.values())


@dataclass
class BoundaryConditions:
    """A condition per tag, an instance of ``kinds`` or one of the string
    ``constants``, checked when made; unlisted tags must not occur."""

    conditions: dict  # BoundaryTag -> condition
    physics, kinds, constants = "", (), ()

    def __post_init__(self):
        for tag, c in self.conditions.items():
            if not (isinstance(c, self.kinds)
                    or isinstance(c, str) and c in self.constants):
                raise ValueError(f"{c!r} on tag {tag} is not a "
                                 f"{self.physics} boundary condition")

    def lookup(self, tag):
        if tag not in self.conditions:
            raise ValueError(f"no {self.physics} boundary condition for tag {tag}")
        return self.conditions[tag]


@dataclass(frozen=True, eq=False)
class Mesh:
    """Conforming triangle mesh with subdomain and boundary tagging.

    nodes            (N, 2) float array of (r, y) coordinates
    triangles        (M, 3) int64 array, positively oriented
    tri_subdomain    (M,) int array of subdomain ids
    boundary_edges   tuple of (i, j, BoundaryTag), i < j, per exterior edge;
                     a row without a BoundaryTag raises

    A mesh cannot change: its fields cannot be reassigned and its arrays
    are read-only (a writable input is copied once, a read-only one is
    shared, so ``dataclasses.replace`` copies no array). So every table
    derived from it is built once, on first use.

    Every mesh, generated, loaded, built by hand or replaced, is checked
    when made: the shapes above with M >= 1, finite nodes at r >= 0
    (within GEOM_TOL), node ids in 0..N-1, each node on a triangle. The
    rows are checked against the triangles by ``boundary_edge_table``.
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
        nodes, tris = self.nodes, self.triangles
        for name, want in (("nodes", nodes.shape[:1] + (2,)),
                           ("triangles", tris.shape[:1] + (3,)),
                           ("tri_subdomain", tris.shape[:1])):
            if getattr(self, name).shape != want:
                raise ValueError(f"{name} has shape "
                                 f"{getattr(self, name).shape}, not {want}")
        n = len(nodes)
        if not len(tris):
            raise ValueError("mesh has no triangles")
        bad = np.flatnonzero(~np.isfinite(nodes)) // 2   # their nodes
        if bad.size:
            raise ValueError(f"node {bad[0]} has a non-finite coordinate: "
                             f"{tuple(nodes[bad[0]].tolist())}")
        # the axisymmetric forms weight by r, so the domain lies in r >= 0
        left = np.flatnonzero(nodes[:, 0] < -GEOM_TOL)
        if left.size:
            raise ValueError(f"node {left[0]} lies left of the axis, at r = "
                             f"{nodes[left[0], 0]:g}")
        for i, j, tag in self.boundary_edges:
            if not isinstance(tag, BoundaryTag):
                raise ValueError(f"boundary edge ({i}, {j}) has no tag")
        ends = np.array([e[:2] for e in self.boundary_edges], np.int64)
        for what, ids in (("triangle", tris), ("boundary edge", ends)):
            bad = ids[(ids < 0) | (ids >= n)]
            if bad.size:
                raise ValueError(f"{what} node id {bad[0]} outside 0..{n - 1}")
        unused = np.flatnonzero(np.bincount(tris.ravel(), minlength=n) == 0)
        if unused.size:
            raise ValueError(f"node {unused[0]} lies on no triangle")

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


def checked_field(name: str, values, shape: tuple, what: str) -> np.ndarray:
    """``values`` as a float array of ``shape``, whose first entry is the
    number of ``what`` (nodes or triangles) of a mesh: ``(n,)`` for one
    value per node, ``(n, 2)`` for one vector per node."""
    values = np.asarray(values, float)
    if values.ndim and len(values) != shape[0]:
        raise ValueError(f"{name} has {len(values)} rows, the mesh has "
                         f"{shape[0]} {what}")
    if values.shape != shape:
        raise ValueError(f"{name} has shape {values.shape}, not {shape}")
    return values


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


def _exterior_keys(keys: np.ndarray) -> np.ndarray:
    """The keys found once in the sorted ``keys``: edges of one triangle."""
    # keys are >= 0, so the -1 ends differ from every key
    step = np.diff(keys, prepend=-1, append=-1) != 0
    return keys[step[:-1] & step[1:]]


def _build_edge_table(mesh: Mesh) -> BoundaryEdgeTable:
    """The table of ``mesh.boundary_edges``: each exterior edge once, tagged."""
    n_edges = len(mesh.boundary_edges)
    ij = np.array([e[:2] for e in mesh.boundary_edges],
                  np.int64).reshape(n_edges, 2)
    tags = np.array([e[2] for e in mesh.boundary_edges], object)
    i, j = ij.T
    n = mesh.num_nodes
    keys, tri = _sorted_edge_keys(mesh.triangles, n)
    # sorted, three equal keys in a row are an edge of three triangles
    over = np.flatnonzero(keys[2:] == keys[:-2])
    if over.size:
        lo, hi = divmod(int(keys[over[0]]), n)
        raise ValueError(f"edge ({lo}, {hi}) lies on more than two triangles")
    want = np.minimum(i, j) * n + np.maximum(i, j)
    pos = np.searchsorted(keys, want)
    # a row that would change the answer unnoticed is rejected: a
    # repeat, or one inside the wall
    count = np.searchsorted(keys, want, side="right") - pos
    repeat = np.ones(n_edges, dtype=bool)
    repeat[np.unique(want, return_index=True)[1]] = False
    for bad, why in ((count == 0, "lies on no triangle"),
                     (repeat, "is listed twice"),
                     (count == 2, "is shared by two triangles")):
        if np.any(bad):
            e = int(np.flatnonzero(bad)[0])
            raise ValueError(f"boundary edge ({i[e]}, {j[e]}) {why}")
    # the rows are distinct exterior edges, so any left out are missing
    exterior = _exterior_keys(keys)
    if n_edges < len(exterior):
        lo, hi = divmod(int(np.setdiff1d(exterior, want)[0]), n)
        raise ValueError(f"missing exterior edge ({lo}, {hi})")
    owner = tri[pos]
    third = mesh.triangles[owner].sum(axis=1) - i - j
    p, q, o = mesh.nodes[i], mesh.nodes[j], mesh.nodes[third]
    # a row is AXIS exactly when both its ends lie on r = 0
    on_axis = (np.abs(p[:, 0]) < GEOM_TOL) & (np.abs(q[:, 0]) < GEOM_TOL)
    tagged_axis = tags == BoundaryTag.AXIS
    if np.any(on_axis != tagged_axis):
        e = int(np.flatnonzero(on_axis != tagged_axis)[0])
        where = "lies" if on_axis[e] else "does not lie"
        raise ValueError(f"boundary edge ({i[e]}, {j[e]}) is tagged "
                         f"{tags[e].value} but {where} on the axis r = 0")
    t = q - p
    normal = np.column_stack([t[:, 1], -t[:, 0]])
    inward = np.einsum("ed,ed->e", normal, o - p) > 0
    normal[inward] *= -1.0
    length = np.linalg.norm(t, axis=1)
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    # the table is shared by every caller of the mesh: keep it read-only
    for a in (ij, tags, owner, normal, length):
        a.setflags(write=False)
    return BoundaryEdgeTable(ij=ij, tags=tags, owner=owner, normal=normal,
                             length=length)


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
    """Generate a conforming triangle mesh covering the given polygons,
    its exterior edges tagged by :func:`tag_boundaries`.

    Cells whose centroid falls in no polygon are dropped, so hollow
    regions (such as the hearth cavity) stay unmeshed.
    """
    if not (np.isfinite(target_h) and target_h > 0):
        raise ValueError(f"target_h must be finite and positive, not {target_h}")
    if not polygons:
        raise ValueError("generate_mesh needs at least one polygon")
    feature, fid = _min_feature(polygons)
    if target_h > feature + GEOM_TOL:
        raise ValueError(
            f"target_h={target_h} exceeds the smallest polygon extent "
            f"{feature:g} (subdomain {fid})"
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
    # fixed diagonal lower-left -> upper-right, both triangles CCW; a
    # cell's two triangles are consecutive, so element numbering follows
    # the grid
    tris = np.stack([np.column_stack([ll, lr, ur]),
                     np.column_stack([ll, ur, ul])], axis=1).reshape(-1, 3)
    tri_sub = np.repeat(sub, 2)

    # drop unused grid nodes, renumber
    used = np.unique(tris)
    remap = -np.ones(nr * ny, dtype=int)
    remap[used] = np.arange(len(used))
    tris = remap[tris]
    nodes = np.column_stack(
        [r_lines[used // ny], y_lines[used % ny]]
    )

    return tag_boundaries(Mesh(nodes=nodes, triangles=tris,
                               tri_subdomain=tri_sub))


def tag_boundaries(mesh: Mesh) -> Mesh:
    """A copy of ``mesh`` with one tagged row per exterior edge, in edge
    key order, in place of its rows; it shares the mesh's arrays.

    Exterior edges on r=0 become AXIS, y=0 BOTTOM, r=r_max OUTER and
    y=y_max TOP, where r_max and y_max are the largest node coordinates.
    Every other exterior edge left of r_max is an inner (cavity-facing)
    wall, INNER; any edge left over raises.
    """
    r_max, y_max = mesh.nodes.max(axis=0).tolist()
    n = mesh.num_nodes
    lo, hi = np.divmod(_exterior_keys(_sorted_edge_keys(mesh.triangles, n)[0]), n)
    ends = mesh.nodes[[lo, hi]]                     # (2, E, 2)
    # (E, 2) each: the edge lies on r = 0 or y = 0; on r_max or y_max
    low, high = ((np.abs(ends - line) < GEOM_TOL).all(axis=0)
                 for line in ([0.0, 0.0], [r_max, y_max]))
    # the rules in order: the first that holds tags the edge
    rules = [low[:, 0], low[:, 1], high[:, 0], high[:, 1],
             ends[..., 0].max(axis=0) < r_max - GEOM_TOL]
    tags = np.select(rules, [BoundaryTag.AXIS, BoundaryTag.BOTTOM,
                             BoundaryTag.OUTER, BoundaryTag.TOP,
                             BoundaryTag.INNER], None)
    bad = np.flatnonzero(~np.any(rules, axis=0))
    if bad.size:
        (pr, py), (qr, qy) = ends[:, bad[0]]
        raise ValueError(f"untaggable exterior edge ({pr:g},{py:g})-({qr:g},{qy:g})")
    return replace(mesh, boundary_edges=zip(lo.tolist(), hi.tolist(), tags))


def _cells(lines: np.ndarray, x: np.ndarray):
    """(2, P) first and last grid cell holding each of ``x`` within
    GEOM_TOL (they differ on a grid line), and whether x is on the grid."""
    first = np.searchsorted(lines, x - GEOM_TOL) - 1
    last = np.searchsorted(lines, x + GEOM_TOL, "right") - 1
    return (np.clip([first, last], 0, len(lines) - 2),
            (last >= 0) & (first <= len(lines) - 2))


def interpolate(mesh: Mesh, values, points) -> np.ndarray:
    """The piecewise-linear field ``values`` (one per node) of a mesh made
    by :func:`generate_mesh`, at ``points`` (P, 2): barycentric in the
    lower or upper triangle of the point's grid cell. A point on the edge
    of an unmeshed cell (the cavity) takes the meshed neighbour; a point
    in no triangle raises."""
    values = checked_field("values", values, (mesh.num_nodes,), "nodes")
    points = np.asarray(points, float).reshape(-1, 2)
    lines = [np.unique(x) for x in mesh.nodes.T]
    at = [np.searchsorted(ls, x) for ls, x in zip(lines, mesh.nodes.T)]
    grid = np.zeros([len(ls) for ls in lines], dtype=np.int64)
    grid[tuple(at)] = np.arange(mesh.num_nodes)
    # a cell is meshed where its lower-left corner is a triangle's
    meshed = np.zeros([len(ls) - 1 for ls in lines], dtype=bool)
    meshed[tuple(a[mesh.triangles].min(axis=1) for a in at)] = True
    (ci, r_ok), (cj, y_ok) = map(_cells, lines, points.T)
    # the first meshed one of the (up to) four cells holding a point
    hit = meshed[ci[:, None], cj[None, :]].reshape(4, -1)
    k, p = hit.argmax(axis=0), np.arange(len(points))
    inside = hit[k, p] & r_ok & y_ok
    if not inside.all():
        bad = int(np.flatnonzero(~inside)[0])
        raise ValueError(f"point {bad} (r={points[bad, 0]:g}, "
                         f"y={points[bad, 1]:g}) lies in no triangle")
    i, j = ci[k // 2, p], cj[k % 2, p]
    s, t = ((x - ls[c]) / (ls[c + 1] - ls[c])
            for x, ls, c in zip(points.T, lines, (i, j)))
    # lower triangle (ll, lr, ur) where t <= s, upper (ll, ur, ul) else
    mid = np.where(t <= s, grid[i + 1, j], grid[i, j + 1])
    return (np.minimum(1 - s, 1 - t) * values[grid[i, j]]
            + np.abs(s - t) * values[mid]
            + np.minimum(s, t) * values[grid[i + 1, j + 1]])


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


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in the same
    directory and a rename, so ``path`` holds its old content or all of
    ``text``, never part of it. The file gets the mode ``open(path,
    "w")`` gives a new file under the running umask."""
    path = str(path)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}")
    # created as open() creates a file: 0o666 less the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
        format_table("%s %s %s\n", i, j, [t.value for t in tags]),
    ])
    atomic_write_text(path, text)


_COMMENT = re.compile(r"#[^\n]*")
# boundary-edge tag by its text in the mesh file
_TAG_NAMES = {t.value: t for t in BoundaryTag}
# one boundary-edge row, matched on its own or as a line of the
# section: two integers as int() reads them, then a tag name
_INT = r"[+-]?\d(?:_?\d)*"
_EDGE_ROW = re.compile(
    rf"^({_INT})[^\S\n]+({_INT})[^\S\n]+({'|'.join(_TAG_NAMES)})$",
    re.MULTILINE)


def load_mesh(path) -> Mesh:
    """Read the plain-text mesh format written by :func:`save_mesh` and
    build its boundary-edge table, dropping the ``interface`` rows of
    older files. A file that is empty, truncated, malformed or longer
    than its sections raises, as does a mesh that :class:`Mesh` or its
    table rejects."""
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
    tri_rows = numbers(section("triangles"), 4, int)
    rows = section("boundary_edges")
    if pos < len(lines):
        raise ValueError(f"content after the boundary_edges section: "
                         f"'{lines[pos]}'")
    fields = _EDGE_ROW.findall("\n".join(rows))
    if len(fields) < len(rows):
        k = next(k for k, row in enumerate(rows, 1)
                 if not _EDGE_ROW.fullmatch(row))
        raise ValueError(
            f"boundary_edges row {k}: expected 'i j tag' with integer node "
            f"ids and tag one of {', '.join(_TAG_NAMES)}, got '{rows[k - 1]}'")
    bedges = [(int(a), int(c), _TAG_NAMES[name]) for a, c, name in fields
              if _TAG_NAMES[name] is not BoundaryTag.INTERFACE]
    mesh = Mesh(nodes=nodes, triangles=tri_rows[:, :3],
                tri_subdomain=tri_rows[:, 3], boundary_edges=bedges)
    mesh.boundary_edge_table  # checks the rows; every later use reuses it
    return mesh
