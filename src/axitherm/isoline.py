"""Marching-triangles isoline extraction for nodal scalar fields.

Every isoline vertex is keyed by the mesh entity it lies on: a node whose
value equals the level by its node id, and a strict crossing of the edge
(lo, hi), lo < hi, by ``n + lo * n + hi`` for a mesh of n nodes. Each
crossing is computed once, from lo to hi, so the two triangles of an
edge share the identical point, and segments are chained through these
integer keys with no coordinate tolerance. This is the shared-edge
vertex rule of marching cubes (Lorensen & Cline, SIGGRAPH 1987).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import checked_field, format_table

# the next vertex of each triangle vertex: edge e runs from e to _NEXT[e]
_NEXT = [1, 2, 0]


@dataclass
class IsoLine:
    level: float
    polylines: list  # each a list of (r, y) tuples


def _segment_keys(triangles, d, n):
    """(S, 2) vertex keys of the level-set segments, in triangle order.

    ``d`` is the field minus the level at every node. Each triangle's
    vertices are taken in the order its edge walk (0, 1), (1, 2), (2, 0)
    finds them: a node on the level at the start of an edge, then a
    strict crossing of that edge. Two vertices make one segment; a flat
    triangle lying wholly on the level gives its three edges. A segment
    between two nodes on the level is kept once, where it first occurs.
    """
    tris = np.asarray(triangles, np.int64)
    d_el = d[tris]
    hit = (d_el.min(axis=1) <= 0.0) & (d_el.max(axis=1) >= 0.0)
    tris, d_el = tris[hit], d_el[hit]
    # slot 2e: node e on the level; slot 2e + 1: strict crossing of edge e
    ends = tris[:, _NEXT]
    keys = np.empty((len(tris), 6), np.int64)
    keys[:, 0::2] = tris
    keys[:, 1::2] = n + np.minimum(tris, ends) * n + np.maximum(tris, ends)
    on = np.empty((len(tris), 6), bool)
    on[:, 0::2] = d_el == 0.0
    sign = np.sign(d_el)
    on[:, 1::2] = sign * sign[:, _NEXT] < 0.0
    count = on.sum(axis=1)
    # the (at most three) vertices of each triangle first, in slot order
    first = np.take_along_axis(keys, np.argsort(~on, axis=1, kind="stable"),
                               axis=1)[:, :3]
    segs = np.stack([first, first[:, _NEXT]], axis=2)       # (T, 3, 2)
    keep = np.column_stack([count >= 2, count == 3, count == 3])
    segs = segs[keep]
    # a segment on the level between two nodes is shared by both of its
    # triangles; keep its first occurrence
    on_level = np.flatnonzero((segs < n).all(axis=1))
    pair = segs[on_level].min(axis=1) * n + segs[on_level].max(axis=1)
    _, first_seen = np.unique(pair, return_index=True)
    keep = np.ones(len(segs), bool)
    keep[on_level] = False
    keep[on_level[first_seen]] = True
    return segs[keep]


def _chain(segments) -> list:
    """Maximal chains of key pairs joined at shared keys, each started at
    the first unused segment and extended through the first unused
    segment at its end, forward and then backward."""
    adjacency = {}
    for idx, (a, b) in enumerate(segments):
        adjacency.setdefault(a, []).append((idx, 1))
        adjacency.setdefault(b, []).append((idx, 0))
    used = [False] * len(segments)
    chains = []
    for start, (a, b) in enumerate(segments):
        if used[start]:
            continue
        used[start] = True
        halves = []
        for current in (b, a):
            half = []
            while True:
                nxt = next(((idx, other) for idx, other in adjacency[current]
                            if not used[idx]), None)
                if nxt is None:
                    break
                used[nxt[0]] = True
                current = segments[nxt[0]][nxt[1]]
                half.append(current)
            halves.append(half)
        chains.append(halves[1][::-1] + [a, b] + halves[0])
    return chains


def extract_isoline(mesh, values, level: float) -> IsoLine:
    """Extract the level set of a P1 field as chained polylines.

    Every emitted vertex lies on a mesh edge where the interpolant
    equals ``level``; an empty result is valid. A non-finite level or
    value raises ValueError.
    """
    if not np.isfinite(level):
        raise ValueError(f"isoline level must be finite, not {level}")
    n = mesh.num_nodes
    values = checked_field("values", values, (n,), "nodes")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"node {bad[0]} has a non-finite value: "
                         f"{values[bad[0]]}")
    d = values - level
    segments = _segment_keys(mesh.triangles, d, n)
    keys = np.unique(segments)
    crossing = keys >= n
    points = np.empty((len(keys), 2))
    points[~crossing] = mesh.nodes[keys[~crossing]]
    lo, hi = np.divmod(keys[crossing] - n, n)
    s = d[lo] / (d[lo] - d[hi])
    p_lo, p_hi = mesh.nodes[lo], mesh.nodes[hi]
    points[crossing] = p_lo + s[:, None] * (p_hi - p_lo)
    point_of = dict(zip(keys.tolist(), map(tuple, points.tolist())))
    polylines = [[point_of[k] for k in chain]
                 for chain in _chain(segments.tolist())]
    return IsoLine(level=level, polylines=polylines)


def isoline_csv(iso: IsoLine) -> str:
    pid = np.repeat(np.arange(len(iso.polylines)),
                    [len(poly) for poly in iso.polylines])
    points = np.array([p for poly in iso.polylines for p in poly],
                      float).reshape(-1, 2)
    return "polyline,r,y\n" + format_table("%d,%r,%r\n", pid, points[:, 0],
                                            points[:, 1])
