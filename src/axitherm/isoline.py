"""Marching-triangles isoline extraction for nodal scalar fields."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CHAIN_TOL = 1e-12


@dataclass
class IsoLine:
    level: float
    polylines: list  # each a list of (r, y) tuples


def _crossings(p, t, level):
    """Points where the P1 interpolant on one triangle equals level."""
    pts = []
    for a, b in ((0, 1), (1, 2), (2, 0)):
        ta, tb = t[a], t[b]
        da, db = ta - level, tb - level
        if da == 0.0:
            pts.append(tuple(p[a]))
        if da * db < 0.0:
            s = da / (da - db)
            pts.append(tuple(p[a] + s * (p[b] - p[a])))
    # drop duplicates from level-at-node ties
    uniq = []
    for q in pts:
        if not any(abs(q[0] - u[0]) <= CHAIN_TOL and abs(q[1] - u[1]) <= CHAIN_TOL
                   for u in uniq):
            uniq.append(q)
    return uniq


def extract_isoline(mesh, values, level: float) -> IsoLine:
    """Extract the level set of a P1 field as chained polylines.

    Every emitted vertex lies on a mesh edge where the interpolant
    equals ``level``; an empty result is valid.
    """
    values = np.asarray(values, float)
    tri_values = values[mesh.triangles]
    missed = (tri_values.min(axis=1) > level) | (tri_values.max(axis=1) < level)
    segments = []
    for m in np.flatnonzero(~missed):
        tri = mesh.triangles[m]
        pts = _crossings(mesh.nodes[tri], tri_values[m], level)
        if len(pts) == 2:
            segments.append((pts[0], pts[1]))
        elif len(pts) > 2:
            # flat triangle at the level: keep its edges as segments
            for a in range(len(pts)):
                segments.append((pts[a], pts[(a + 1) % len(pts)]))

    def key(q):
        return (round(q[0] / CHAIN_TOL), round(q[1] / CHAIN_TOL))

    # chain segments by shared endpoints
    adjacency = {}
    for idx, (a, b) in enumerate(segments):
        adjacency.setdefault(key(a), []).append((idx, 0))
        adjacency.setdefault(key(b), []).append((idx, 1))

    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        a, b = segments[start]
        chain = [a, b]
        for endpoint, append in ((b, True), (a, False)):
            current = endpoint
            while True:
                candidates = [
                    (idx, end) for idx, end in adjacency.get(key(current), [])
                    if not used[idx]
                ]
                if not candidates:
                    break
                idx, end = candidates[0]
                used[idx] = True
                nxt = segments[idx][1 - end]
                if append:
                    chain.append(nxt)
                else:
                    chain.insert(0, nxt)
                current = nxt
    # degenerate zero-length chains are dropped
        if len(chain) >= 2 and key(chain[0]) != key(chain[1]):
            polylines.append(chain)
        elif len(chain) > 2:
            polylines.append(chain)
    return IsoLine(level=level, polylines=polylines)


def isoline_csv(iso: IsoLine) -> str:
    lines = ["polyline,r,y"]
    for pid, poly in enumerate(iso.polylines):
        for r, y in poly:
            lines.append(f"{pid},{r!r},{y!r}")
    return "\n".join(lines) + "\n"
