"""Incremental Delaunay triangulation (Bowyer-Watson).

A classic implementation: a super-triangle encloses the domain; points are
inserted one at a time by

1. locating the containing triangle (a straight walk from a hint, with a
   linear-scan fallback for robustness);
2. growing the *cavity* — the connected set of triangles whose
   circumcircles contain the new point;
3. deleting the cavity and fanning the point to its boundary edges.

The final triangulation (after discarding triangles touching super-
triangle vertices) is the Delaunay triangulation of the inserted points,
independent of insertion order for points in general position — the
property the DMG application's validation relies on (§IV-A: "the final
mesh generated is the same regardless of the order in which the points
are processed").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.apps.delaunay.geometry import (
    Point,
    in_circle,
    is_ccw,
    min_angle,
    orient2d,
    point_in_triangle,
)
from repro.errors import AppError

Edge = Tuple[int, int]
Tri = Tuple[int, int, int]


def _edge(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


class DelaunayMesh:
    """A growing Delaunay triangulation with adjacency tracking."""

    def __init__(self, bounds: Tuple[float, float, float, float]) -> None:
        """``bounds`` = (xmin, ymin, xmax, ymax) of the expected points."""
        xmin, ymin, xmax, ymax = bounds
        if not (xmax > xmin and ymax > ymin):
            raise AppError("mesh bounds must be a non-empty box")
        w = xmax - xmin
        h = ymax - ymin
        cx = (xmin + xmax) / 2
        # A super-triangle comfortably containing the bounding box.
        m = 4.0 * max(w, h)
        self.vertices: List[Point] = [
            (cx - m, ymin - 0.5 * m),
            (cx + m, ymin - 0.5 * m),
            (cx, ymax + m),
        ]
        self.super_vertices = (0, 1, 2)
        self.triangles: Dict[int, Tri] = {}
        self.edge_map: Dict[Edge, List[int]] = {}
        self._next_tid = 0
        self._add_triangle((0, 1, 2))
        #: Hint for the next location walk.
        self._last_tid: Optional[int] = None
        self.points_inserted = 0

    # -- structure maintenance ---------------------------------------------
    def _add_triangle(self, tri: Tri) -> int:
        a, b, c = tri
        va, vb, vc = (self.vertices[a], self.vertices[b], self.vertices[c])
        if not is_ccw(va, vb, vc):
            tri = (a, c, b)
        tid = self._next_tid
        self._next_tid += 1
        self.triangles[tid] = tri
        for e in self._tri_edges(tri):
            self.edge_map.setdefault(e, []).append(tid)
        return tid

    def _remove_triangle(self, tid: int) -> None:
        tri = self.triangles.pop(tid)
        for e in self._tri_edges(tri):
            holders = self.edge_map.get(e)
            if holders is not None:
                try:
                    holders.remove(tid)
                except ValueError:  # pragma: no cover - defensive
                    pass
                if not holders:
                    del self.edge_map[e]

    @staticmethod
    def _tri_edges(tri: Tri) -> List[Edge]:
        a, b, c = tri
        return [_edge(a, b), _edge(b, c), _edge(c, a)]

    def neighbours(self, tid: int) -> List[int]:
        """Triangles sharing an edge with ``tid``."""
        out: List[int] = []
        for e in self._tri_edges(self.triangles[tid]):
            for other in self.edge_map.get(e, ()):
                if other != tid:
                    out.append(other)
        return out

    # -- queries ------------------------------------------------------------
    def _tri_points(self, tid: int) -> Tuple[Point, Point, Point]:
        a, b, c = self.triangles[tid]
        return (self.vertices[a], self.vertices[b], self.vertices[c])

    def locate(self, p: Point, hint: Optional[int] = None) -> int:
        """Triangle containing ``p`` (walk + fallback linear scan)."""
        tid = hint if hint in self.triangles else self._last_tid
        if tid not in self.triangles:
            tid = next(iter(self.triangles))
        seen: Set[int] = set()
        for _ in range(4 * len(self.triangles) + 16):
            if tid in seen:
                break
            seen.add(tid)
            tri = self.triangles[tid]
            pts = self._tri_points(tid)
            # Walk towards p across the first edge that sees p outside.
            moved = False
            for i in range(3):
                a, b = pts[i], pts[(i + 1) % 3]
                if orient2d(a, b, p) < -1e-12:
                    e = _edge(tri[i], tri[(i + 1) % 3])
                    others = [t for t in self.edge_map.get(e, ())
                              if t != tid]
                    if others:
                        tid = others[0]
                        moved = True
                        break
            if not moved:
                if point_in_triangle(p, *pts):
                    return tid
                break
        # Robust fallback.
        for tid, tri in self.triangles.items():
            if point_in_triangle(p, *self._tri_points(tid)):
                return tid
        raise AppError(f"point {p} outside the triangulation domain")

    # -- insertion ------------------------------------------------------------
    def insert(self, p: Point, hint: Optional[int] = None) -> List[int]:
        """Insert a point; returns the new triangle ids (the fan)."""
        start = self.locate(p, hint)
        # Grow the cavity of circumcircle-violating triangles.
        cavity: Set[int] = {start}
        frontier = [start]
        while frontier:
            tid = frontier.pop()
            for nb in self.neighbours(tid):
                if nb in cavity:
                    continue
                if in_circle(*self._tri_points(nb), p):
                    cavity.add(nb)
                    frontier.append(nb)
        # Boundary edges: edges of cavity triangles shared with at most
        # one cavity member.
        boundary: List[Edge] = []
        for tid in cavity:
            for e in self._tri_edges(self.triangles[tid]):
                holders = self.edge_map.get(e, ())
                inside = sum(1 for t in holders if t in cavity)
                if inside == 1:
                    boundary.append(e)
        pi = len(self.vertices)
        self.vertices.append(p)
        for tid in list(cavity):
            self._remove_triangle(tid)
        new_ids = []
        for (a, b) in boundary:
            new_ids.append(self._add_triangle((a, b, pi)))
        self._last_tid = new_ids[-1] if new_ids else None
        self.points_inserted += 1
        return new_ids

    # -- final views -----------------------------------------------------------
    def interior_tids(self) -> List[int]:
        """Ids of triangles not touching the super-triangle."""
        sv = set(self.super_vertices)
        return [tid for tid, t in self.triangles.items()
                if not (set(t) & sv)]

    def triangle_min_angle(self, tid: int) -> float:
        """Smallest interior angle of triangle ``tid`` in degrees."""
        return min_angle(*self._tri_points(tid))

    # -- validation helpers -------------------------------------------------------
    def check_delaunay(self, sample: Optional[Iterable[int]] = None,
                       vertices_sample: Optional[int] = 64) -> bool:
        """Empty-circumcircle check over (a sample of) the triangulation."""
        tids = list(sample) if sample is not None else self.interior_tids()
        sv = set(self.super_vertices)
        verts = [i for i in range(len(self.vertices)) if i not in sv]
        if vertices_sample is not None and len(verts) > vertices_sample:
            step = len(verts) // vertices_sample
            verts = verts[::step]
        for tid in tids:
            tri = self.triangles.get(tid)
            if tri is None:
                continue
            pts = self._tri_points(tid)
            for vi in verts:
                if vi in tri:
                    continue
                if in_circle(*pts, self.vertices[vi]):
                    return False
        return True

    def euler_check(self) -> bool:
        """V - E + F == 2 over the full complex (with super-triangle)."""
        V = len(self.vertices)
        E = len(self.edge_map)
        F = len(self.triangles) + 1  # plus the outer face
        return V - E + F == 2
