"""Delaunay mesh refinement (Lonestar suite).

Starting from a Delaunay mesh, refine until no *refinable* triangle is
bad, where bad means "smallest interior angle below the target" and
refinable means "interior triangle with a circumradius above the size
floor" (the floor is what guarantees termination, Chew's first
algorithm).  Refining a bad triangle inserts its circumcentre, which
re-triangulates a cavity and may create new bad triangles — the classic
wavefront irregularity: work is discovered dynamically, and dense regions
of skinny triangles generate bursts of new tasks.

Parallel structure:

- bad triangles are chunked spatially; each **refine task** processes its
  chunk (skipping triangles that earlier insertions already destroyed or
  fixed), then spawns follow-up tasks *at its place* for the new bad
  triangles it created.  Refine tasks carry their cavity data, so they
  are ``@AnyPlaceTask`` flexible with ``encapsulates=True``;
- the initial mesh construction is input preparation (the paper starts
  from a 550K-triangle mesh), so it happens at build time, unsimulated.

Validation: on completion no refinable triangle is bad, the mesh is still
Delaunay (sampled empty-circumcircle checks), Euler's relation holds, and
all original points survive.  The *result mesh* depends on insertion
order (as in the paper's runtime), but any fixed (scheduler seed, app
seed) pair reproduces bit-identically.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.apgas.api import Apgas
from repro.apps.base import Application
from repro.apps.delaunay.geometry import circumcenter
from repro.apps.delaunay.mesh import DelaunayMesh
from repro.errors import AppError
from repro.runtime.task import FLEXIBLE


class DMRApp(Application):
    """Parallel Delaunay mesh refinement."""

    name = "dmr"
    suite = "lonestar"

    #: Simulated cost per circumcentre insertion.
    CYCLES_PER_INSERT = 1_400_000.0
    #: Cost to test one candidate triangle (angle + liveness checks).
    CYCLES_PER_CHECK = 60_000.0
    #: Driver bookkeeping per chunk.
    CYCLES_DRIVER_PER_CHUNK = 8_000.0

    def __init__(self, n_points: int = 3_000, min_angle_deg: float = 26.0,
                 chunk: int = 6, seed: int = 12345) -> None:
        super().__init__(seed)
        if n_points < 16:
            raise AppError("dmr: need at least 16 points")
        if not (5.0 <= min_angle_deg <= 28.0):
            raise AppError("dmr: min_angle_deg must be in [5, 28] "
                           "(termination guarantee)")
        if chunk < 1:
            raise AppError("dmr: chunk must be >= 1")
        self.n_points = n_points
        self.min_angle_deg = min_angle_deg
        self.chunk = chunk
        rng = np.random.default_rng(seed)
        # Clustered input: skinny triangles concentrate between blobs.
        n_blobs = 5
        centers = rng.uniform(15, 85, size=(n_blobs, 2))
        counts = np.maximum(4, (rng.dirichlet(np.ones(n_blobs))
                                * n_points * 0.8).astype(int))
        pts = [rng.normal(centers[b], 2.5, size=(counts[b], 2))
               for b in range(n_blobs)]
        rest = rng.uniform(0, 100, size=(max(0, n_points
                                             - sum(counts)), 2))
        self._points = np.clip(np.vstack(pts + [rest])[:n_points],
                               0.0, 100.0)
        self.bounds = (0.0, 0.0, 100.0, 100.0)
        # Size floor: stop refining triangles smaller than this
        # circumradius (guarantees termination).
        self.r_min = 100.0 / math.sqrt(n_points) * 0.35
        self.mesh: Optional[DelaunayMesh] = None
        self._insertions = 0

    # -- shared refinement logic -------------------------------------------
    def _build_initial_mesh(self) -> DelaunayMesh:
        mesh = DelaunayMesh(self.bounds)
        for p in self._points:
            mesh.insert((float(p[0]), float(p[1])))
        return mesh

    def _is_refinable_bad(self, mesh: DelaunayMesh, tid: int) -> bool:
        """Interior, above the size floor, and below the angle target."""
        tri = mesh.triangles.get(tid)
        if tri is None:
            return False
        if set(tri) & set(mesh.super_vertices):
            return False
        if mesh.triangle_min_angle(tid) >= self.min_angle_deg:
            return False
        a, b, c = (mesh.vertices[v] for v in tri)
        try:
            cc = circumcenter(a, b, c)
        except ZeroDivisionError:  # pragma: no cover - degenerate
            return False
        r = math.hypot(cc[0] - a[0], cc[1] - a[1])
        if r <= self.r_min:
            return False
        # Boundary surrogate: skip hull-adjacent triangles whose
        # circumcentre falls outside the (slightly padded) domain —
        # full Ruppert boundary handling is out of scope (§IX-adjacent).
        xmin, ymin, xmax, ymax = self.bounds
        pad = 0.05 * max(xmax - xmin, ymax - ymin)
        return (xmin - pad <= cc[0] <= xmax + pad
                and ymin - pad <= cc[1] <= ymax + pad)

    def _refine_one(self, mesh: DelaunayMesh, tid: int) -> List[int]:
        """Insert the circumcentre of ``tid``; returns new triangle ids."""
        tri = mesh.triangles[tid]
        a, b, c = (mesh.vertices[v] for v in tri)
        cc = circumcenter(a, b, c)
        self._insertions += 1
        return mesh.insert(cc, hint=tid)

    def bad_triangles(self, mesh: DelaunayMesh) -> List[int]:
        """All currently refinable-bad triangle ids, sorted."""
        return sorted(t for t in mesh.interior_tids()
                      if self._is_refinable_bad(mesh, t))

    # -- oracle -------------------------------------------------------------
    def sequential(self) -> DelaunayMesh:
        """Sequential refinement to completion (worklist order)."""
        mesh = self._build_initial_mesh()
        work = self.bad_triangles(mesh)
        guard = 0
        while work:
            guard += 1
            if guard > 200_000:  # pragma: no cover - safety net
                raise AppError("dmr: sequential refinement diverged")
            tid = work.pop()
            if not self._is_refinable_bad(mesh, tid):
                continue
            new = self._refine_one(mesh, tid)
            work.extend(t for t in new
                        if self._is_refinable_bad(mesh, t))
        return mesh

    # -- parallel program -----------------------------------------------------
    def build(self, apgas: Apgas) -> None:
        ap = apgas
        P = ap.n_places
        mesh = self._build_initial_mesh()
        self.mesh = mesh
        scope = ap.finish("dmr")
        region_blocks = [ap.alloc(p, 8_192, f"dmrreg[{p}]")
                         for p in range(P)]

        def place_of_tid(tid: int) -> int:
            tri = mesh.triangles.get(tid)
            if tri is None:
                return 0
            xs = [mesh.vertices[v][0] for v in tri]
            x = sum(xs) / 3.0
            return min(P - 1, max(0, int(x / 100.0 * P)))

        def refine_body(tids: List[int]):
            def body(ctx) -> None:
                created: List[int] = []
                for tid in tids:
                    if not self._is_refinable_bad(mesh, tid):
                        continue
                    created.extend(self._refine_one(mesh, tid))
                new_bad = [t for t in created
                           if self._is_refinable_bad(mesh, t)]
                # Follow-up chunks run at this place: the cavity data is
                # already local to the (possibly thieving) executor.
                for i in range(0, len(new_bad), self.chunk):
                    part = new_bad[i:i + self.chunk]
                    ctx.spawn(
                        refine_body(part),
                        work=(self.CYCLES_PER_INSERT
                              + self.CYCLES_PER_CHECK) * len(part),
                        reads=[region_blocks[ctx.place]],
                        locality=FLEXIBLE, encapsulates=True,
                        closure_bytes=64 + 96 * len(part),
                        label="dmr-refine")
            return body

        initial = self.bad_triangles(mesh)
        by_place: Dict[int, List[int]] = {p: [] for p in range(P)}
        for tid in initial:
            by_place[place_of_tid(tid)].append(tid)

        def driver_body(p: int):
            def body(ctx) -> None:
                mine = by_place[p]
                for i in range(0, len(mine), self.chunk):
                    part = mine[i:i + self.chunk]
                    ctx.spawn(
                        refine_body(part), place=p,
                        work=(self.CYCLES_PER_INSERT
                              + self.CYCLES_PER_CHECK) * len(part),
                        reads=[region_blocks[p]],
                        locality=FLEXIBLE, encapsulates=True,
                        closure_bytes=64 + 96 * len(part),
                        label="dmr-refine")
            return body

        for p in range(P):
            if by_place[p]:
                ap.async_at(p, driver_body(p),
                            work=self.CYCLES_DRIVER_PER_CHUNK
                            * max(1, len(by_place[p]) // self.chunk),
                            label="dmr-driver", finish=scope)
        if not initial:
            ap.async_at(0, None, work=1_000.0, label="dmr-noop",
                        finish=scope)
        scope.close()

    # -- results -------------------------------------------------------------
    def result(self) -> DelaunayMesh:
        if self.mesh is None:
            raise AppError("dmr: run() has not been called")
        return self.mesh

    def validate(self) -> None:
        mesh = self.result()
        remaining = self.bad_triangles(mesh)
        self.check(not remaining,
                   f"{len(remaining)} refinable bad triangles remain")
        self.check(mesh.euler_check(), "Euler characteristic violated")
        self.check(mesh.check_delaunay(vertices_sample=40),
                   "Delaunay property violated")
        self.check(mesh.points_inserted >= self.n_points,
                   "original points lost")
