"""Delaunay mesh generation (Lonestar suite) — the paper's §IV-A example.

The mesh generator seeds a coarse triangulation, buckets the remaining
points by their enclosing region, and processes buckets in parallel:

- a bucket task "encapsulates all the data necessary for its computation"
  (the region's points), inserts them into the mesh, and — when the bucket
  is large — splits and spawns child buckets *at its executing place*, so
  "all the new triangles created by the thief have local access to other
  points" and the stolen work feeds the thief's co-located workers.
  Bucket tasks are therefore ``@AnyPlaceTask`` flexible (§IV-A);
- the input points are drawn from dense blobs, so bucket sizes (and the
  per-place workloads) are strongly uneven.

The simulator executes task bodies atomically, so the shared mesh needs no
locking; and because the Delaunay triangulation of points in general
position is unique, the final mesh is schedule-independent and is compared
coordinate-for-coordinate against a sequential insertion oracle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.apgas.api import Apgas
from repro.apps.base import Application
from repro.apps.delaunay.mesh import DelaunayMesh
from repro.cluster.memory import block_distribution
from repro.errors import AppError
from repro.runtime.task import FLEXIBLE


class DMGApp(Application):
    """Parallel Delaunay mesh generation over bucketed points."""

    name = "dmg"
    suite = "lonestar"

    #: Simulated insertion cost per point (cavity search + retriangulate),
    #: ~0.1 ms at 2 GHz.
    CYCLES_PER_POINT = 200_000.0
    #: Driver bookkeeping per bucket.
    CYCLES_DRIVER_PER_BUCKET = 8_000.0

    def __init__(self, n: int = 9_000, n_seeds: int = 48,
                 bucket_split: int = 36, seed: int = 12345) -> None:
        super().__init__(seed)
        if n < 32 or n_seeds < 4 or bucket_split < 4:
            raise AppError("dmg: invalid parameters")
        self.n = n
        self.n_seeds = min(n_seeds, n // 4)
        self.bucket_split = bucket_split
        rng = np.random.default_rng(seed)
        # Dense blobs on a plane: very uneven bucket populations.
        n_blobs = 6
        centers = rng.uniform(10, 90, size=(n_blobs, 2))
        weights = rng.dirichlet(np.ones(n_blobs) * 1.5)
        counts = np.maximum(1, (weights * n * 0.72).astype(int))
        pts = [rng.normal(centers[b], 4.5, size=(counts[b], 2))
               for b in range(n_blobs)]
        rest = rng.uniform(0, 100, size=(max(0, n - sum(counts)), 2))
        all_pts = np.vstack(pts + [rest])[:n]
        self._points = np.clip(all_pts, 0.0, 100.0)
        self.bounds = (0.0, 0.0, 100.0, 100.0)
        self.mesh: Optional[DelaunayMesh] = None

    # -- oracle -------------------------------------------------------------
    def sequential(self) -> List[Tuple[Tuple[float, float], ...]]:
        """Sequential insertion; returns coordinate-sorted triangles."""
        mesh = DelaunayMesh(self.bounds)
        for p in self._points:
            mesh.insert((float(p[0]), float(p[1])))
        return self._coord_triangles(mesh)

    @staticmethod
    def _coord_triangles(mesh: DelaunayMesh):
        out = []
        for tid in mesh.interior_tids():
            tri = mesh.triangles[tid]
            out.append(tuple(sorted(mesh.vertices[v] for v in tri)))
        return sorted(out)

    # -- parallel program -----------------------------------------------------
    def build(self, apgas: Apgas) -> None:
        ap = apgas
        P = ap.n_places
        mesh = DelaunayMesh(self.bounds)
        self.mesh = mesh
        rng = np.random.default_rng(self.seed + 99)
        # Seed triangulation: a spread sample of the input.
        seed_idx = np.linspace(0, self.n - 1, self.n_seeds).astype(int)
        seed_set = set(int(i) for i in seed_idx)
        rest_idx = np.array([i for i in range(self.n)
                             if i not in seed_set])
        # Bucket the remaining points by nearest seed.
        seeds = self._points[seed_idx]
        rest = self._points[rest_idx]
        d2 = ((rest[:, None, :] - seeds[None, :, :]) ** 2).sum(axis=2)
        owner = np.argmin(d2, axis=1)
        buckets: List[np.ndarray] = [
            rest[owner == s] for s in range(self.n_seeds)]
        bucket_place = [s % P
                        for s in range(self.n_seeds)]
        bucket_blocks = [
            ap.alloc(bucket_place[s], max(16, 16 * len(buckets[s])),
                     f"dmgbkt[{s}]")
            for s in range(self.n_seeds)]

        def insert_task_body(points: np.ndarray, block, depth: int):
            def body(ctx) -> None:
                if len(points) > self.bucket_split and depth < 8:
                    # Split: insert a pivot portion, spawn children for
                    # the rest at *this* place (they feed co-located
                    # workers — §IV-A property iv).
                    halves = np.array_split(points, 2)
                    for half in halves:
                        if len(half) == 0:
                            continue
                        factor = (1.0 if len(half) <= self.bucket_split
                                  else 0.05)
                        ctx.spawn(
                            insert_task_body(half, block, depth + 1),
                            work=self.CYCLES_PER_POINT * len(half)
                            * factor,
                            reads=[block], locality=FLEXIBLE,
                            encapsulates=True,
                            closure_bytes=64 + 16 * len(half),
                            label="dmg-bucket")
                    return
                for p in points:
                    mesh.insert((float(p[0]), float(p[1])))
            return body

        # Root task: build the seed triangulation, then per-place drivers
        # spawn the bucket tasks.
        scope = ap.finish("dmg")

        def seed_body(ctx) -> None:
            for i in seed_idx:
                p = self._points[int(i)]
                mesh.insert((float(p[0]), float(p[1])))

            def driver_body(p: int):
                def body(dctx) -> None:
                    for s in range(self.n_seeds):
                        if bucket_place[s] != p or len(buckets[s]) == 0:
                            continue
                        dctx.spawn(
                            insert_task_body(buckets[s],
                                             bucket_blocks[s], 0),
                            place=p,
                            work=self.CYCLES_PER_POINT
                            * max(len(buckets[s]), 1)
                            * (1.0 if len(buckets[s])
                               <= self.bucket_split else 0.05),
                            reads=[bucket_blocks[s]],
                            locality=FLEXIBLE, encapsulates=True,
                            closure_bytes=64 + 16 * len(buckets[s]),
                            label="dmg-bucket")
                return body

            for p in range(P):
                mine = sum(1 for s in range(self.n_seeds)
                           if bucket_place[s] == p and len(buckets[s]))
                if mine:
                    ctx.spawn(driver_body(p), place=p,
                              work=self.CYCLES_DRIVER_PER_BUCKET * mine,
                              label="dmg-driver")

        ap.async_at(0, seed_body,
                    work=self.CYCLES_PER_POINT * self.n_seeds,
                    label="dmg-seed", finish=scope)
        scope.close()

    # -- results -------------------------------------------------------------
    def result(self) -> DelaunayMesh:
        if self.mesh is None or self.mesh.points_inserted < self.n:
            raise AppError("dmg: run() has not been called (or incomplete)")
        return self.mesh

    def validate(self) -> None:
        mesh = self.result()
        self.check(mesh.points_inserted == self.n,
                   "not all points were inserted")
        self.check(mesh.euler_check(), "Euler characteristic violated")
        self.check(mesh.check_delaunay(vertices_sample=48),
                   "Delaunay property violated")
        if self.n <= 4_000:
            self.check(self._coord_triangles(mesh) == self.sequential(),
                       "mesh differs from sequential-insertion oracle")
