"""Agglomerative clustering (Lonestar suite).

The paper clusters 2M points bottom-up into a hierarchical tree; we run a
regionalised agglomerative clusterer at laptop scale (default 12 000
points):

1. points are spatially sorted and cut into contiguous **regions** whose
   sizes follow the cluster density (dense areas ⇒ big regions ⇒ the
   irregular per-place load);
2. **local phase** — one task per region agglomerates its points
   (repeated nearest-pair merges, centroid linkage, real NumPy distance
   matrices) down to ``region_clusters`` clusters.  Each task
   encapsulates its region, so it is ``@AnyPlaceTask`` flexible;
3. **tree phase** — a binary merge tree over the regions: each merge task
   gathers two cluster sets and agglomerates them back down, level by
   level (``finish`` barriers), until the root reduces to ``k`` clusters.

Validation: the sequential oracle runs the identical regionalised
algorithm (same partition, same deterministic tie-breaking) and must match
bit-exactly; with one region the algorithm degenerates to the classic
sequential agglomerative clustering.

Because that oracle calls the same :func:`agglomerate` kernel, it cannot
see a change in the kernel itself.  The kernel keeps one distance matrix
across merges instead of rebuilding it per merge, and is pinned byte for
byte to the rebuild-per-merge loop it replaced, kept as the oracle in
``tests/apps/reference_app_kernels.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.apgas.api import Apgas
from repro.apps.base import Application
from repro.cluster.memory import block_distribution
from repro.errors import AppError
from repro.runtime.task import FLEXIBLE


def agglomerate(centroids: np.ndarray, weights: np.ndarray,
                until: int) -> Tuple[np.ndarray, np.ndarray, List[float]]:
    """Merge nearest pairs (centroid linkage) until ``until`` clusters.

    Deterministic: ties break on the lexicographically smallest index
    pair.  Returns (centroids, weights, merge_distances).

    One squared-distance matrix lives across the merges: merging ``j``
    into ``i`` deletes row and column ``j`` and recomputes row and
    column ``i`` with the same expression, so the matrix always equals
    the one a full rebuild would give, entry for entry and bit for bit.
    """
    arr = np.array([c.astype(float) for c in centroids])
    ws = [float(w) for w in weights]
    merges: List[float] = []
    if len(ws) <= until:
        return arr, np.array(ws), merges
    d2 = ((arr[:, None, :] - arr[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    while len(ws) > until:
        flat = int(np.argmin(d2))
        i, j = divmod(flat, len(ws))
        if i > j:
            i, j = j, i
        merges.append(float(np.sqrt(d2[i, j])))
        wi, wj = ws[i], ws[j]
        arr[i] = (arr[i] * wi + arr[j] * wj) / (wi + wj)
        ws[i] = wi + wj
        del ws[j]
        arr = np.delete(arr, j, axis=0)
        d2 = np.delete(np.delete(d2, j, axis=0), j, axis=1)
        row = ((arr[i] - arr) ** 2).sum(axis=1)
        row[i] = np.inf
        d2[i] = row
        d2[:, i] = row
    return arr, np.array(ws), merges


class AgglomerativeApp(Application):
    """Regionalised hierarchical agglomerative clustering."""

    name = "agglom"
    suite = "lonestar"

    #: Cost per distance-matrix scan entry in a merge step.
    CYCLES_PER_PAIR = 13_000.0
    #: Driver bookkeeping per region.
    CYCLES_DRIVER_PER_REGION = 6_000.0

    def __init__(self, n: int = 12_000, n_regions: int = 320,
                 region_clusters: int = 10, k: int = 8,
                 seed: int = 12345) -> None:
        super().__init__(seed)
        if n < 16 or n_regions < 1 or region_clusters < 1 or k < 1:
            raise AppError("agglom: invalid parameters")
        if k > region_clusters * 2:
            raise AppError("agglom: k must be <= 2 * region_clusters")
        self.n = n
        self.n_regions = min(n_regions, n // 2)
        self.region_clusters = region_clusters
        self.k = k
        rng = np.random.default_rng(seed)
        # Dense clusters along the index axis => uneven region sizes.
        n_blobs = 7
        blob_centers = rng.uniform(-50, 50, size=(n_blobs, 2))
        pos_frac = np.arange(n) / n
        blob_of = (np.floor(pos_frac * n_blobs)).astype(int)
        self._points = blob_centers[blob_of] + rng.normal(
            scale=2.0, size=(n, 2))
        # Region boundaries: uneven cuts.  Sizes are spatially correlated
        # (stretches of big regions), so per-place totals stay uneven
        # instead of averaging out.
        ridx = np.arange(self.n_regions) / self.n_regions
        size_logmean = 1.3 * np.sin(2 * np.pi * (2 * ridx + rng.uniform()))
        sizes = rng.lognormal(mean=size_logmean, sigma=0.45,
                              size=self.n_regions)
        edges = np.concatenate(([0.0], np.cumsum(sizes)))
        edges = (edges / edges[-1] * n).astype(int)
        edges[-1] = n
        self._regions: List[Tuple[int, int]] = [
            (int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:])
            if hi > lo]
        self.centroids: Optional[np.ndarray] = None
        self.cluster_weights: Optional[np.ndarray] = None
        self._merge_log: Dict[object, List[float]] = {}

    # -- shared algorithm -----------------------------------------------------
    def _local(self, lo: int, hi: int):
        pts = self._points[lo:hi]
        until = min(self.region_clusters, hi - lo)
        return agglomerate(pts, np.ones(hi - lo), until)

    def _merge_sets(self, a, b, until: int):
        cents = np.vstack([a[0], b[0]])
        ws = np.concatenate([a[1], b[1]])
        return agglomerate(cents, ws, until)

    def _tree_reduce(self, sets: List, log=None):
        """Binary tree of merges; final root reduces to k."""
        level = 0
        while len(sets) > 1:
            nxt = []
            for i in range(0, len(sets) - 1, 2):
                until = (self.k if len(sets) == 2
                         else self.region_clusters)
                c, w, m = self._merge_sets(sets[i], sets[i + 1], until)
                if log is not None:
                    log[(level, i // 2)] = m
                nxt.append((c, w))
            if len(sets) % 2:
                nxt.append(sets[-1])
            sets = nxt
            level += 1
        c, w = sets[0]
        if len(c) > self.k:
            c, w, m = agglomerate(c, w, self.k)
            if log is not None:
                log[("root", 0)] = m
        return c, w

    # -- oracle -------------------------------------------------------------
    def sequential(self):
        """The same regionalised algorithm, sequentially."""
        sets = []
        for lo, hi in self._regions:
            c, w, _ = self._local(lo, hi)
            sets.append((c, w))
        return self._tree_reduce(sets)

    # -- parallel program -----------------------------------------------------
    def build(self, apgas: Apgas) -> None:
        ap = apgas
        P = ap.n_places
        regions = self._regions
        R = len(regions)
        chunks = block_distribution(self.n, P)
        region_place = []
        for lo, _hi in regions:
            for p, chunk in enumerate(chunks):
                if chunk.start <= lo < chunk.stop:
                    region_place.append(p)
                    break
        region_blocks = [
            ap.alloc(region_place[i], 24 * (hi - lo), f"agreg[{i}]")
            for i, (lo, hi) in enumerate(regions)]
        # Results of each stage, keyed like the oracle's tree.
        results: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

        def local_body(i: int):
            def body(ctx) -> None:
                lo, hi = regions[i]
                c, w, _m = self._local(lo, hi)
                results[i] = (c, w)
            return body

        scope = ap.finish("agglom-local")

        def driver_body(p: int):
            def body(ctx) -> None:
                for i, (lo, hi) in enumerate(regions):
                    if region_place[i] != p:
                        continue
                    m = hi - lo
                    ctx.spawn(local_body(i), place=p,
                              work=self.CYCLES_PER_PAIR * m * m
                              / max(1, np.log2(max(m, 2))),
                              reads=[region_blocks[i]],
                              writes=[region_blocks[i]],
                              locality=FLEXIBLE, encapsulates=True,
                              closure_bytes=64 + 24 * m,
                              label="agglom-local")
            return body

        for p in range(P):
            mine = sum(1 for q in region_place if q == p)
            if mine:
                ap.async_at(p, driver_body(p),
                            work=self.CYCLES_DRIVER_PER_REGION * mine,
                            label="agglom-driver", finish=scope)

        # Tree phase: one finish scope per level.
        def spawn_level(index_sets: List[Tuple[int, List[int]]],
                        sets_keys: List[int], level: int) -> None:
            """``sets_keys`` are keys in ``results`` for this level."""
            if len(sets_keys) == 1:
                c, w = results[sets_keys[0]]
                if len(c) > self.k:
                    c, w, _ = agglomerate(c, w, self.k)
                self.centroids = c
                self.cluster_weights = w
                return
            lvl_scope = ap.finish(f"agglom-level{level}")
            next_keys: List[int] = []
            pair_count = len(sets_keys) // 2
            for pi in range(pair_count):
                a_key = sets_keys[2 * pi]
                b_key = sets_keys[2 * pi + 1]
                out_key = 1_000_000 * (level + 1) + pi
                next_keys.append(out_key)
                until = (self.k if len(sets_keys) == 2
                         else self.region_clusters)
                home = region_place[a_key % R] if level == 0 \
                    else (pi * P) // max(pair_count, 1)

                def merge_body(a_key=a_key, b_key=b_key, out_key=out_key,
                               until=until):
                    def body(ctx) -> None:
                        c, w, _ = self._merge_sets(
                            results[a_key], results[b_key], until)
                        results[out_key] = (c, w)
                    return body

                nc = 2 * self.region_clusters
                ap.async_at(home, merge_body(),
                            work=self.CYCLES_PER_PAIR * nc * nc,
                            flexible=True, encapsulates=True,
                            closure_bytes=64 + 24 * nc,
                            label="agglom-merge", finish=lvl_scope)
            if len(sets_keys) % 2:
                next_keys.append(sets_keys[-1])
            lvl_scope.on_complete(
                lambda: spawn_level(index_sets, next_keys, level + 1))
            lvl_scope.close()

        scope.on_complete(
            lambda: spawn_level([], list(range(R)), 0))
        scope.close()

    # -- results -------------------------------------------------------------
    def result(self):
        if self.centroids is None:
            raise AppError("agglom: run() has not been called")
        return self.centroids, self.cluster_weights

    def validate(self) -> None:
        got_c, got_w = self.result()
        want_c, want_w = self.sequential()
        self.check(len(got_c) == self.k, "wrong final cluster count")
        self.check(bool(np.allclose(got_w.sum(), self.n)),
                   "total weight not conserved")
        self.check(bool(np.allclose(got_c, want_c, rtol=0, atol=0)),
                   "centroids differ from the sequential oracle")
        self.check(bool(np.allclose(got_w, want_w, rtol=0, atol=0)),
                   "weights differ from the sequential oracle")
