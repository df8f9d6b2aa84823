"""n-Body simulation with Barnes-Hut (Cowichan suite).

The paper simulates 220K bodies; we run a configurable 2-D Barnes-Hut
simulation (default 4 000 bodies, 2 time steps) with the same decomposition
idea:

- bodies are drawn from a few dense clusters, so traversal depth — and
  hence per-body force cost — varies strongly across space;
- bodies are sorted by Morton-ish spatial order and cut into contiguous
  **groups**; the groups a place owns are spatially local, so cluster-dense
  places carry several times the work of sparse ones;
- each step: one task builds the quadtree (place 0), then per-place
  drivers spawn one **force task** per group.  A force task encapsulates
  its bodies and reads the (replicated-on-first-touch) tree block, so it
  is ``@AnyPlaceTask`` flexible — the units DistWS may steal;
- declared work uses a *sampled* traversal count (what a production
  scheduler would take from the previous step), while the body performs
  the full, real traversal.

Validation: the parallel forces are bit-identical to a sequential
Barnes-Hut run, and for n ≤ 600 that run's step-0 forces stay within the
θ-approximation tolerance of the O(n²) direct sum.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.apgas.api import Apgas
from repro.apps.base import Application
from repro.apps.bh_tree import QuadTree, direct_forces
from repro.cluster.memory import block_distribution
from repro.errors import AppError
from repro.runtime.task import FLEXIBLE


class NBodyApp(Application):
    """Barnes-Hut n-body over spatially grouped bodies."""

    name = "nbody"
    suite = "cowichan"

    #: Simulated cost per evaluated interaction.
    CYCLES_PER_INTERACTION = 2_500.0
    #: Tree build cost per body (n log n absorbed into the constant).
    CYCLES_TREE_PER_BODY = 2_200.0
    #: Driver bookkeeping per group.
    CYCLES_DRIVER_PER_GROUP = 6_000.0
    #: Integration time step.
    DT = 1e-3

    def __init__(self, n: int = 3_000, steps: int = 2,
                 group_size: int = 10, theta: float = 0.5,
                 seed: int = 12345) -> None:
        super().__init__(seed)
        if n < 8:
            raise AppError("nbody: need at least 8 bodies")
        if steps < 1 or group_size < 1:
            raise AppError("nbody: invalid parameters")
        if not (0.0 < theta < 2.0):
            raise AppError("nbody: theta out of range")
        self.n = n
        self.steps = steps
        self.group_size = group_size
        self.theta = theta
        rng = np.random.default_rng(seed)
        # A few dense clusters plus a sparse background.
        n_clusters = 4
        centers = rng.uniform(-40, 40, size=(n_clusters, 2))
        sizes = rng.dirichlet(np.ones(n_clusters) * 0.7)
        counts = np.maximum(1, (sizes * n * 0.85).astype(int))
        pts = [rng.normal(centers[c], 1.5, size=(counts[c], 2))
               for c in range(n_clusters)]
        background = rng.uniform(-50, 50,
                                 size=(n - sum(counts), 2))
        pos = np.vstack(pts + [background])[:n]
        # Spatial sort (by Hilbert-ish interleaving approximated with a
        # sort on a coarse Morton key) so contiguous groups are local.
        key = self._morton_key(pos)
        order = np.argsort(key, kind="stable")
        self._pos0 = pos[order]
        self._masses = rng.uniform(0.5, 2.0, size=n)[order]
        self._vel0 = rng.normal(scale=0.1, size=(n, 2))[order]
        self.positions: Optional[np.ndarray] = None
        self.forces: Optional[np.ndarray] = None

    @staticmethod
    def _morton_key(pos: np.ndarray) -> np.ndarray:
        lo = pos.min(axis=0)
        hi = pos.max(axis=0)
        scale = np.maximum(hi - lo, 1e-9)
        grid = ((pos - lo) / scale * 1023).astype(np.int64)
        key = np.zeros(len(pos), dtype=np.int64)
        for bit in range(10):
            key |= ((grid[:, 0] >> bit) & 1) << (2 * bit)
            key |= ((grid[:, 1] >> bit) & 1) << (2 * bit + 1)
        return key

    # -- shared physics -------------------------------------------------------
    def _bh_step(self, pos: np.ndarray, vel: np.ndarray):
        """One sequential Barnes-Hut step; returns (pos, vel, forces)."""
        tree = QuadTree(pos, self._masses)
        forces = np.empty_like(pos)
        for i in range(self.n):
            fx, fy, _ = tree.force_on(i, self.theta)
            forces[i] = (fx, fy)
        new_vel = vel + self.DT * forces
        new_pos = pos + self.DT * new_vel
        return new_pos, new_vel, forces

    # -- oracle -------------------------------------------------------------
    def _sequential_steps(self):
        """Sequential Barnes-Hut: yields ``(pos, forces)`` after each step."""
        pos, vel = self._pos0.copy(), self._vel0.copy()
        for _ in range(self.steps):
            pos, vel, forces = self._bh_step(pos, vel)
            yield pos, forces

    def sequential(self):
        """Sequential Barnes-Hut over all steps."""
        *_, last = self._sequential_steps()
        return last

    # -- parallel program -----------------------------------------------------
    def build(self, apgas: Apgas) -> None:
        ap = apgas
        P = ap.n_places
        pos = self._pos0.copy()
        vel = self._vel0.copy()
        forces = np.zeros_like(pos)
        groups: List[range] = [
            range(s, min(s + self.group_size, self.n))
            for s in range(0, self.n, self.group_size)]
        chunks = block_distribution(self.n, P)
        group_place = []
        for g in groups:
            for p, chunk in enumerate(chunks):
                if chunk.start <= g.start < chunk.stop:
                    group_place.append(p)
                    break
        group_blocks = [
            ap.alloc(group_place[gi], 48 * len(g), f"nbgrp[{gi}]")
            for gi, g in enumerate(groups)]
        tree_holder: Dict[str, QuadTree] = {}

        def spawn_step(step: int) -> None:
            if step == self.steps:
                self.positions = pos
                self.forces = forces
                return
            build_scope = ap.finish(f"nbody-tree{step}")
            # The tree is rebuilt each step.  It is published as 16 part
            # blocks (top-level subtrees): a force task reads the root
            # part plus the part covering its group, so parts replicate
            # across places on demand (the Barnes-Hut broadcast) and
            # per-task cache footprints stay realistic.
            tree_bytes = 40 * 2 * self.n
            n_parts = 16
            tree_parts = [ap.alloc(0, max(64, tree_bytes // n_parts),
                                   f"nbtree[{step},{j}]")
                          for j in range(n_parts)]

            def tree_body(ctx) -> None:
                tree_holder["tree"] = QuadTree(pos, self._masses)

            ap.async_at(0, tree_body,
                        work=self.CYCLES_TREE_PER_BODY * self.n,
                        writes=tree_parts, label="nbody-tree",
                        finish=build_scope)

            def force_phase() -> None:
                scope = ap.finish(f"nbody-force{step}")
                tree = tree_holder["tree"]
                rng = np.random.default_rng(self.seed + step)

                def force_body(gi: int):
                    def body(ctx) -> None:
                        for i in groups[gi]:
                            fx, fy, _ = tree.force_on(i, self.theta)
                            forces[i] = (fx, fy)
                    return body

                def estimate(gi: int) -> float:
                    """Sampled traversal count (prev-step proxy)."""
                    g = groups[gi]
                    sample = [int(i) for i in
                              rng.choice(list(g), size=min(3, len(g)),
                                         replace=False)]
                    total = 0
                    for i in sample:
                        _, _, inter = tree.force_on(i, self.theta)
                        total += inter
                    return total / len(sample) * len(g)

                def driver_body(p: int):
                    def body(ctx) -> None:
                        for gi, g in enumerate(groups):
                            if group_place[gi] != p:
                                continue
                            my_part = tree_parts[
                                (gi * n_parts) // len(groups)]
                            ctx.spawn(
                                force_body(gi), place=p,
                                work=self.CYCLES_PER_INTERACTION
                                * max(estimate(gi), 1.0),
                                reads=[group_blocks[gi], tree_parts[0],
                                       my_part],
                                writes=[group_blocks[gi]],
                                locality=FLEXIBLE, encapsulates=True,
                                closure_bytes=64 + 48 * len(g),
                                label="nbody-force")
                    return body

                for p in range(P):
                    mine = sum(1 for q in group_place if q == p)
                    if mine:
                        ap.async_at(p, driver_body(p),
                                    work=self.CYCLES_DRIVER_PER_GROUP
                                    * mine,
                                    label="nbody-driver", finish=scope)

                def integrate() -> None:
                    vel[:] = vel + self.DT * forces
                    pos[:] = pos + self.DT * vel
                    spawn_step(step + 1)

                scope.on_complete(integrate)
                scope.close()

            build_scope.on_complete(force_phase)
            build_scope.close()

        spawn_step(0)

    # -- results -------------------------------------------------------------
    def result(self):
        if self.positions is None:
            raise AppError("nbody: run() has not been called")
        return self.positions, self.forces

    def validate(self) -> None:
        got_pos, got_forces = self.result()
        steps = list(self._sequential_steps())
        want_pos, want_forces = steps[-1]
        self.check(bool(np.allclose(got_pos, want_pos, rtol=0, atol=0)),
                   "positions differ from sequential Barnes-Hut")
        self.check(bool(np.allclose(got_forces, want_forces,
                                    rtol=0, atol=0)),
                   "forces differ from sequential Barnes-Hut")
        # Physics sanity: BH stays near the direct sum on the *initial*
        # configuration (θ-approximation tolerance), checked only on small
        # inputs.  Step 0's sequential forces are exactly the BH forces on
        # that configuration.
        if self.n <= 600:
            direct_full = direct_forces(self._pos0, self._masses)
            bh = steps[0][1]
            scale = np.abs(direct_full).max()
            err = np.abs(bh - direct_full).max() / max(scale, 1e-12)
            self.check(err < 0.15,
                       f"BH force error vs direct sum too large: {err:.3f}")
