"""Turing ring (Cowichan suite) — the paper's worked example (§IV-B).

A ring of cells, each holding predator and prey populations, evolves over
iterations: populations update via coupled (discretised Lotka-Volterra)
equations, then bodies *migrate* to neighbouring cells — by design the
migration swings a cell's body count (and hence its work) by orders of
magnitude between iterations, which is the irregular load the paper uses
the application for.

Task structure straight from the paper's Figure 1:

- the **outer task** processes an entire cell: it updates the predator
  population, spawns the inner task, and computes the migration.  "Once
  the cell is copied, there is no need to copy the results back ... Thus,
  the outer async that processes an entire cell is a locality-flexible
  task" — so it is ``@AnyPlaceTask`` with ``encapsulates=True``.
- the **inner task** (``async (thisPlace)``) updates the prey population.
  If *it* is stolen instead (possible only under the non-selective
  scheduler), "the new population must then be copied back to the victim
  node" — so it is sensitive and carries ``copy_back``.

Iterations are separated by a ``finish`` barrier; a per-place task then
applies the migrations, and the continuation spawns the next iteration.

Determinism: updates read the iteration-``t`` state and write a separate
``t+1`` buffer, so results are bit-identical to the sequential oracle
regardless of the schedule.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.apgas.api import Apgas
from repro.apps.base import Application
from repro.cluster.memory import block_distribution
from repro.errors import AppError
from repro.runtime.task import FLEXIBLE


def _step_cell(pred: float, prey: float) -> tuple[float, float]:
    """One deterministic Lotka-Volterra-style update of a cell."""
    dt, a, d, b, e, K = 0.05, 0.9, 0.3, 1.1, 0.8, 50_000.0
    new_pred = pred + dt * (a * pred * prey / K - d * pred)
    new_prey = prey + dt * (b * prey * (1 - prey / K) - e * pred * prey / K)
    return (min(max(new_pred, 5.0), 1e6), min(max(new_prey, 5.0), 1e6))


def _migration_fraction(pred: float, prey: float, cell: int,
                        iteration: int,
                        capacity: float = 15_000.0) -> float:
    """Deterministic, strongly varying out-migration fraction.

    Two components: a phase term that swings between near-zero and
    near-total emigration (the paper: "migration can change the workload
    in cells by as much as two orders of magnitude in a single
    iteration"), and a crowding term that makes overfull cells export
    aggressively, bounding how much load can pile up in one cell.
    """
    phase = np.sin(pred / (prey + 1.0) + 0.7 * cell + 1.3 * iteration)
    crowding = (pred + prey) / capacity
    return float(np.clip(0.02 + 0.82 * abs(phase) + 1.2 * crowding,
                         0.02, 0.97))


class TuringRingApp(Application):
    """Predator-prey simulation on a distributed ring of cells."""

    name = "turing"
    suite = "cowichan"

    #: Outer (predator + migration) update cost per body.
    CYCLES_PER_BODY_OUTER = 700.0
    #: Inner (prey) update cost per body.
    CYCLES_PER_BODY_INNER = 400.0
    #: Migration application cost per cell.
    CYCLES_APPLY_PER_CELL = 40_000.0

    def __init__(self, n_cells: int = 320, iterations: int = 4,
                 mean_bodies: float = 3_000.0, seed: int = 12345) -> None:
        super().__init__(seed)
        if n_cells < 2:
            raise AppError("turing: need at least 2 cells")
        if iterations < 1:
            raise AppError("turing: need at least 1 iteration")
        self.n_cells = n_cells
        self.iterations = iterations
        self.mean_bodies = mean_bodies
        rng = np.random.default_rng(seed)
        # Spatially correlated lognormal body counts: contiguous stretches
        # of the ring (= the block chunks owned by each place) differ
        # strongly, so the initial even *cell* distribution still yields an
        # uneven *work* distribution across places.
        pos = np.arange(n_cells) / n_cells
        log_mean = (np.log(mean_bodies)
                    + 1.3 * np.sin(2 * np.pi * (2 * pos + rng.uniform())))
        bodies = rng.lognormal(mean=log_mean, sigma=0.5, size=n_cells)
        split = rng.uniform(0.2, 0.8, size=n_cells)
        self._pred0 = bodies * split
        self._prey0 = bodies * (1 - split)
        self.pred: Optional[np.ndarray] = None
        self.prey: Optional[np.ndarray] = None

    # -- shared dynamics (used by both oracle and parallel build) -----------
    def _iterate(self, pred: np.ndarray, prey: np.ndarray,
                 iteration: int) -> tuple[np.ndarray, np.ndarray]:
        n = self.n_cells
        new_pred = np.empty(n)
        new_prey = np.empty(n)
        for c in range(n):
            new_pred[c], new_prey[c] = _step_cell(pred[c], prey[c])
        return self._migrate(new_pred, new_prey, iteration)

    def _migrate(self, new_pred: np.ndarray, new_prey: np.ndarray,
                 iteration: int) -> tuple[np.ndarray, np.ndarray]:
        """Re-home migrating bodies (the paper's ``updateCellIDs``).

        60% of a cell's outflow jumps to a rotating long-range target
        (:meth:`_targets`), the rest drifts to the ring neighbour.
        Near-total out-migration of crowded cells swings individual cell
        workloads by more than an order of magnitude per iteration while
        keeping every cell's size bounded.
        """
        n = self.n_cells
        cells = np.arange(n)
        capacity = 1.5 * self.mean_bodies
        out_frac = np.array([
            _migration_fraction(new_pred[c], new_prey[c], c, iteration,
                                capacity)
            for c in range(n)])
        pred_out = new_pred * out_frac
        prey_out = new_prey * out_frac
        targets = self._targets(new_pred + new_prey, iteration)
        neighbours = (cells + 1) % n
        res_pred = new_pred - pred_out
        res_prey = new_prey - prey_out
        # 60% of the outflow converges on the emptiest nearby habitat (a
        # shared new cellID), the rest drifts to the ring neighbour.
        np.add.at(res_pred, targets, 0.6 * pred_out)
        np.add.at(res_prey, targets, 0.6 * prey_out)
        np.add.at(res_pred, neighbours, 0.4 * pred_out)
        np.add.at(res_prey, neighbours, 0.4 * prey_out)
        return res_pred, res_prey

    def _targets(self, bodies: np.ndarray, iteration: int) -> np.ndarray:
        """New cellIDs for migrating bodies: a long-range rotation whose
        stride changes every iteration.

        One-to-one (a permutation), so no cell ever accumulates more than
        one source's outflow — task sizes stay bounded — yet a near-empty
        cell receiving a crowded cell's exodus still grows by two orders
        of magnitude in a single step, and the mass crossing place
        boundaries keeps the per-place load moving."""
        n = self.n_cells
        # Stride aligned to 1/16th of the ring: a crowded stretch's exodus
        # lands together in another stretch, so the *location* of the hot
        # region moves while the imbalance itself persists — load that a
        # place-pinned scheduler cannot follow.
        step = max(1, n // 16)
        stride = (step * (1 + 3 * iteration)) % n
        if stride == 0:
            stride = step
        return (np.arange(n) + stride) % n

    def _flow_bytes(self, new_pred: np.ndarray, new_prey: np.ndarray,
                    iteration: int,
                    home_of: np.ndarray) -> dict[tuple[int, int], int]:
        """Bytes of migrating bodies crossing each (src, dst) place pair.

        Only the bodies that actually move travel the network (the
        paper's ``wl.update(mBodies)``), at ~16 bytes per body.
        """
        n = self.n_cells
        cells = np.arange(n)
        capacity = 1.5 * self.mean_bodies
        out_frac = np.array([
            _migration_fraction(new_pred[c], new_prey[c], c, iteration,
                                capacity)
            for c in range(n)])
        bodies_out = (new_pred + new_prey) * out_frac
        targets = self._targets(new_pred + new_prey, iteration)
        neighbours = (cells + 1) % n
        volumes: dict[tuple[int, int], float] = {}
        for c in range(n):
            src = int(home_of[c])
            for dst_cell, share in ((targets[c], 0.6), (neighbours[c], 0.4)):
                dst = int(home_of[dst_cell])
                if dst != src:
                    key = (src, dst)
                    volumes[key] = volumes.get(key, 0.0) \
                        + 16.0 * bodies_out[c] * share
        return {k: max(16, int(v)) for k, v in volumes.items()}

    # -- oracle -------------------------------------------------------------
    def sequential(self) -> tuple[np.ndarray, np.ndarray]:
        """Run the full simulation sequentially."""
        pred, prey = self._pred0.copy(), self._prey0.copy()
        for it in range(self.iterations):
            pred, prey = self._iterate(pred, prey, it)
        return pred, prey

    # -- parallel program -----------------------------------------------------
    def build(self, apgas: Apgas) -> None:
        ap = apgas
        n = self.n_cells
        P = ap.n_places
        pred = self._pred0.copy()
        prey = self._prey0.copy()
        nxt_pred = np.empty(n)
        nxt_prey = np.empty(n)
        chunks = block_distribution(n, P)
        home_of = np.empty(n, dtype=int)
        for p, chunk in enumerate(chunks):
            home_of[chunk.start:chunk.stop] = p
        cell_blocks = [
            ap.alloc(int(home_of[c]),
                     max(64, int(16 * (self._pred0[c] + self._prey0[c]))),
                     f"cell{c}")
            for c in range(n)]

        def spawn_iteration(it: int) -> None:
            if it == self.iterations:
                self.pred, self.prey = pred, prey
                return
            scope = ap.finish(f"turing-iter{it}")

            def outer_body(c: int):
                def body(ctx) -> None:
                    p0, q0 = pred[c], prey[c]
                    new_pred, new_prey = _step_cell(p0, q0)
                    nxt_pred[c] = new_pred

                    def inner(ictx) -> None:
                        nxt_prey[c] = new_prey

                    # async (thisPlace) c.updatePreyPop() — sensitive; if
                    # the non-selective scheduler ships it, the result
                    # must come back.
                    ctx.spawn(inner,
                              work=self.CYCLES_PER_BODY_INNER
                              * max(q0, 1.0),
                              reads=[cell_blocks[c]],
                              writes=[cell_blocks[c]],
                              copy_back=[cell_blocks[c]],
                              label="turing-inner")
                return body

            def driver_body(p: int):
                # "for each Cell c in wl { ... async ... }" — the per-place
                # worklist loop of the paper's Figure 1.  Spawning from a
                # running activity means the place is already busy, so
                # Algorithm 1 overflows the flexible outer tasks to the
                # shared deque where remote thieves can reach them.
                def body(ctx) -> None:
                    for c in chunks[p]:
                        bodies_c = pred[c] + prey[c]
                        ctx.spawn(outer_body(c),
                                  place=p,
                                  work=self.CYCLES_PER_BODY_OUTER
                                  * max(bodies_c, 1.0),
                                  reads=[cell_blocks[c]],
                                  writes=[cell_blocks[c]],
                                  locality=FLEXIBLE,
                                  encapsulates=True,
                                  closure_bytes=max(64, int(16 * bodies_c)),
                                  label="turing-outer")
                return body

            for p in range(P):
                ap.async_at(p, driver_body(p),
                            work=10_000.0 * max(len(chunks[p]), 1),
                            label="turing-driver", finish=scope)

            def barrier() -> None:
                # Migration over the populations the *tasks* computed
                # (wl.update(mBodies) in the paper's Figure 1), applied by
                # cheap per-place bookkeeping tasks; then next iteration.
                new_pred, new_prey = self._migrate(
                    nxt_pred.copy(), nxt_prey.copy(), it)
                apply_scope = ap.finish(f"turing-apply{it}")

                def apply_body(p: int):
                    def body(ctx) -> None:
                        chunk = chunks[p]
                        pred[chunk.start:chunk.stop] = \
                            new_pred[chunk.start:chunk.stop]
                        prey[chunk.start:chunk.stop] = \
                            new_prey[chunk.start:chunk.stop]
                    return body

                # Per-place migration outboxes sized by the bodies that
                # actually cross — the baseline inter-node traffic every
                # scheduler pays.
                flows = self._flow_bytes(nxt_pred, nxt_prey, it, home_of)
                inboxes: dict[int, list] = {p: [] for p in range(P)}
                for (src, dst), nbytes in sorted(flows.items()):
                    inboxes[dst].append(
                        ap.alloc(src, nbytes, f"mig[{src}->{dst}@{it}]"))
                for p in range(P):
                    chunk = chunks[p]
                    blocks = [cell_blocks[c] for c in chunk]
                    ap.async_at(p, apply_body(p),
                                work=self.CYCLES_APPLY_PER_CELL
                                * max(len(chunk), 1),
                                reads=inboxes[p], writes=blocks,
                                label="turing-apply", finish=apply_scope)
                apply_scope.on_complete(lambda: spawn_iteration(it + 1))
                apply_scope.close()

            scope.on_complete(barrier)
            scope.close()

        spawn_iteration(0)

    # -- results -------------------------------------------------------------
    def result(self) -> tuple[np.ndarray, np.ndarray]:
        if self.pred is None or self.prey is None:
            raise AppError("turing: run() has not been called")
        return self.pred, self.prey

    def validate(self) -> None:
        pred, prey = self.result()
        seq_pred, seq_prey = self.sequential()
        self.check(np.allclose(pred, seq_pred, rtol=1e-12, atol=1e-9),
                   "predator populations diverge from the oracle")
        self.check(np.allclose(prey, seq_prey, rtol=1e-12, atol=1e-9),
                   "prey populations diverge from the oracle")
        self.check(bool(np.all(pred > 0)) and bool(np.all(prey > 0)),
                   "populations must stay positive")
