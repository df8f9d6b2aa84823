"""DistWS: the paper's contribution (Algorithm 1).

Mapping (lines 1-8):

- locality-sensitive task -> a private deque at its home place;
- locality-flexible task  -> a private deque if the home place is inactive,
  has spare workers, or sits below its thread bound (``¬isActive(p) or
  spares > 0 or size(p) < max_threads``); otherwise the place's shared
  deque, making it available for distributed stealing.

Work finding (lines 9-29), in strict order:

1. own private deque (done by the worker before calling the policy);
2. probe the network for tasks shipped to this place;
3. steal from co-located workers (single task, LIFO victim deque's old end);
4. steal from the local shared deque (FIFO — the oldest, coarsest task);
5. distributed stealing: visit remote places' shared deques, chunk of 2,
   re-probing the home mailbox between failed attempts.

The selectivity guarantee — a sensitive task can never leave its place —
is structural: sensitive tasks only ever enter private deques, and remote
thieves only ever touch shared deques.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.runtime.task import Task
from repro.sched.base import FindWork, Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.place import Place
    from repro.runtime.worker import Worker


class DistWS(Scheduler):
    """Selective locality-aware distributed work stealing (Algorithm 1)."""

    name = "DistWS"
    remote_chunk_size = 2
    distributed = True
    #: Canonical tier shape: the collapsed-round fast path may model it.
    _fast_round_ok = True

    def __init__(self, remote_chunk_size: int = 2,
                 shared_fifo: bool = True,
                 victim_order: str = "random",
                 underutil_threshold: Optional[int] = None,
                 **knobs) -> None:
        super().__init__(remote_chunk_size=remote_chunk_size, **knobs)
        #: Ablation knob: ``False`` makes steals take the *newest* shared
        #: task instead of the oldest (benchmarks/test_ablation_deques).
        self.shared_fifo = shared_fifo
        #: Victim traversal order for distributed steals: ``"random"``
        #: (the paper's default — on a fully connected cluster the order
        #: "does not profoundly impact the total cost", §I) or
        #: ``"nearest"`` (footnote 2's recommendation for non-fully
        #: connected topologies like rings).
        if victim_order not in ("random", "nearest"):
            raise ValueError(f"unknown victim_order {victim_order!r}")
        self.victim_order = victim_order
        #: Shared-deque admission knob: a flexible task stays on a
        #: private deque while ``size(p)`` is below this; ``None`` keeps
        #: the paper's rule (``size(p) < max_threads``).
        self.underutil_threshold = underutil_threshold

    def _keep_local(self, place: "Place") -> bool:
        """Algorithm 1's keep-it-local predicate, with a tunable bound."""
        if (not place.active) or place.spares() > 0:
            return True
        if self.underutil_threshold is not None:
            return place.size() < self.underutil_threshold
        return place.is_under_utilized()

    # -- mapping (Algorithm 1 lines 1-8) ------------------------------------
    def map_task(self, task: Task, from_worker=None) -> None:
        place = self.rt.places[task.home_place]
        if not task.is_flexible:
            self._push_private(task, from_worker)
            return
        if self._keep_local(place):
            # Idle/under-utilized place: keep the flexible task local to
            # prioritize the place's own cores (§V-B1 benefit i/ii).
            # pick_private_deque prefers an *idle* worker, eliminating the
            # steal that worker would otherwise need.
            place.pick_private_deque().push(task)
        else:
            if not self.shared_fifo:
                # LIFO-shared ablation: push at the steal end instead.
                place.shared.push_front(task)
                self.rt.board.advertise(place.place_id)
            else:
                self._push_shared(task)

    def mapping_cost(self, task: Task) -> float:
        rt = self._bound_runtime()
        costs = rt.costs
        if not task.is_flexible:
            return costs.private_deque_op
        # Consulting the place-status object plus the (possibly shared)
        # deque operation.
        place = rt.places[task.home_place]
        base = costs.locality_mapping_overhead
        if self._keep_local(place):
            return base + costs.private_deque_op
        return base + costs.shared_deque_op

    def _fast_remote_commit(self, worker: "Worker") -> None:
        # ``nearest`` victim order is deterministic (footnote 2's
        # distance-sorted list): an all-skip remote tier draws no RNG.
        if (self.distributed and self.rt.spec.n_places > 1
                and self.victim_order != "nearest"):
            self._random_place_order(worker)

    # -- work finding (Algorithm 1 lines 9-29; tiers 0-1 run in the worker's
    # steal scan, this is everything after a co-located miss) -----------------
    def find_work_tail(self, worker: "Worker") -> FindWork:
        task = yield from self._steal_local_shared(worker)
        if task is not None:
            return task
        if self.rt.spec.n_places > 1:
            if self.victim_order == "nearest":
                order = self.rt.spec.neighbours_by_distance(
                    worker.place.place_id)
            else:
                order = self._random_place_order(worker)
            task = yield from self._steal_remote(worker, order)
        return task
