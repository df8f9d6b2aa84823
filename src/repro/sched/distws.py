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

from typing import TYPE_CHECKING, List

from repro.runtime.task import Task
from repro.sched.base import REMOTE_CHUNK_SIZE, Scheduler
from repro.sched.knobs import Knob

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.place import Place
    from repro.runtime.worker import Worker


#: Victim traversal order for distributed steals: ``"random"`` (the
#: paper's default — on a fully connected cluster the order "does not
#: profoundly impact the total cost", §I) or ``"nearest"`` (footnote 2's
#: recommendation for non-fully connected topologies like rings).
VICTIM_ORDER = Knob(
    "victim_order", "categorical", default="random",
    choices=("random", "nearest"),
    doc="distributed victim traversal order (§I footnote 2)")
UNDERUTIL_THRESHOLD = Knob(
    "underutil_threshold", "int", default=None, lo=1, hi=64,
    grid=(2, 4, 8, 16),
    doc="size(p) bound under which flexible tasks stay on "
        "private deques (auto: cluster max_threads, Alg. 1 l.5)")
SHARED_FIFO = Knob(
    "shared_fifo", "bool", default=True,
    doc="steal the oldest (FIFO) shared-deque task instead of "
        "the newest (§V-B2 ablation)")


class DistWS(Scheduler):
    """Selective locality-aware distributed work stealing (Algorithm 1)."""

    name = "DistWS"
    distributed = True
    knobs = Scheduler.knobs + (REMOTE_CHUNK_SIZE, VICTIM_ORDER,
                               UNDERUTIL_THRESHOLD, SHARED_FIFO)
    #: What a subclass that does not declare these knobs runs with:
    #: steals take the oldest shared task and admission follows the
    #: paper's rule (``size(p) < max_threads``).
    shared_fifo = SHARED_FIFO.default
    underutil_threshold = UNDERUTIL_THRESHOLD.default

    def _keep_local(self, place: "Place") -> bool:
        """Algorithm 1's keep-it-local predicate, with a tunable bound."""
        if (not place.active) or place.spares() > 0:
            return True
        if self.underutil_threshold is not None:
            return place.size() < self.underutil_threshold
        return place.is_under_utilized()

    # -- mapping (Algorithm 1 lines 1-8) ------------------------------------
    def map_task(self, task: Task, from_worker=None) -> float:
        rt = self._bound_runtime()
        if not task.is_flexible:
            self._push_private(task, from_worker)
            return rt.costs.private_deque_op
        return self._place_flexible(task)

    def _place_flexible(self, task: Task) -> float:
        """Algorithm 1 lines 4-8 for a task already judged flexible.

        Returns the spawner's cycles: consulting the place-status object
        plus the (private or shared) deque operation.
        """
        rt = self.rt
        costs = rt.costs
        place = rt.places[task.home_place]
        if self._keep_local(place):
            # Idle/under-utilized place: keep the flexible task local to
            # prioritize the place's own cores (§V-B1 benefit i/ii).
            # pick_private_deque prefers an *idle* worker, eliminating the
            # steal that worker would otherwise need.
            place.pick_private_deque().push(task)
            return costs.locality_mapping_overhead + costs.private_deque_op
        if self.shared_fifo:
            self._push_shared(task)
        else:
            # LIFO-shared ablation: push at the steal end instead.
            place.shared.push_front(task)
            rt.board.advertise(place.place_id)
        return costs.locality_mapping_overhead + costs.shared_deque_op

    # -- work finding (Algorithm 1 lines 9-29: the base tail) -----------------
    def _remote_order(self, worker: "Worker", t: float) -> List[int]:
        if self.victim_order == "nearest":
            # Footnote 2's distance-sorted list: draws no RNG.
            return self.rt.spec.neighbours_by_distance(worker.place.place_id)
        return self._random_place_order(worker)
