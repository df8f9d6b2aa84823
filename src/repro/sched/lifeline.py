"""Lifeline-based global load balancing (Saraswat et al., PPoPP'11).

The related-work comparator for UTS (§X).  Two-step balancing:

1. an idle place first performs ``w`` random steal attempts;
2. if all fail, it *quiesces*: it registers itself with the places on its
   outgoing lifeline edges (a cyclic hypercube over places) and stops
   polling the network. "Work arrives from a lifeline and is pushed by the
   nodes onto all their active outgoing lifelines."

A place that maps new work while lifeliners are registered on it pushes
surplus tasks directly to those places' mailboxes, which wakes their parked
workers.  Because a missed steal *does* help future steals (the lifeline
registration persists), lifeline balancing beats unorganized random
stealing on UTS — and, per the paper, also beats DistWS there.

The push happens at mapping time (outside any simulated process), so its
network latency is counted in messages/bytes but not added to the mapper's
simulated critical path — a deliberate, documented approximation that only
*favours* the lifeline scheduler, consistent with the paper's finding.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.cluster.network import MSG_TASK_SHIP
from repro.runtime.task import Task
from repro.sched.randomws import RandomWS

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.worker import Worker


def lifeline_graph(n_places: int) -> Dict[int, List[int]]:
    """Outgoing lifeline edges: cyclic hypercube (power-of-two strides)."""
    edges: Dict[int, List[int]] = {p: [] for p in range(n_places)}
    if n_places < 2:
        return edges
    stride = 1
    while stride < n_places:
        for p in range(n_places):
            target = (p + stride) % n_places
            if target != p and target not in edges[p]:
                edges[p].append(target)
        stride *= 2
    return edges


class LifelineWS(RandomWS):
    """RandomWS's blind random steals + lifeline registration/push."""

    name = "Lifeline"
    #: Lifelines repair what the blind random phase misses (§X).
    victim_stream = "lifeline-victims"

    def __init__(self, **knobs) -> None:
        super().__init__(**knobs)
        #: place -> set of places that registered a lifeline *on* it and
        #: are waiting for a push.
        self._waiting_on: Dict[int, Set[int]] = {}
        self._out_edges: Dict[int, List[int]] = {}

    def bind(self, runtime) -> None:
        super().bind(runtime)
        n = runtime.spec.n_places
        self._out_edges = lifeline_graph(n)
        self._waiting_on = {p: set() for p in range(n)}

    # -- mapping + push -------------------------------------------------------
    def map_task(self, task: Task, from_worker=None) -> float:
        cost = super().map_task(task, from_worker)
        self._push_to_lifelines(task.home_place)
        return cost

    def _push_to_lifelines(self, place_id: int) -> None:
        """Hand surplus shared-deque tasks to registered lifeliners."""
        waiters = self._waiting_on[place_id]
        if not waiters:
            return
        place = self.rt.places[place_id]
        # Keep at least one task locally; push the rest to waiters.
        while len(place.shared) > 1 and waiters:
            # Deterministic: serve the lowest place id first.
            target = min(waiters)
            if not place.shared.lock.try_acquire():
                return  # deque busy in simulated time: skip this push
            try:
                task = place.shared.take_oldest(remote=True)
                if len(place.shared) == 0:
                    self.rt.board.retract(place_id)
            finally:
                place.shared.lock.release()
            if task is None:
                return
            waiters.discard(target)
            self.rt.network.send(place_id, target,
                                 task.closure_bytes, MSG_TASK_SHIP)
            dest = self.rt.places[target]
            dest.mailbox.put(task)
            obs = self.rt.obs
            if obs is not None and not obs.tally("mailbox_put",
                                                 self.rt.env.now):
                obs.emit_at(self.rt.env.now, "mailbox_put", {
                    "place": target, "task": task.task_id})
            dest.notify_work()
            self.rt.stats.steals.remote_tasks_received += 1

    # -- work finding ------------------------------------------------------------
    def _remote_done(self, worker: "Worker", task: Optional[Task]) -> None:
        if task is None:
            # Quiesce: register on every outgoing lifeline.
            me = worker.place.place_id
            for target in self._out_edges.get(me, ()):
                self._waiting_on[target].add(me)
