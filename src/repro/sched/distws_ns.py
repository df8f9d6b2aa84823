"""DistWS-NS: the non-selective control (§VIII.3).

Identical machinery to DistWS — private deques per worker, one shared deque
per place, the same four-tier steal order, chunked distributed steals — but
the locality annotation is *ignored*: tasks are "mapped among the private
and shared deques in a round robin fashion, so that there are opportunities
for both local and remote execution of tasks".

The consequence the paper measures: locality-sensitive tasks travel across
nodes, paying fine-grained remote references and result copy-backs instead
of one bulk migration, which inflates L1 miss rates (Table II), message
counts (Table III), and makespan (Fig. 6).
"""

from __future__ import annotations

from typing import Dict

from repro.runtime.task import Task
from repro.sched.base import REMOTE_CHUNK_SIZE, Scheduler


class DistWSNS(Scheduler):
    """Non-selective variant: any task may be stolen across places."""

    name = "DistWS-NS"
    distributed = True
    knobs = Scheduler.knobs + (REMOTE_CHUNK_SIZE,)
    #: By design: any task — sensitive included — may travel.
    enforces_locality = False

    def __init__(self, **knobs) -> None:
        super().__init__(**knobs)
        #: place id -> the next mapping turn (even: private, odd: shared).
        self._rr: Dict[int, int] = {}

    def bind(self, runtime) -> None:
        super().bind(runtime)
        self._rr = {}

    def map_task(self, task: Task, from_worker=None) -> float:
        rt = self._bound_runtime()
        place = rt.places[task.home_place]
        turn = self._rr.get(place.place_id, 0)
        self._rr[place.place_id] = turn + 1
        # Alternate per place: even turns go private, odd turns shared.
        if turn % 2 == 0:
            self._push_private(task, from_worker)
            return rt.costs.private_deque_op
        self._push_shared(task)
        return rt.costs.shared_deque_op
