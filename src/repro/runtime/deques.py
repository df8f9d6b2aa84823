"""Work deques: per-worker private deques and per-place shared deques.

Fig. 2 of the paper: each place has one *private* deque per worker (holding
locality-sensitive tasks, plus flexible tasks redirected by Algorithm 1
lines 5-6) and one *shared* deque (holding locality-flexible tasks, the only
deque remote thieves may touch).

Access disciplines (§V-A):

- private deque — the owner pushes and pops at the same end (LIFO), which
  "leads the local worker to execute the most recently created task and thus
  offers a higher chance of exploiting cache locality"; co-located thieves
  take from the opposite end (the oldest task).  No lock is modelled — X10's
  private deques use owner-biased synchronization whose cost is folded into
  the cost-model constants.
- shared deque — strict FIFO for *every* consumer "to ensure that any steal
  operation, whether local or remote, receives the oldest task in the
  deque", because older tasks carry the most work.  Guarded by a
  :class:`~repro.sim.resources.SimLock` so contention costs simulated time.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from repro.runtime.task import Task, TaskState
from repro.sim.engine import Environment
from repro.sim.resources import SimLock


class PrivateDeque:
    """A worker's unsynchronized double-ended work queue.

    When constructed with ``place``/``owner`` backrefs (the runtime always
    does; bare construction in tests skips this), every push/pop/steal
    maintains the place's O(1) load counters — ``_n_private`` (total
    privately queued tasks) and ``_n_spare`` (idle workers with empty
    deques) — so Algorithm 1's per-spawn ``size(p)``/``spares(p)`` queries
    stop rescanning every worker.
    """

    __slots__ = ("owner_place", "owner_worker", "_items", "pushes", "owner_pops",
                 "thief_takes", "place", "owner")

    def __init__(self, owner_place: int, owner_worker: int,
                 place=None, owner=None) -> None:
        self.owner_place = owner_place
        self.owner_worker = owner_worker
        self._items: deque[Task] = deque()
        self.pushes = 0
        self.owner_pops = 0
        self.thief_takes = 0
        #: Owning :class:`~repro.runtime.place.Place` (load counters).
        self.place = place
        #: Owning :class:`~repro.runtime.worker.Worker` (spare bookkeeping).
        self.owner = owner

    def __len__(self) -> int:
        return len(self._items)

    def push(self, task: Task) -> None:
        """Owner (or the mapper) adds a task at the hot end."""
        task.state = TaskState.QUEUED
        items = self._items
        items.append(task)
        self.pushes += 1
        place = self.place
        if place is not None:
            place._n_private += 1
            if len(items) == 1:
                owner = self.owner
                if owner is not None and not owner._executing:
                    place._n_spare -= 1

    def pop(self) -> Optional[Task]:
        """Owner takes the most recently pushed task (LIFO)."""
        items = self._items
        if not items:
            return None
        self.owner_pops += 1
        task = items.pop()
        place = self.place
        if place is not None:
            place._n_private -= 1
            if not items:
                owner = self.owner
                if owner is not None and not owner._executing:
                    place._n_spare += 1
        return task

    def steal(self) -> Optional[Task]:
        """A co-located thief takes the oldest task (FIFO end)."""
        items = self._items
        if not items:
            return None
        self.thief_takes += 1
        task = items.popleft()
        task.stolen_locally = True
        place = self.place
        if place is not None:
            place._n_private -= 1
            if not items:
                owner = self.owner
                if owner is not None and not owner._executing:
                    place._n_spare += 1
        return task


class SharedDeque:
    """The per-place FIFO deque of locality-flexible tasks.

    All mutation must happen while holding :attr:`lock` (callers in
    simulated processes ``yield deque.lock.acquire()`` first); the lock is
    exposed rather than wrapped so the scheduler can model the *duration* of
    the critical section explicitly.
    """

    __slots__ = ("place_id", "lock", "_items", "pushes", "local_takes",
                 "remote_takes")

    def __init__(self, env: Environment, place_id: int) -> None:
        self.place_id = place_id
        self.lock = SimLock(env, name=f"shared-deque-p{place_id}")
        self._items: deque[Task] = deque()
        self.pushes = 0
        self.local_takes = 0
        self.remote_takes = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, task: Task) -> None:
        """Append a task at the tail (newest end)."""
        task.state = TaskState.QUEUED
        self._items.append(task)
        self.pushes += 1

    def push_front(self, task: Task) -> None:
        """Insert at the steal end (LIFO-shared ablation only)."""
        task.state = TaskState.QUEUED
        self._items.appendleft(task)
        self.pushes += 1

    def take_oldest(self, remote: bool) -> Optional[Task]:
        """Remove and return the oldest task (FIFO), or ``None`` if empty."""
        if not self._items:
            return None
        task = self._items.popleft()
        if remote:
            self.remote_takes += 1
            task.stolen_remotely = True
        else:
            self.local_takes += 1
        return task

    def take_chunk(self, n: int, remote: bool) -> List[Task]:
        """Remove up to ``n`` oldest tasks (the chunked distributed steal)."""
        out: List[Task] = []
        for _ in range(max(0, n)):
            task = self.take_oldest(remote)
            if task is None:
                break
            out.append(task)
        return out
