"""Simulated synchronization resources.

:class:`SimLock` models the mutex that guards a shared deque: acquisition is
FIFO, and contention shows up as simulated waiting time, which is exactly the
cost the paper attributes to shared-deque manipulation ("a local worker might
end up waiting for thousands of cycles", §V).

:class:`Gate` is a level-triggered condition used for termination signalling:
processes wait until the gate opens; waiting on an already-open gate resumes
immediately.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.errors import SimulationError
from repro.sim.engine import CAUSE_DONE, Environment
from repro.sim.events import Event


class SimLock:
    """A FIFO mutex in simulated time.

    Usage inside a process::

        yield lock.acquire()
        try:
            ... critical section (yield timeouts for hold time) ...
        finally:
            lock.release()
    """

    __slots__ = ("env", "name", "_locked", "_waiters",
                 "contended_acquires", "total_acquires")

    def __init__(self, env: Environment, name: str = "lock") -> None:
        self.env = env
        self.name = name
        self._locked = False
        self._waiters: Deque[Event] = deque()
        #: Total number of acquisitions that had to wait (contention events).
        self.contended_acquires = 0
        #: Total acquisitions.
        self.total_acquires = 0

    @property
    def locked(self) -> bool:
        """Whether the lock is currently held."""
        return self._locked

    def acquire(self) -> Event:
        """Return an event that triggers once the caller holds the lock."""
        ev = Event(self.env)
        self.total_acquires += 1
        if not self._locked and not self._waiters:
            self._locked = True
            ev.succeed(self)
        else:
            self.contended_acquires += 1
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Non-blocking acquire; returns ``True`` on success."""
        if self._locked or self._waiters:
            return False
        self._locked = True
        self.total_acquires += 1
        return True

    def release(self) -> None:
        """Release the lock, handing it to the oldest waiter if any.

        Waiters whose process was interrupted while queued (a crashed
        place's thief) are skipped: handing ownership to a dead process
        would hold the lock forever.
        """
        if not self._locked:
            raise SimulationError(f"release of unheld lock {self.name!r}")
        while self._waiters:
            nxt = self._waiters.popleft()
            if nxt._abandoned:
                continue
            nxt.succeed(self)  # lock stays held, ownership transfers
            return
        self._locked = False


class Gate:
    """A level-triggered condition: closed until :meth:`open` is called."""

    __slots__ = ("env", "name", "_open", "_waiters")

    def __init__(self, env: Environment, name: str = "gate") -> None:
        self.env = env
        self.name = name
        self._open = False
        #: One-shot :class:`Event` waiters mixed with persistently
        #: registered worker park records (see :meth:`register_park`).
        self._waiters: List = []

    @property
    def is_open(self) -> bool:
        """Whether the gate has been opened."""
        return self._open

    def wait(self) -> Event:
        """Event that triggers when the gate opens (immediately if open)."""
        ev = Event(self.env)
        if self._open:
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def register_park(self, record) -> None:
        """Register a worker's park record, once for its whole lifetime.

        The gate fires at most once, so unlike the per-round waiter
        events of old (one leaked :class:`Event` per failed round per
        worker) a park record registers a single time; records that are
        not parked when the gate opens are skipped by the park's own
        state guard.
        """
        self._waiters.append(record)

    def open(self) -> None:
        """Open the gate, waking every waiter. Idempotent."""
        if self._open:
            return
        self._open = True
        waiters, self._waiters = self._waiters, []
        for entry in waiters:
            if isinstance(entry, Event):
                entry.succeed()
            else:
                entry._fire(CAUSE_DONE)


class Mailbox:
    """An unbounded FIFO channel between simulated processes.

    Used by the runtime for the "probe the network for incoming tasks" step
    of Algorithm 1: remote places push task closures into the home place's
    mailbox and idle workers drain it.
    """

    __slots__ = ("env", "name", "_items")

    def __init__(self, env: Environment, name: str = "mailbox") -> None:
        self.env = env
        self.name = name
        self._items: Deque = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item) -> None:
        """Deposit ``item`` for a later :meth:`try_get`."""
        self._items.append(item)

    def try_get(self) -> Optional[object]:
        """Non-blocking take; ``None`` when empty."""
        if self._items:
            return self._items.popleft()
        return None
