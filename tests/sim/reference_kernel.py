"""Reference kernel: the object-record event kernel, kept for tests.

This is the kernel :mod:`repro.sim.engine` replaced with its flat
struct-of-arrays layout, frozen as it was.  The library never imports
it.  It survives as the reference implementation for the hypothesis
interleaving properties in ``tests/sim/test_handles.py``: arbitrary
park/wake and sleep/interrupt races must produce the same timeline,
causes and event accounting on both kernels.

:class:`Environment` owns the event heap and the simulated clock.  Time is a
float measured in *cycles* throughout the library (the cluster cost model
converts cycles to milliseconds for reporting).

Determinism: events scheduled for the same timestamp are processed in the
order they were scheduled (a monotonically increasing sequence number breaks
ties), so a given program produces bit-identical traces across runs.

Fast-path records
-----------------

The steady state of a work-stealing simulation is dominated by two shapes:
``yield env.timeout(cost)`` inside a process (one fresh :class:`Timeout`
plus a callbacks list per simulated stall) and the idle-worker park (an
``AnyOf`` over several fresh child events per failed round).  Both now have
allocation-free equivalents that put small *reusable records* on the heap
instead of one-shot events:

- :meth:`Environment.sleep` re-arms the calling process's single
  :class:`_Resume` record — the heap entry ``(due, seq, record)`` is the
  entire timeout;
- :class:`ParkRecord` is a per-worker cancellable park: wake sources call
  :meth:`ParkRecord._fire`, and stale heap entries (superseded wake hops,
  expired backoff probes) are disambiguated by sequence number instead of
  being removed, so nothing is ever searched or unlinked.

A heap record is recognized by ``callbacks is None`` — a *pending*
:class:`~repro.sim.events.Event` always carries a callbacks list, and
records set ``callbacks = None`` as a class attribute.  The kernel then
dispatches through ``record._pop(seq)``.

The ordering contract is preserved exactly: every record transition
consumes a sequence number at the same point the event path it replaces
did (a fired park performs the same two-hop ``child pop → composite pop``
dance through the heap), so simulated results are byte-identical to the
event-object kernel.  The only deleted heap traffic is provably
unobservable no-ops: stale waiter events whose ``succeed`` never resumed
anyone.
"""

from __future__ import annotations

import heapq
from typing import Any, Generator, List, Optional, Tuple

from repro.errors import DeadlockError, SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout

#: Park wake causes, compared by identity in the worker loop (the fast
#: equivalent of comparing which child event won the legacy ``AnyOf``).
CAUSE_DONE = "done"
CAUSE_WORK = "work"
CAUSE_TIMEOUT = "timeout"
CAUSE_BOARD = "board"

#: :class:`ParkRecord` states.
PARK_IDLE = 0      # not parked; any heap entries are stale
PARK_PARKED = 1    # worker waiting; first _fire() wins
PARK_WAKING = 2    # wake hop 1 in the heap (the child-event pop stand-in)
PARK_RESUMING = 3  # wake hop 2 in the heap (the composite pop stand-in)


class Environment:
    """Discrete-event execution environment with a deterministic clock."""

    __slots__ = ("_now", "_queue", "_seq", "_active_processes", "_current",
                 "events_processed")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, Any]] = []
        self._seq = 0
        self._active_processes = 0
        #: The process whose generator is currently executing (resumes are
        #: never nested — every resume comes from a heap pop), consulted by
        #: :meth:`sleep` to find the caller's resume record.
        self._current: Optional["Process"] = None
        #: Heap entries processed so far (events *and* fast records);
        #: benchmark fodder for events/sec.
        self.events_processed = 0

    # -- clock & scheduling -------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in cycles."""
        return self._now

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Enqueue a triggered ``event`` to be processed ``delay`` from now."""
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        event._scheduled = True
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, self._seq, event))

    # -- event factories ------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event triggering ``delay`` cycles in the future."""
        return Timeout(self, delay, value)

    def sleep(self, delay: float) -> "_Resume":
        """Allocation-free ``timeout`` for the calling process.

        Re-arms the process's reusable resume record and pushes it on the
        heap directly — no :class:`Timeout`, no callbacks list.  Only valid
        inside a running process (``yield env.sleep(cost)``); the record
        carries no payload, so the yield resumes with ``None`` exactly like
        a plain ``yield env.timeout(cost)``.
        """
        if delay < 0:
            raise SimulationError(f"negative sleep delay: {delay!r}")
        proc = self._current
        if proc is None:
            raise SimulationError("sleep() called outside a process")
        rec = proc._rec
        self._seq += 1
        rec._seq = self._seq
        heapq.heappush(self._queue, (self._now + delay, self._seq, rec))
        return rec

    def any_of(self, events: List[Event]) -> AnyOf:
        """Composite event triggering on the first of ``events``."""
        return AnyOf(self, events)

    def all_of(self, events: List[Event]) -> AllOf:
        """Composite event triggering when all ``events`` have triggered."""
        return AllOf(self, events)

    def process(self, generator: Generator[Event, Any, Any]) -> "Process":
        """Start a simulated process from ``generator``."""
        return Process(self, generator)

    # -- main loop ------------------------------------------------------------
    def step(self) -> None:
        """Process the single next entry in the heap."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, seq, entry = heapq.heappop(self._queue)
        self._now = when
        self.events_processed += 1
        callbacks = entry.callbacks
        if callbacks is None:
            entry._pop(seq)  # fast record (a pending Event always has a list)
            return
        entry.callbacks = None
        for callback in callbacks:
            callback(entry)

    def run(self, until: Optional[Event | float] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until the event heap drains.
            A float — run until the clock reaches that time.
            An :class:`Event` — run until that event has been processed and
            return its value.

        Raises
        ------
        DeadlockError
            If ``until`` is an event, the heap drains, and the event never
            triggered: no remaining activity can ever wake the waiters.
        """
        stop_event: Optional[Event] = None
        stop_time: Optional[float] = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError("until lies in the past")

        # The hot loop below is step() inlined with the loop-invariant
        # lookups hoisted; step() stays public for tests and debugging.
        queue = self._queue
        pop = heapq.heappop
        processed = 0
        try:
            while queue:
                if stop_event is not None and stop_event.callbacks is None:
                    return stop_event.value
                if stop_time is not None and queue[0][0] > stop_time:
                    self._now = stop_time
                    return None
                when, seq, entry = pop(queue)
                self._now = when
                processed += 1
                callbacks = entry.callbacks
                if callbacks is None:
                    entry._pop(seq)
                else:
                    entry.callbacks = None
                    for callback in callbacks:
                        callback(entry)
        finally:
            self.events_processed += processed

        if stop_event is not None:
            if stop_event.processed:
                return stop_event.value
            raise DeadlockError(
                "event queue drained before the 'until' event triggered; "
                f"{self._active_processes} process(es) still alive")
        if stop_time is not None:
            self._now = stop_time
        return None

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the heap is empty."""
        return self._queue[0][0] if self._queue else float("inf")


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class _Resume(object):
    """Reusable heap record resuming one process (see :meth:`Environment.sleep`).

    Exactly one per process; re-armed by storing a fresh sequence number.
    A heap entry whose ``seq`` no longer matches :attr:`_seq` was superseded
    (the process was interrupted and slept again) and pops as a no-op.
    """

    __slots__ = ("process", "_seq")

    #: Class-level marker: ``callbacks is None`` routes the kernel to
    #: :meth:`_pop` instead of the event-callback path.
    callbacks = None

    def __init__(self, process: "Process") -> None:
        self.process = process
        self._seq = -1

    def _pop(self, seq: int) -> None:
        if seq != self._seq:
            return  # superseded by an interrupt; nothing to wake
        self._seq = -1
        proc = self.process
        proc._waiting_on = None
        proc._step_send(None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<_Resume armed={self._seq != -1}>"


class _ParkProbe(object):
    """Backoff-deadline probe for one :class:`ParkRecord`.

    One probe serves every park round of its worker: consecutive rounds
    whose deadline is already *covered* by an outstanding probe entry
    (``_dues``) push nothing, which is what keeps the heap O(workers) under
    idle churn — the legacy kernel left one abandoned backoff ``Timeout``
    per failed round.  A stale probe pop re-arms itself at the current
    deadline (with the deadline's own pre-assigned sequence number, i.e.
    exactly the heap entry the legacy ``Timeout`` would have occupied).
    """

    __slots__ = ("park",)

    callbacks = None

    def __init__(self, park: "ParkRecord") -> None:
        self.park = park

    def _pop(self, seq: int) -> None:
        park = self.park
        heapq.heappop(park._dues)
        state = park.state
        if seq == park._deadline_seq:
            if state == PARK_PARKED or state == PARK_WAKING:
                # The deadline may overtake a wake hop already in flight:
                # the legacy backoff Timeout (scheduled at park time, hence
                # an earlier seq) popped before the waker's child event and
                # won the AnyOf race.
                park._fire_timeout()
        elif state == PARK_PARKED or state == PARK_WAKING:
            deadline = park._deadline
            dues = park._dues
            if not dues or dues[0] > deadline:
                heapq.heappush(park.env._queue,
                               (deadline, park._deadline_seq, self))
                heapq.heappush(dues, deadline)


class ParkRecord(object):
    """A worker's reusable, cancellable idle park.

    Replaces the per-round ``AnyOf([gate.wait(), work_event, timeout,
    surplus_event])``: wake sources (:meth:`~repro.runtime.place.Place.
    notify_work`, the status board, the termination gate, the backoff
    deadline) call :meth:`_fire` with a cause, and the worker's generator
    receives that cause from ``yield park``.

    Waking preserves the legacy two-hop heap structure — hop 1 stands in
    for the fired child event's pop, hop 2 for the composite's — so any
    event scheduled between those pops keeps its relative order.  Losers
    of a same-timestamp race are skipped by the ``state``/sequence guards
    precisely where the legacy kernel popped their no-op ``succeed``.
    """

    __slots__ = ("env", "process", "state", "cause", "round",
                 "_deadline", "_deadline_seq", "_hop_seq", "_probe", "_dues")

    callbacks = None

    def __init__(self, env: Environment, process: "Process") -> None:
        self.env = env
        self.process = process
        self.state = PARK_IDLE
        self.cause: Any = None
        #: Monotone park-round counter; waiter-list entries carry the round
        #: they were registered for, so entries from earlier rounds are
        #: recognizably stale without being unlinked.
        self.round = 0
        self._deadline = 0.0
        self._deadline_seq = -1
        self._hop_seq = -1
        self._probe = _ParkProbe(self)
        #: Due times of this worker's outstanding probe heap entries
        #: (a tiny min-heap, usually length 1).
        self._dues: List[float] = []

    def begin(self, delay: float, gate_open: bool) -> "ParkRecord":
        """Arm the park for one idle round; yield ``self`` afterwards.

        Sequence numbers are consumed exactly as the legacy park did: an
        already-open gate fires first (the ``gate.wait()`` of a dead
        computation succeeded before the backoff timeout was created), then
        the backoff deadline claims its number whether or not a probe entry
        is pushed for it.
        """
        self.round += 1
        self.state = PARK_PARKED
        self.cause = None
        if gate_open:
            self._fire(CAUSE_DONE)
        env = self.env
        env._seq += 1
        due = env._now + delay
        self._deadline = due
        self._deadline_seq = env._seq
        dues = self._dues
        if not dues or dues[0] > due:
            heapq.heappush(env._queue, (due, env._seq, self._probe))
            heapq.heappush(dues, due)
        return self

    def _fire(self, cause: Any) -> None:
        """A wake source signals the parked worker (first caller wins)."""
        if self.state != PARK_PARKED:
            return  # not parked, or a same-timestamp sibling already won
        self.state = PARK_WAKING
        self.cause = cause
        env = self.env
        env._seq += 1
        self._hop_seq = env._seq
        heapq.heappush(env._queue, (env._now, env._seq, self))

    def _fire_timeout(self) -> None:
        """The backoff deadline fires (may override a pending wake hop)."""
        self.cause = CAUSE_TIMEOUT
        self.state = PARK_RESUMING
        env = self.env
        env._seq += 1
        self._hop_seq = env._seq
        heapq.heappush(env._queue, (env._now, env._seq, self))

    def cancel(self) -> None:
        """Detach from the current round (the worker was interrupted)."""
        self.state = PARK_IDLE
        self.cause = None
        self._hop_seq = -1

    def _pop(self, seq: int) -> None:
        if seq != self._hop_seq:
            return  # a superseding wake re-armed the record
        state = self.state
        if state == PARK_WAKING:
            # Hop 2: the stand-in for the legacy composite's own pop.
            self.state = PARK_RESUMING
            env = self.env
            env._seq += 1
            self._hop_seq = env._seq
            heapq.heappush(env._queue, (env._now, env._seq, self))
        elif state == PARK_RESUMING:
            self.state = PARK_IDLE
            self._hop_seq = -1
            proc = self.process
            proc._waiting_on = None
            proc._step_send(self.cause)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = {PARK_IDLE: "idle", PARK_PARKED: "parked",
                 PARK_WAKING: "waking", PARK_RESUMING: "resuming"}
        return f"<ParkRecord {names[self.state]} round={self.round}>"


class Process(Event):
    """A running simulated process wrapping a generator of events.

    A Process is itself an :class:`Event` that triggers when the generator
    returns (payload: the return value) or raises (failure).  This allows
    processes to wait for each other by yielding a Process.
    """

    __slots__ = ("generator", "_waiting_on", "_rec", "_resume_cb")

    def __init__(self, env: Environment, generator: Generator[Event, Any, Any]) -> None:
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError("process() requires a generator")
        self.generator = generator
        #: Reusable :meth:`Environment.sleep` record (doubles as the
        #: bootstrap: the first pop starts the generator).
        self._rec = _Resume(self)
        #: The bound resume method, allocated once instead of per event.
        self._resume_cb = self._resume
        env._active_processes += 1
        # Kick off the process at the current simulated time.
        env._seq += 1
        self._rec._seq = env._seq
        heapq.heappush(env._queue, (env._now, env._seq, self._rec))
        self._waiting_on: Any = self._rec

    @property
    def is_alive(self) -> bool:
        """Whether the underlying generator has not yet finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        target = self._waiting_on
        if target is not None:
            if target is self._rec:
                target._seq = -1  # the pending sleep entry pops as a no-op
            elif isinstance(target, ParkRecord):
                target.cancel()
            elif not target.processed:
                # Stop the pending resume; deliver the interrupt instead.
                try:
                    target.callbacks.remove(self._resume_cb)
                except (ValueError, AttributeError):
                    pass
                # If the event sits in a resource's waiter queue (e.g. a
                # SimLock acquire), the resource must not hand over to this
                # now-dead process — it would strand the lock forever.
                target._abandoned = True
        self._waiting_on = None
        wake = Event(self.env)
        wake.add_callback(lambda ev: self._throw(Interrupt(cause)))
        wake.succeed()

    # -- internals ------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        if event._ok:
            self._step_send(event._value)
        else:
            self._step_throw(event._value)

    def _throw(self, exc: BaseException) -> None:
        if self.triggered:
            return
        self._step_throw(exc)

    def _step_send(self, value: Any) -> None:
        """Advance the generator with ``value``; handle what it yields."""
        env = self.env
        env._current = self
        try:
            target = self.generator.send(value)
        except StopIteration as stop:
            env._current = None
            env._active_processes -= 1
            self.succeed(stop.value)
            return
        except (KeyboardInterrupt, SystemExit):
            # A host-level interrupt (ctrl-C, SIGTERM) landing mid-step
            # aborts the whole run; it must never masquerade as a
            # simulated process death.
            env._current = None
            raise
        except BaseException as exc:
            env._current = None
            env._active_processes -= 1
            self.fail(exc)
            return
        env._current = None
        self._handle(target)

    def _step_throw(self, exc: BaseException) -> None:
        """Advance the generator by throwing ``exc`` into it."""
        env = self.env
        env._current = self
        try:
            target = self.generator.throw(exc)
        except StopIteration as stop:
            env._current = None
            env._active_processes -= 1
            self.succeed(stop.value)
            return
        except (KeyboardInterrupt, SystemExit):
            env._current = None
            raise
        except BaseException as raised:
            env._current = None
            env._active_processes -= 1
            self.fail(raised)
            return
        env._current = None
        self._handle(target)

    def _handle(self, target: Any) -> None:
        """Wait on whatever the generator yielded."""
        if target is self._rec:
            self._waiting_on = target  # armed by env.sleep()
            return
        if isinstance(target, Event):
            if target.callbacks is None:
                self.env._active_processes -= 1
                self.fail(SimulationError(
                    "process yielded an already-processed event"))
                return
            self._waiting_on = target
            target.callbacks.append(self._resume_cb)
            return
        if isinstance(target, ParkRecord):
            self._waiting_on = target  # armed by ParkRecord.begin()
            return
        self.env._active_processes -= 1
        self.fail(SimulationError(
            f"process yielded {target!r}; processes must yield Events"))
