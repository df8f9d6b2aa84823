"""The discrete-event simulation environment (flat struct-of-arrays kernel).

:class:`Environment` owns the event heap and the simulated clock.  Time is a
float measured in *cycles* throughout the library (the cluster cost model
converts cycles to milliseconds for reporting).

Determinism: events scheduled for the same timestamp are processed in the
order they were scheduled (a monotonically increasing sequence number breaks
ties), so a given program produces bit-identical traces across runs.

Struct-of-arrays layout
-----------------------

PR 5 made the hot paths allocation-free but still dispatched through one
Python record object per heap entry.  This kernel flattens that state into
parallel columns indexed by small-integer *handles*:

- the heap holds bare ``(due, seq, handle)`` triples — no record object
  per entry; the globally unique sequence number breaks due ties, so heap
  order is by ``(due, seq)`` exactly and ``handle`` indexes the columns;
- ``_kind[handle]`` says how to dispatch: ``K_RESUME`` (a sleeping
  process), ``K_EVENT`` (a scheduled :class:`~repro.sim.events.Event`),
  ``K_HOP`` (a park wake hop) or ``K_PROBE`` (a park backoff deadline);
- ``_arm[handle]`` holds the seq of the handle's *armed* entry (or
  ``-1``): a popped seq that no longer matches was superseded — by an
  interrupt, a competing wake, or handle recycling — and is skipped
  without any object ever being touched;
- ``_obj[handle]`` points at the owning :class:`Process`,
  :class:`~repro.sim.events.Event` or :class:`ParkRecord`;
- park state and wake cause live in the ``_pstate`` / ``_pcause``
  columns indexed by the park's hop handle, not as attributes.

The columns are plain Python lists, not ``array``/numpy buffers: every
value a column holds is a cached small int or an object reference, so a
list getitem (one pointer load) beats a C-array getitem (which must box
its element on every read) on the per-event path — measured, not
guessed; see DESIGN.md §17.

Handles are recycled through a free-list (``_free``); exhaustion grows
every column geometrically (doubling), so steady state allocates nothing.
Because sequence numbers are globally unique, a recycled handle can never
fire its previous owner: any entry armed by the old owner carries a token
the new owner's arm value can never equal.

The run loop additionally *batches same-cycle dispatch*: all entries
sharing one due time are drained under a single clock store, and
:attr:`Environment.events_processed` counts every entry in the batch
individually so events/sec stays comparable across kernels.

The scheduler's probe-fail-park round is hoisted into
:meth:`repro.sched.base.Scheduler.fast_round` (a vectorized victim scan
over the flat columns); :meth:`Environment.sleep_at` is the kernel-side
half of that contract.

This is the only kernel.  The golden cells in
``tests/sim/golden_kernel_snapshots.json`` pin its snapshots, event counts
and observer streams, and ``tests/sim/reference_kernel.py`` keeps the
earlier object-record kernel as the reference for the interleaving
properties in ``tests/sim/test_handles.py``.  See DESIGN.md §17.
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

#: :class:`ParkRecord` states (values in the ``_pstate`` column).
PARK_IDLE = 0      # not parked; any heap entries are stale
PARK_PARKED = 1    # worker waiting; first _fire() wins
PARK_WAKING = 2    # wake hop 1 in the heap (the child-event pop stand-in)
PARK_RESUMING = 3  # wake hop 2 in the heap (the composite pop stand-in)

#: Heap-entry kinds (values in the ``_kind`` column).
K_FREE = 0    # recycled handle; a popped entry is stale by construction
K_RESUME = 1  # resume a sleeping process
K_EVENT = 2   # run a scheduled Event's callbacks
K_HOP = 3     # park wake hop (two-hop child/composite pop stand-in)
K_PROBE = 4   # park backoff-deadline probe
K_SCAN = 5    # kernel-resident round step (see KernelRound)

#: Cause column encoding: ``_pcause`` byte -> cause object (index 0 = None).
_CAUSES: Tuple[Any, ...] = (None, CAUSE_DONE, CAUSE_WORK, CAUSE_TIMEOUT,
                            CAUSE_BOARD)
_CAUSE_INDEX = {CAUSE_DONE: 1, CAUSE_WORK: 2, CAUSE_TIMEOUT: 3,
                CAUSE_BOARD: 4}

_INITIAL_CAPACITY = 64


class _Sleep:
    """Singleton yielded by :meth:`Environment.sleep`.

    The armed heap entry lives entirely in the columns; the generator just
    needs *something* to yield, and a shared sentinel means the sleep path
    allocates nothing at all.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<SLEEP>"


_SLEEP = _Sleep()

#: Returned (via ``_resolve``) by a :class:`KernelRound` whose covered
#: tiers all came up empty: the owning generator continues with the
#: policy-specific tail of the round in ordinary yielded-event style.
SCAN_MISS = object()


class KernelRound:
    """A kernel-resident continuation for a worker's hot scheduling round.

    The dominant event pattern in steal-heavy cells is a worker cycling
    ``sleep -> probe a deque -> sleep -> probe`` many times per acquired
    task.  Running that cycle through the generator machinery costs a
    full resume chain (``Process._step_send`` -> nested ``yield from``
    frames) per probe.  A ``KernelRound`` replaces the chain: the worker
    yields the round object once, and the dispatch loop calls
    :meth:`step` directly on each fired entry — the subclass re-arms the
    next step or resolves the round back into the generator.

    The contract with byte-identity: each armed entry consumes exactly
    one sequence number at exactly the time a generator's ``sleep``
    would have, and :meth:`step` performs exactly the side effects the
    generator's resume would have performed, in the same order within
    the same dispatch.  The round is therefore exact under
    *any* event interleaving — unlike the collapsed
    :meth:`~repro.sched.base.Scheduler.fast_round`, it needs no global
    heap-quiescence guard.

    Subclasses (e.g. the worker's steal scan) own the policy; this base
    owns the handle plumbing.  The handle lives as long as its worker.
    """

    __slots__ = ("env", "proc", "_h")

    def __init__(self, env: Environment, proc: "Process") -> None:
        self.env = env
        self.proc = proc
        h = self._h = env._alloc()
        env._kind[h] = K_SCAN
        env._obj[h] = self

    def _arm(self, delay: float) -> None:
        """Push this round's next step ``delay`` cycles from now."""
        env = self.env
        env._seq += 1
        env._arm[self._h] = env._seq
        heapq.heappush(env._queue, (env._now + delay, env._seq, self._h))

    def _resolve(self, value: Any) -> None:
        """Resume the owning generator with the round's outcome."""
        proc = self.proc
        proc._waiting_on = None
        proc._step_send(value)

    def cancel(self) -> None:
        """Detach (the worker was interrupted); armed entries go stale."""
        self.env._arm[self._h] = -1

    def step(self) -> None:  # pragma: no cover - subclass responsibility
        raise NotImplementedError


class Environment:
    """Discrete-event execution environment with a deterministic clock."""

    __slots__ = ("_now", "_queue", "_seq", "_active_processes", "_current",
                 "events_processed", "_cap", "_kind", "_pstate", "_pcause",
                 "_arm", "_obj", "_free")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int]] = []
        self._seq = 0
        self._active_processes = 0
        #: The process whose generator is currently executing (resumes are
        #: never nested — every resume comes from a heap pop), consulted by
        #: :meth:`sleep` to find the caller's handle.
        self._current: Optional["Process"] = None
        #: Heap entries processed so far, counting every entry of a
        #: same-cycle batch individually; benchmark fodder for events/sec.
        self.events_processed = 0
        cap = _INITIAL_CAPACITY
        self._cap = cap
        self._kind: List[int] = [K_FREE] * cap
        self._pstate: List[int] = [PARK_IDLE] * cap
        self._pcause: List[int] = [0] * cap
        self._arm: List[int] = [-1] * cap
        self._obj: List[Any] = [None] * cap
        #: Free handles, popped from the end (so allocation order — and
        #: therefore every heap entry — is deterministic).
        self._free: List[int] = list(range(cap - 1, -1, -1))

    # -- handle allocation ----------------------------------------------------
    def _grow(self) -> None:
        """Double every column (free-list exhaustion, geometric growth)."""
        cap = self._cap
        self._kind.extend([K_FREE] * cap)
        self._pstate.extend([PARK_IDLE] * cap)
        self._pcause.extend([0] * cap)
        self._arm.extend([-1] * cap)
        self._obj.extend([None] * cap)
        self._free.extend(range(2 * cap - 1, cap - 1, -1))
        self._cap = 2 * cap

    def _alloc(self) -> int:
        """Take a free handle (arm is ``-1``, kind is ``K_FREE``)."""
        free = self._free
        if not free:
            self._grow()
            free = self._free
        return free.pop()

    def _release(self, handle: int) -> None:
        """Return ``handle`` to the free-list; stale entries pop as no-ops."""
        self._kind[handle] = K_FREE
        self._obj[handle] = None
        self._arm[handle] = -1
        self._free.append(handle)

    def _retire(self, proc: "Process") -> None:
        """Release a finished process's handle.

        A *dirty* handle (an interrupt left a stale sleep entry in the
        heap) is cleared but never returned to the free-list: recycling it
        into a ``K_PROBE`` handle would misroute the stale pop, since probe
        entries are disambiguated by deadline bookkeeping rather than arm
        tokens.  The leak is bounded by the number of interrupted
        processes, which only fault plans produce at all.
        """
        h = proc._h
        self._kind[h] = K_FREE
        self._obj[h] = None
        self._arm[h] = -1
        if not proc._dirty:
            self._free.append(h)

    # -- clock & scheduling ---------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in cycles."""
        return self._now

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Enqueue a triggered ``event`` to be processed ``delay`` from now."""
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        event._scheduled = True
        free = self._free
        if not free:
            self._grow()
        h = free.pop()
        self._kind[h] = K_EVENT
        self._obj[h] = event
        self._seq += 1
        self._arm[h] = self._seq
        heapq.heappush(self._queue, (self._now + delay, self._seq, h))

    # -- event factories ------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event triggering ``delay`` cycles in the future."""
        return Timeout(self, delay, value)

    def sleep(self, delay: float) -> "_Sleep":
        """Allocation-free ``timeout`` for the calling process.

        Arms the process's handle and pushes a bare ``(due, seq, handle)``
        triple — no :class:`Timeout`, no callbacks list, no record object.
        Only valid inside a running process (``yield env.sleep(cost)``); the
        yield resumes with ``None`` exactly like ``yield env.timeout(cost)``.
        """
        if delay < 0:
            raise SimulationError(f"negative sleep delay: {delay!r}")
        proc = self._current
        if proc is None:
            raise SimulationError("sleep() called outside a process")
        h = proc._h
        self._seq += 1
        self._arm[h] = self._seq
        heapq.heappush(self._queue, (self._now + delay, self._seq, h))
        return _SLEEP

    def sleep_at(self, due: float) -> "_Sleep":
        """:meth:`sleep` to an *absolute* due time (kernel-internal).

        Used by :meth:`repro.sched.base.Scheduler.fast_round`, which
        pre-computes the exact float due of a collapsed probe round by
        accumulating the per-probe costs in event order — re-deriving a
        delay and adding it to ``now`` would perturb the low float bits.
        """
        proc = self._current
        if proc is None:
            raise SimulationError("sleep_at() called outside a process")
        h = proc._h
        self._seq += 1
        self._arm[h] = self._seq
        heapq.heappush(self._queue, (due, self._seq, h))
        return _SLEEP

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
    def _dispatch(self, seq: int, h: int, due: float) -> None:
        """Dispatch one popped entry (the cold, shared copy of the run loop)."""
        k = self._kind[h]
        if k == K_RESUME:
            if self._arm[h] == seq:
                self._arm[h] = -1
                proc = self._obj[h]
                proc._waiting_on = None
                proc._step_send(None)
        elif k == K_EVENT:
            if self._arm[h] == seq:
                event = self._obj[h]
                self._release(h)
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
        elif k == K_SCAN:
            if self._arm[h] == seq:
                self._obj[h].step()
        elif k == K_HOP:
            if self._arm[h] == seq:
                self._obj[h]._hop(due)
        elif k == K_PROBE:
            self._obj[h]._probe_pop(seq)
        # K_FREE: a stale entry for a recycled handle — skip.

    def step(self) -> None:
        """Process the single next entry in the heap."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        due, seq, h = heapq.heappop(self._queue)
        self._now = due
        self.events_processed += 1
        self._dispatch(seq, h, due)

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

        # The hot loop below is _dispatch() inlined with the loop-invariant
        # column lookups hoisted (the columns are mutated in place by
        # _grow(), never rebound, so hoisting is safe).  Entries sharing one
        # due time drain as a batch under a single clock store: the batch is
        # discovered opportunistically after each dispatch by one peek at
        # the new heap head, so a singleton batch (the common case) pays a
        # single extra compare rather than a separate scan.
        queue = self._queue
        pop = heapq.heappop
        push = heapq.heappush
        kind = self._kind
        pstate = self._pstate
        arm = self._arm
        obj = self._obj
        free = self._free
        processed = 0
        try:
            while queue:
                if stop_event is not None and stop_event.callbacks is None:
                    # Checked before the clock advances to the next batch:
                    # an event processed at the tail of the previous batch
                    # must stop the run at that batch's time.
                    return stop_event.value
                entry = pop(queue)
                due, seq, h = entry
                if stop_time is not None and due > stop_time:
                    push(queue, entry)
                    self._now = stop_time
                    return None
                self._now = due
                while True:
                    k = kind[h]
                    processed += 1
                    if k == K_SCAN:
                        # Tested first: steal-heavy cells arm several scan
                        # steps per generator resume.
                        if arm[h] == seq:
                            obj[h].step()
                    elif k == K_RESUME:
                        if arm[h] == seq:
                            arm[h] = -1
                            proc = obj[h]
                            proc._waiting_on = None
                            proc._step_send(None)
                    elif k == K_EVENT:
                        if arm[h] == seq:
                            event = obj[h]
                            kind[h] = K_FREE
                            obj[h] = None
                            arm[h] = -1
                            free.append(h)
                            callbacks = event.callbacks
                            event.callbacks = None
                            for callback in callbacks:
                                callback(event)
                    elif k == K_HOP:
                        if arm[h] == seq:
                            st = pstate[h]
                            if st == PARK_WAKING:
                                # Hop 2: the legacy composite's own pop.
                                pstate[h] = PARK_RESUMING
                                self._seq += 1
                                arm[h] = self._seq
                                push(queue, (due, self._seq, h))
                            elif st == PARK_RESUMING:
                                pstate[h] = PARK_IDLE
                                arm[h] = -1
                                rec = obj[h]
                                cause = _CAUSES[self._pcause[h]]
                                owner = rec.scan_owner
                                if owner is not None:
                                    owner.on_wake(cause)
                                else:
                                    proc = rec.process
                                    proc._waiting_on = None
                                    proc._step_send(cause)
                    elif k == K_PROBE:
                        obj[h]._probe_pop(seq)
                    # K_FREE: stale entry for a recycled handle — skip.
                    if not queue or queue[0][0] != due:
                        break
                    if stop_event is not None and stop_event.callbacks is None:
                        return stop_event.value
                    _d, seq, h = pop(queue)
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


class ParkRecord(object):
    """A worker's reusable, cancellable idle park (column-backed).

    Replaces the per-round ``AnyOf([gate.wait(), work_event, timeout,
    surplus_event])``: wake sources (:meth:`~repro.runtime.place.Place.
    notify_work`, the status board, the termination gate, the backoff
    deadline) call :meth:`_fire` with a cause, and the worker's generator
    receives that cause from ``yield park``.

    The record owns two handles: ``_h`` (kind ``K_HOP``) indexes the park
    state and wake cause in the environment's ``_pstate`` / ``_pcause``
    columns and carries the two-hop wake entries, ``_hp`` (kind
    ``K_PROBE``) carries the backoff-deadline probe.  Waking preserves the
    legacy two-hop heap structure — hop 1 stands in for the fired child
    event's pop, hop 2 for the composite's — so any event scheduled between
    those pops keeps its relative order.  Losers of a same-timestamp race
    are skipped by the state/arm guards precisely where the legacy kernel
    popped their no-op ``succeed``.
    """

    __slots__ = ("env", "process", "round", "scan_owner", "_h", "_hp",
                 "_deadline", "_deadline_seq", "_dues")

    def __init__(self, env: Environment, process: "Process") -> None:
        self.env = env
        self.process = process
        #: When a kernel-resident idle loop owns this park (tail-less
        #: schedulers), wake causes are delivered to
        #: ``scan_owner.on_wake(cause)`` instead of resuming the worker's
        #: generator — the round restarts entirely inside the kernel.
        self.scan_owner = None
        #: Monotone park-round counter; waiter-list entries carry the round
        #: they were registered for, so entries from earlier rounds are
        #: recognizably stale without being unlinked.
        self.round = 0
        self._deadline = 0.0
        self._deadline_seq = -1
        #: Due times of this worker's outstanding probe heap entries
        #: (a tiny min-heap, usually length 1).
        self._dues: List[float] = []
        h = self._h = env._alloc()
        env._kind[h] = K_HOP
        env._obj[h] = self
        env._pstate[h] = PARK_IDLE
        env._pcause[h] = 0
        hp = self._hp = env._alloc()
        env._kind[hp] = K_PROBE
        env._obj[hp] = self

    @property
    def state(self) -> int:
        """Current park state (reads the ``_pstate`` column)."""
        return self.env._pstate[self._h]

    @property
    def cause(self) -> Any:
        """Wake cause of the current round (reads the ``_pcause`` column)."""
        return _CAUSES[self.env._pcause[self._h]]

    def begin(self, delay: float, gate_open: bool) -> "ParkRecord":
        """Arm the park for one idle round; yield ``self`` afterwards.

        Sequence numbers are consumed exactly as the legacy park did: an
        already-open gate fires first (the ``gate.wait()`` of a dead
        computation succeeded before the backoff timeout was created), then
        the backoff deadline claims its number whether or not a probe entry
        is pushed for it.
        """
        self.round += 1
        env = self.env
        h = self._h
        env._pstate[h] = PARK_PARKED
        env._pcause[h] = 0
        if gate_open:
            self._fire(CAUSE_DONE)
        env._seq += 1
        due = env._now + delay
        self._deadline = due
        self._deadline_seq = env._seq
        dues = self._dues
        if not dues or dues[0] > due:
            heapq.heappush(env._queue, (due, env._seq, self._hp))
            heapq.heappush(dues, due)
        return self

    def _fire(self, cause: Any) -> None:
        """A wake source signals the parked worker (first caller wins)."""
        env = self.env
        h = self._h
        if env._pstate[h] != PARK_PARKED:
            return  # not parked, or a same-timestamp sibling already won
        env._pstate[h] = PARK_WAKING
        env._pcause[h] = _CAUSE_INDEX[cause]
        env._seq += 1
        env._arm[h] = env._seq
        heapq.heappush(env._queue, (env._now, env._seq, h))

    def _fire_timeout(self) -> None:
        """The backoff deadline fires (may override a pending wake hop)."""
        env = self.env
        h = self._h
        env._pstate[h] = PARK_RESUMING
        env._pcause[h] = 3  # CAUSE_TIMEOUT
        env._seq += 1
        env._arm[h] = env._seq
        heapq.heappush(env._queue, (env._now, env._seq, h))

    def cancel(self) -> None:
        """Detach from the current round (the worker was interrupted)."""
        env = self.env
        h = self._h
        env._pstate[h] = PARK_IDLE
        env._pcause[h] = 0
        env._arm[h] = -1

    # -- kernel callbacks -----------------------------------------------------
    def _hop(self, due: float) -> None:
        """An armed wake-hop entry popped (cold path; run() inlines this)."""
        env = self.env
        h = self._h
        st = env._pstate[h]
        if st == PARK_WAKING:
            env._pstate[h] = PARK_RESUMING
            env._seq += 1
            env._arm[h] = env._seq
            heapq.heappush(env._queue, (due, env._seq, h))
        elif st == PARK_RESUMING:
            env._pstate[h] = PARK_IDLE
            env._arm[h] = -1
            cause = _CAUSES[env._pcause[h]]
            owner = self.scan_owner
            if owner is not None:
                owner.on_wake(cause)
            else:
                proc = self.process
                proc._waiting_on = None
                proc._step_send(cause)

    def _probe_pop(self, seq: int) -> None:
        """A probe entry popped: fire the deadline or re-arm a stale probe.

        One probe serves every park round of its worker: consecutive rounds
        whose deadline is already *covered* by an outstanding probe entry
        (``_dues``) push nothing, which is what keeps the heap O(workers)
        under idle churn.  A stale probe pop re-arms itself at the current
        deadline with the deadline's own pre-assigned sequence number, i.e.
        exactly the heap entry the legacy backoff ``Timeout`` would have
        occupied.
        """
        env = self.env
        heapq.heappop(self._dues)
        state = env._pstate[self._h]
        if seq == self._deadline_seq:
            if state == PARK_PARKED or state == PARK_WAKING:
                # The deadline may overtake a wake hop already in flight:
                # the legacy backoff Timeout (scheduled at park time, hence
                # an earlier seq) popped before the waker's child event and
                # won the AnyOf race.
                self._fire_timeout()
        elif state == PARK_PARKED or state == PARK_WAKING:
            deadline = self._deadline
            dues = self._dues
            if not dues or dues[0] > deadline:
                heapq.heappush(env._queue,
                               (deadline, self._deadline_seq, self._hp))
                heapq.heappush(dues, deadline)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = {PARK_IDLE: "idle", PARK_PARKED: "parked",
                 PARK_WAKING: "waking", PARK_RESUMING: "resuming"}
        return f"<ParkRecord {names[self.state]} round={self.round}>"


#: Kernel-armed wait targets a process may yield.
_KERNEL_WAITS = (ParkRecord, KernelRound)


class Process(Event):
    """A running simulated process wrapping a generator of events.

    A Process is itself an :class:`Event` that triggers when the generator
    returns (payload: the return value) or raises (failure).  This allows
    processes to wait for each other by yielding a Process.

    Each process owns one ``K_RESUME`` handle for its entire lifetime: the
    bootstrap entry, every :meth:`Environment.sleep`, and interrupt
    disarming all go through ``_arm[_h]``.  The handle is released when the
    generator finishes, so short-lived processes (e.g. MultiStealWS's
    concurrent take probes) recycle a small pool of handles instead of
    growing the columns.
    """

    __slots__ = ("generator", "_waiting_on", "_resume_cb", "_h", "_dirty")

    def __init__(self, env: Environment,
                 generator: Generator[Event, Any, Any]) -> None:
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError("process() requires a generator")
        self.generator = generator
        #: Set when an interrupt disarms a pending sleep entry: the stale
        #: entry still sits in the heap, so the handle must be *retired*
        #: (never recycled) at process exit — K_PROBE entries carry no arm
        #: token, so a recycled dirty handle could misroute the stale pop.
        self._dirty = False
        #: The bound resume method, allocated once instead of per event.
        self._resume_cb = self._resume
        h = self._h = env._alloc()
        env._kind[h] = K_RESUME
        env._obj[h] = self
        env._active_processes += 1
        # Kick off the process at the current simulated time.
        env._seq += 1
        env._arm[h] = env._seq
        heapq.heappush(env._queue, (env._now, env._seq, h))
        self._waiting_on: Any = _SLEEP

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
            if target is _SLEEP:
                # The pending sleep entry pops as a no-op.
                self.env._arm[self._h] = -1
                self._dirty = True
            elif isinstance(target, _KERNEL_WAITS):
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
            env._retire(self)
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
            env._retire(self)
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
            env._retire(self)
            self.succeed(stop.value)
            return
        except (KeyboardInterrupt, SystemExit):
            env._current = None
            raise
        except BaseException as raised:
            env._current = None
            env._active_processes -= 1
            env._retire(self)
            self.fail(raised)
            return
        env._current = None
        self._handle(target)

    def _handle(self, target: Any) -> None:
        """Wait on whatever the generator yielded."""
        if target is _SLEEP:
            self._waiting_on = target  # armed by env.sleep()/sleep_at()
            return
        if isinstance(target, Event):
            if target.callbacks is None:
                self.env._active_processes -= 1
                self.env._retire(self)
                self.fail(SimulationError(
                    "process yielded an already-processed event"))
                return
            self._waiting_on = target
            target.callbacks.append(self._resume_cb)
            return
        if isinstance(target, _KERNEL_WAITS):
            self._waiting_on = target  # armed by the record's begin()
            return
        self.env._active_processes -= 1
        self.env._retire(self)
        self.fail(SimulationError(
            f"process yielded {target!r}; processes must yield Events"))

