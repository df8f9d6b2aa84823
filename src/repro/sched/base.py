"""Scheduler policy interface.

A scheduler owns two decisions:

- **mapping** (:meth:`Scheduler.map_task`): which deque a freshly spawned
  task lands in (Algorithm 1 lines 1-8 for DistWS), and what that
  placement costs the spawner;
- **work finding** (Algorithm 1 lines 9-29): what an idle worker does
  after its own private deque came up empty.

Every policy's steal round opens with the same tiers — probe the home
mailbox, then steal from a co-located worker's private deque.  That
prefix has one implementation, the worker's generator
:meth:`repro.runtime.worker.Worker._steal_scan`.  What follows a
co-located miss also has one implementation,
:meth:`Scheduler.find_work_tail`: a *generator* run inside the worker's
simulated process that yields timeouts / lock acquisitions to consume
simulated time and returns the acquired
:class:`~repro.runtime.task.Task` (or ``None``).  It takes from
the local shared deque and then, for a distributed policy on more than
one place, runs the remote tier.  X10WS has no tail at all.

Policies differ only in the remote tier, and state it once through two
hooks: :meth:`Scheduler._remote_order` picks the round's victims and
:meth:`Scheduler._remote_done` books the round's outcome in the policy's
own ledger (MultiStealWS also overrides :meth:`Scheduler._steal_remote`
to keep several requests in flight).  The collapsed failed round
(:meth:`Scheduler.fast_round`) calls the same two hooks, so it cannot
drift from the per-probe round.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Generator, List, Optional, Tuple

from repro.cluster.network import MSG_STEAL_REPLY, MSG_STEAL_REQUEST, MSG_TASK_SHIP
from repro.errors import ConfigError, SchedulerError
from repro.runtime.task import Task
from repro.sched.knobs import Knob
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import SimRuntime
    from repro.runtime.worker import Worker

FindWork = Generator[Event, object, Optional[Task]]

IDLE_THRESHOLD = Knob(
    "idle_threshold", "int", default=None, lo=1, hi=64, grid=(1, 2, 4, 8),
    doc="consecutive failed steal rounds before a place turns "
        "inactive (auto: workers per place, §VI-B)")
IDLE_BACKOFF_BASE = Knob(
    "idle_backoff_base", "float", default=None, lo=50.0, hi=50_000.0,
    log=True, grid=(100.0, 400.0, 1_600.0, 6_400.0),
    doc="initial idle back-off in cycles (auto: cost model's "
        "idle_backoff)")
IDLE_BACKOFF_CAP = Knob(
    "idle_backoff_cap", "float", default=None, lo=10_000.0,
    hi=4_000_000.0, log=True, grid=(62_500.0, 500_000.0, 2_000_000.0),
    doc="cap on the doubling idle back-off (auto: cost model's "
        "max_idle_backoff)")
REMOTE_CHUNK_SIZE = Knob(
    "remote_chunk_size", "int", default=2, lo=1, hi=16, grid=(1, 2, 4, 8),
    doc="tasks taken per successful distributed steal (§V-B3)")


class StealToken:
    """First-success-wins token shared by concurrent steal attempts.

    :class:`~repro.sched.multisteal.MultiStealWS` launches several remote
    take attempts at once; the first attempt to pull a non-empty chunk
    calls :meth:`claim`, and every other attempt observes
    :meth:`cancelled` at its own take point and withdraws empty-handed.
    The check → take → claim run happens in one synchronous step of the
    single-threaded engine (no yield in between), so at most one attempt
    sharing a token ever acquires work.
    """

    __slots__ = ("claimed",)

    def __init__(self) -> None:
        self.claimed = False

    def cancelled(self) -> bool:
        return self.claimed

    def claim(self) -> None:
        self.claimed = True


class Scheduler(ABC):
    """Base class for all work-stealing policies.

    Each tunable constant of a policy is one module-level
    :class:`~repro.sched.knobs.Knob`, listed in the policy's
    :attr:`knobs`.  :meth:`__init__` is the only constructor logic for
    them, and :mod:`repro.tune` reads the same lists for its search
    spaces and ``repro list``.  A value the policy fixes (RandomWS's
    chunk of 1, LocalizedWS's random fallback order) is a plain class
    attribute, not a knob.
    """

    #: Human-readable policy name used in reports.
    name: str = "abstract"
    #: The knobs this policy accepts, in the order ``repro tune`` grids
    #: and samples them.  Every policy has the idle knobs.
    knobs: Tuple[Knob, ...] = (IDLE_THRESHOLD, IDLE_BACKOFF_BASE,
                               IDLE_BACKOFF_CAP)
    #: Tasks taken per successful *distributed* steal (§V-B3: chunk of 2),
    #: for a policy without the ``remote_chunk_size`` knob.
    remote_chunk_size: int = REMOTE_CHUNK_SIZE.default
    #: Whether the policy ever steals across places.
    distributed: bool = True

    #: Bounded retry budget per victim when fault injection is active:
    #: a steal request that times out is retried at most this many times
    #: (with exponential backoff) before the victim is blacklisted.
    steal_max_retries: int = 2

    def __init__(self, controller=None, **knobs) -> None:
        """Set each of :attr:`knobs` from ``knobs`` (validated) or its
        default, as a plain attribute; any other name is a ConfigError.

        ``None`` keeps the default: for a runtime-derived knob — one
        failed round per worker for the idle threshold, the cost model's
        idle backoff base/cap — that makes a knob-less construction
        byte-identical to the paper's rules.
        """
        names = [knob.name for knob in self.knobs]
        for key in knobs:
            if key not in names:
                raise ConfigError(
                    f"unknown knob {key!r} for scheduler {self.name!r}; "
                    f"known: {names}")
        for knob in self.knobs:
            value = knobs.get(knob.name)
            setattr(self, knob.name,
                    knob.default if value is None else knob.validate(value))
        #: Optional online feedback controller
        #: (:mod:`repro.tune.controllers`); ``None`` (the default) means
        #: no hook ever fires.
        self.controller = controller
        self.rt: Optional["SimRuntime"] = None
        #: victim place id -> simulated time its blacklist entry expires.
        self._victim_blacklist: dict[int, float] = {}
        #: victim place id -> consecutive blacklist strikes; each strike
        #: doubles the next entry's span, a successful steal resets it.
        self._victim_strikes: dict[int, int] = {}

    def bind(self, runtime: "SimRuntime") -> None:
        """Attach the policy to a runtime (called once per run)."""
        self.rt = runtime
        self._victim_blacklist = {}
        self._victim_strikes = {}
        if self.idle_threshold is not None:
            for place in runtime.places:
                place.idle_threshold = self.idle_threshold
        if self.idle_backoff_base is not None:
            runtime.idle_backoff_base = float(self.idle_backoff_base)
            for place in runtime.places:
                for w in place.workers:
                    w.reset_backoff()
        if self.idle_backoff_cap is not None:
            runtime.idle_backoff_cap = float(self.idle_backoff_cap)
        if self.controller is not None:
            self.controller.bind(runtime, self)

    # -- online-controller hooks -------------------------------------------
    def note_failed_round(self, worker: "Worker") -> None:
        """A worker's whole steal round came up empty (called by the
        worker loop, after the place's failed-steal bookkeeping)."""
        if self.controller is not None:
            self.controller.on_failed_round(worker)

    def _note_steal_result(self, worker: "Worker", hit: bool,
                           latency: float, tasks: int) -> None:
        if self.controller is not None:
            self.controller.on_steal_result(worker, hit, latency, tasks)

    def _bound_runtime(self) -> "SimRuntime":
        """The bound runtime, or a clear error before :meth:`bind`."""
        if self.rt is None:
            raise SchedulerError("scheduler not bound")
        return self.rt

    # -- mapping -----------------------------------------------------------
    @abstractmethod
    def map_task(self, task: Task, from_worker: "Worker | None" = None) -> float:
        """Push ``task`` onto a deque at its home place; return the cycles
        the spawning worker pays for that placement.

        ``from_worker`` is the spawning worker, when the spawn happens
        inside a running activity; help-first mapping pushes same-place
        children onto the spawner's own deque so peers must *steal* them.
        The cost is the placement actually made, so a task the fault
        injector re-homed is priced where it lands.
        """

    def _push_shared(self, task: Task) -> None:
        """Push onto the home place's shared deque and advertise surplus."""
        place = self.rt.places[task.home_place]
        place.shared.push(task)
        self.rt.board.advertise(place.place_id)

    def park_board(self) -> "object | None":
        """Status board a parking worker should watch, or ``None``.

        Distributed policies that consult the status board register the
        worker's park record with it so a starving worker wakes as soon
        as any place advertises stealable work.
        """
        if self.distributed and self.uses_status_board:
            return self.rt.board
        return None

    #: Whether the policy consults the status board before sending steal
    #: requests (DistWS family: yes; blind random / lifeline: no).
    uses_status_board: bool = True

    #: Whether the policy *guarantees* that locality-sensitive tasks
    #: execute at their home place (§X-A).  When True, the worker enforces
    #: the guarantee at execution time — any violation is a scheduler bug
    #: and aborts the run.  The non-selective control sets this False.
    enforces_locality: bool = True

    def _push_private(self, task: Task,
                      from_worker: "Worker | None" = None) -> None:
        """Default private-deque placement (help-first).

        A locally spawned task goes onto the spawning worker's own deque;
        a task arriving from elsewhere (root spawn, cross-place async)
        goes to the place's chosen private deque.
        """
        place = self.rt.places[task.home_place]
        if (from_worker is not None
                and from_worker.place.place_id == task.home_place):
            from_worker.deque.push(task)
        else:
            place.pick_private_deque().push(task)

    # -- work finding ------------------------------------------------------------
    def find_work_tail(self, worker: "Worker") -> FindWork:
        """Algorithm 1's tiers after a co-located miss (lines 17-29).

        The local shared deque, then — for a distributed policy on more
        than one place — the remote tier: :meth:`_remote_order`, the
        steal, :meth:`_remote_done`.  The universal prefix (mailbox
        probe, co-located steal) is the worker's own generator,
        :meth:`~repro.runtime.worker.Worker._steal_scan`, which runs
        first.  A policy without these tiers sets
        ``find_work_tail = None`` (X10WS): its co-located miss is a
        failed round.
        """
        task = yield from self._steal_local_shared(worker)
        if (task is not None or not self.distributed
                or self.rt.spec.n_places <= 1):
            return task
        order = self._remote_order(worker, self.rt.env.now)
        task = yield from self._steal_remote(worker, order)
        self._remote_done(worker, task)
        return task

    def _remote_order(self, worker: "Worker", t: float) -> List[int]:
        """The remote victims this round visits, in visiting order.

        ``t`` is when the remote tier opens: ``env.now`` in the per-probe
        round, the round's end time in a collapsed one (the same instant).
        An event the choice emits is stamped ``t``.  The default visits
        every other place in a per-worker random order.
        """
        return self._random_place_order(worker)

    def _remote_done(self, worker: "Worker", task: Optional[Task]) -> None:
        """The remote tier ended with ``task`` (``None``: every victim
        missed or was skipped).  The default keeps no ledger."""

    # -- shared steal tiers -------------------------------------------------------
    def _probe_mailbox(self, worker: "Worker") -> Optional[Task]:
        """Tier 0 re-probe: take a task shipped to this place meanwhile.

        The round's opening probe is the worker's
        (:meth:`~repro.runtime.worker.Worker._steal_scan`); the remote
        tier re-probes here between victims (§V-B2).
        """
        task = worker.place.mailbox.try_get()
        if task is not None:
            self.rt.stats.steals.mailbox_hits += 1
            obs = self.rt.obs
            if obs is not None and not obs.tally("mailbox_get",
                                                 self.rt.env.now):
                obs.emit_at(self.rt.env.now, "mailbox_get", {
                    "place": worker.place.place_id,
                    "worker": worker.worker_index, "task": task.task_id})
        return task  # type: ignore[return-value]

    def _steal_local_shared(self, worker: "Worker") -> FindWork:
        """Tier 2: take the oldest task from the place's own shared deque."""
        rt = self.rt
        env = rt.env
        shared = worker.place.shared
        rt.stats.steals.shared_local_attempts += 1
        obs = rt.obs
        if obs is not None and not obs.tally("steal_attempt", env.now):
            obs.emit_at(env.now, "steal_attempt", {
                "tier": "shared", "place": worker.place.place_id,
                "worker": worker.worker_index,
                "victim": worker.place.place_id})
        yield shared.lock.acquire()
        try:
            yield env.sleep(rt.costs.shared_deque_op)
            worker.charge_overhead(rt.costs.shared_deque_op)
            task = shared.take_oldest(remote=False)
            if len(shared) == 0:
                rt.board.retract(shared.place_id)
        finally:
            shared.lock.release()
        if task is not None:
            rt.stats.steals.shared_local_hits += 1
            if obs is not None and not obs.tally("steal_hit", env.now):
                obs.emit_at(env.now, "steal_hit", {
                    "tier": "shared", "place": worker.place.place_id,
                    "worker": worker.worker_index,
                    "victim": worker.place.place_id, "tasks": 1})
        return task

    def _steal_remote(self, worker: "Worker",
                      victim_order: List[int]) -> FindWork:
        """Tier 3: distributed steal from remote shared deques.

        Visits victims in ``victim_order``; between attempts, re-probes the
        home mailbox ("In case of a failed distributed steal, the thief
        first probes the network to see if any remote task has spawned
        tasks at its home place", §V-B2).  A hit takes a chunk of
        :attr:`remote_chunk_size` tasks: the first is returned, the rest
        are deposited in the home place's mailbox for peer workers.
        """
        rt = self.rt
        home = worker.place
        for pj in victim_order:
            if pj == home.place_id:
                raise SchedulerError("remote steal targeting own place")
            task = self._probe_mailbox(worker)
            if task is not None:
                return task
            if self._victim_blacklist and self._victim_blacklisted(pj):
                # Recently unresponsive (crashed or lossy): skip until the
                # blacklist entry decays.  Only fault plans blacklist.
                continue
            if self.uses_status_board and not rt.board.has_surplus(pj):
                # The §VI-B status object says the place has nothing to
                # steal: skip it without spending a round trip.
                continue
            task = yield from self._attempt_remote_steal(worker, pj)
            if task is not None:
                return task
        return None

    def _chunk_request(self, shared) -> int:
        """How many tasks one distributed steal asks the victim for.

        Called at the take point, with the victim's shared deque locked,
        so steal-half policies can size the request against the deque's
        instantaneous length.  The default is the fixed paper chunk.
        """
        return self.remote_chunk_size

    def _take_locked(self, worker: "Worker", victim,
                     cancel: Optional[StealToken]):
        """Take a chunk under the victim's (held) shared-deque lock.

        Returns ``(chunk, cancelled)``.  With a :class:`StealToken`, the
        cancellation check, the take, and the claim form one synchronous
        step, so concurrent attempts sharing the token can never
        double-claim: the winner claims before any sibling's check runs.
        The winner also parks the chunk on ``worker.pending_chunk``
        immediately so a crash of the thief's place between the take and
        the ship relocates the tasks instead of losing them.
        """
        rt = self.rt
        if cancel is not None and (cancel.cancelled() or worker.place.dead):
            return [], True
        chunk = victim.shared.take_chunk(
            self._chunk_request(victim.shared), remote=True)
        if chunk and cancel is not None:
            cancel.claim()
            worker.pending_chunk = chunk
        if len(victim.shared) == 0:
            rt.board.retract(victim.place_id)
        return chunk, False

    def _emit_cancel(self, worker: "Worker", pj: int) -> None:
        obs = self.rt.obs
        if obs is not None and not obs.tally("steal_cancel", self.rt.env.now):
            obs.emit_at(self.rt.env.now, "steal_cancel", {
                "place": worker.place.place_id,
                "worker": worker.worker_index, "victim": pj})

    def _attempt_remote_steal(self, worker: "Worker", pj: int,
                              cancel: Optional[StealToken] = None) -> FindWork:
        """One distributed steal attempt on victim ``pj``."""
        got = yield from self._remote_take(worker, pj, cancel)
        if got is None:
            return None
        chunk, request_time = got
        task = yield from self._ship_chunk_home(worker, pj, chunk,
                                                request_time=request_time)
        return task

    def _remote_take(self, worker: "Worker", pj: int,
                     cancel: Optional[StealToken] = None) -> FindWork:
        """Request/lock/take phase of a distributed steal.

        Returns ``(chunk, request_time)`` on a hit, ``None`` on a miss or
        cancellation; shipping the chunk home is the caller's job, so
        multi-steal helpers can run several takes concurrently while the
        thief itself performs the single ship.

        The request and an empty reply travel unreliably
        (:meth:`~repro.cluster.network.Network.send_unreliable`, which
        always delivers when no fault plan is attached).  Under a fault
        plan a drop (or a crashed victim) costs the thief a
        ``steal_timeout`` wait, then a bounded number of retries with
        exponential backoff; a victim that stays unresponsive is
        blacklisted (``victim_blacklist_cycles``, doubling per
        consecutive strike) so later rounds skip it until the entry
        decays, and a successful steal resets the strikes.  The
        cancellation token is re-checked before every (re)send so a
        losing multi-steal helper stops burning retries once a sibling
        has claimed work.
        """
        rt = self.rt
        env = rt.env
        costs = rt.costs
        st = rt.stats.steals
        obs = rt.obs
        faults = rt.faults
        home = worker.place
        victim = rt.places[pj]
        retries = 0
        backoff = costs.steal_retry_backoff
        request_time: Optional[float] = None
        while True:
            if cancel is not None and (cancel.cancelled()
                                       or worker.place.dead):
                self._emit_cancel(worker, pj)
                return None
            if faults is not None and faults.is_dead(pj):
                self._blacklist_victim(pj)
                if (obs is not None and request_time is not None
                        and not obs.tally("steal_miss", env.now)):
                    obs.emit_at(env.now, "steal_miss", {
                        "place": home.place_id,
                        "worker": worker.worker_index, "victim": pj})
                self._note_steal_result(
                    worker, False,
                    env.now - request_time if request_time is not None
                    else 0.0, 0)
                return None
            st.remote_attempts += 1
            if request_time is None:
                request_time = env.now
            if obs is not None and not obs.tally("steal_request", env.now):
                obs.emit_at(env.now, "steal_request", {
                    "place": home.place_id, "worker": worker.worker_index,
                    "victim": pj})
            latency, delivered = rt.network.send_unreliable(
                home.place_id, pj, 64, MSG_STEAL_REQUEST)
            if delivered:
                yield env.sleep(latency)
                break
            # The request vanished (dropped en route, or the victim died
            # under it): wait out the timeout, then back off and retry.
            yield env.sleep(costs.steal_timeout)
            faults.stats.steal_timeouts += 1
            if retries >= self.steal_max_retries:
                self._blacklist_victim(pj)
                if obs is not None and not obs.tally("steal_miss", env.now):
                    obs.emit_at(env.now, "steal_miss", {
                        "place": home.place_id,
                        "worker": worker.worker_index, "victim": pj})
                self._note_steal_result(worker, False,
                                        env.now - request_time, 0)
                return None
            retries += 1
            faults.stats.steal_retries += 1
            faults.stats.backoff_cycles += backoff
            yield env.sleep(backoff)
            backoff *= 2
        yield victim.shared.lock.acquire()
        try:
            yield env.sleep(costs.remote_steal_service)
            worker.charge_overhead(costs.remote_steal_service)
            # A victim that crashed while the request was in flight has
            # had its deques drained; the chunk simply comes up empty.
            chunk, cancelled = self._take_locked(worker, victim, cancel)
        finally:
            victim.shared.lock.release()
        if cancelled:
            self._emit_cancel(worker, pj)
            return None
        if not chunk:
            latency, delivered = rt.network.send_unreliable(
                pj, home.place_id, 64, MSG_STEAL_REPLY)
            if delivered:
                yield env.sleep(latency)
            else:
                # The empty reply was lost; the thief learns nothing and
                # pays the timeout before moving on.
                yield env.sleep(costs.steal_timeout)
                faults.stats.steal_timeouts += 1
            if obs is not None and not obs.tally("steal_miss", env.now):
                obs.emit_at(env.now, "steal_miss", {
                    "place": home.place_id, "worker": worker.worker_index,
                    "victim": pj})
            self._note_steal_result(worker, False,
                                    env.now - request_time, 0)
            return None
        self._note_steal_success(pj)
        return chunk, request_time

    def _ship_chunk_home(self, worker: "Worker", pj: int,
                         chunk: List[Task],
                         request_time: Optional[float] = None) -> FindWork:
        """Ship a stolen chunk to the thief's place; first task returned.

        Uses the reliable transport even under fault injection: the
        destination is the thief's own (live) place, so a dropped ship is
        transparently retransmitted rather than losing the closure.

        While the ship is in flight the tasks live nowhere the fault
        injector can see (they left the victim's deque, are not yet in
        the home mailbox, and are nobody's ``current_task``), so the
        chunk is parked on ``worker.pending_chunk``: a crash of the
        thief's place mid-transfer relocates it like any queued work.
        The hand-off out of ``pending_chunk`` is synchronous — the
        mailbox deposit happens in the same step, and the first task
        becomes the worker's ``current_task`` before its next yield.
        """
        rt = self.rt
        env = rt.env
        costs = rt.costs
        st = rt.stats.steals
        home = worker.place
        st.remote_hits += 1
        st.remote_tasks_received += len(chunk)
        worker.pending_chunk = chunk
        # Ship each stolen closure home (closure creation + transfer).
        delay = 0.0
        for t in chunk:
            delay += costs.closure_create
            worker.charge_overhead(costs.closure_create)
            delay += rt.network.send(
                pj, home.place_id, t.closure_bytes, MSG_TASK_SHIP)
        yield env.sleep(delay)
        worker.pending_chunk = []
        obs = rt.obs
        t0 = request_time if request_time is not None else env.now
        if obs is not None and not obs.tally("chunk_arrive", env.now):
            obs.emit_at(env.now, "chunk_arrive", {
                "place": home.place_id, "worker": worker.worker_index,
                "victim": pj, "tasks": len(chunk), "latency": env.now - t0})
        self._note_steal_result(worker, True, env.now - t0, len(chunk))
        first, rest = chunk[0], chunk[1:]
        for t in rest:
            home.mailbox.put(t)
            if obs is not None and not obs.tally("mailbox_put", env.now):
                obs.emit_at(env.now, "mailbox_put", {
                    "place": home.place_id, "task": t.task_id})
        if rest:
            home.notify_work()
        return first

    # -- victim blacklist (fault injection) ---------------------------------
    def _victim_blacklisted(self, pj: int) -> bool:
        """Whether ``pj`` is currently blacklisted (entry decays with time)."""
        expiry = self._victim_blacklist.get(pj)
        if expiry is None:
            return False
        if self.rt.env.now >= expiry:
            del self._victim_blacklist[pj]
            return False
        return True

    def _blacklist_victim(self, pj: int) -> None:
        """Blacklist ``pj``, doubling the span per consecutive strike.

        The first strike lasts ``victim_blacklist_cycles``; every further
        strike without an intervening successful steal doubles the span
        (capped), so a dead place is probed geometrically less often.
        :meth:`_note_steal_success` resets the strike count.
        """
        rt = self.rt
        strikes = self._victim_strikes.get(pj, 0)
        span = rt.costs.victim_blacklist_cycles * (2 ** min(strikes, 16))
        self._victim_blacklist[pj] = rt.env.now + span
        self._victim_strikes[pj] = strikes + 1
        rt.faults.stats.blacklists += 1

    def _note_steal_success(self, pj: int) -> None:
        """A steal from ``pj`` succeeded: clear its strike history."""
        self._victim_strikes.pop(pj, None)

    # -- collapsed failed round (fast path) ----------------------------------
    def _fast_remote_ok(self, worker: "Worker") -> bool:
        """Whether this round's remote tier is provably a no-op.

        The per-probe tier skips a victim that is blacklisted or has no
        surplus; any surplus elsewhere refuses the collapse, blacklisted
        victim or not, so an all-skip tier never depends on the blacklist.
        """
        rt = self.rt
        if not self.distributed or rt.spec.n_places <= 1:
            return True
        if not self.uses_status_board:
            # Blind policies (random victims, lifelines) send real steal
            # traffic regardless of surplus: never collapsible.
            return False
        return not rt.board.has_surplus_other(worker.place.place_id)

    def fast_round(self, worker: "Worker"):
        """Collapse one provably-failed steal round into a single sleep.

        Called by the worker loop *instead of* the round prefix
        (:meth:`~repro.runtime.worker.Worker._steal_scan`) +
        :meth:`find_work_tail`, for every policy.  When every tier is empty
        and no other heap entry comes due before the round would end, the
        round is a fixed script — a known sequence of sleeps, counter
        bumps, and RNG draws whose outcome is already determined — so this
        method commits those side effects synchronously and returns the
        round's end time for one ``sleep_at``.  Returns ``None`` when the
        round might find work or interleave with any other process; the
        caller then runs the exact per-probe round.

        The commit must replicate *every* observable side effect in the
        per-probe order: simulated-time float adds, overhead-cycle adds,
        steal-stat counters, the uncontended shared-lock acquire, the
        board retract, victim-RNG draws, and the engine's seq/event
        accounting.  The golden differential suite is the proof.

        With an observer attached, the commit then replays the round's
        events with the stamps the per-probe round would give them: one
        ``steal_attempt`` (``tier="local"``) per co-located probe in the
        drawn victim order, then one ``tier="shared"`` attempt when the
        policy has that tier (when its ``find_work_tail`` is not
        ``None``).  One
        :meth:`~repro.obs.bus.EventBus.tally` counts those attempts
        instead when they are count-only (no sink reads the kind and no
        sample falls due by the last one).
        An all-skip remote tier is committed last, by the hooks
        :meth:`find_work_tail` runs — :meth:`_remote_order` at the
        round's end time, then :meth:`_remote_done` with no task — so
        its RNG draws, ledger updates and events (LocalizedWS's
        ``radius_fallback``) are the per-probe round's own.  The
        quiescence guard means no other process runs inside the window,
        so the stream order is unchanged and a ``sample`` a replayed
        event triggers reads the same queue depths.
        """
        place = worker.place
        if worker.deque._items or place.mailbox._items:
            return None
        rt = self.rt
        env = rt.env
        costs = rt.costs
        peers = worker.steal_peers
        n = len(peers)
        # The round's timeline, float-added in the per-probe sleep order.
        t = env._now + costs.private_deque_op
        la = costs.local_steal_attempt
        for _ in range(n):
            t = t + la
        shared_tier = self.find_work_tail is not None
        if shared_tier:
            t = t + costs.shared_deque_op
        if env.peek() <= t:
            # Something else dispatches before the round would end (work
            # arriving, a peer's probe, the stop event): no collapse.
            return None
        for p in peers:
            if p.deque._items:
                return None
        if shared_tier:
            shared = place.shared
            if shared._items or shared.lock._locked or shared.lock._waiters:
                return None
        if not self._fast_remote_ok(worker):
            return None
        # -- commit ---------------------------------------------------------
        order = worker.victims_rng.permutation(n)
        st = rt.stats.steals
        st.local_attempts += n
        oc = worker.overhead_cycles + costs.private_deque_op
        for _ in range(n):
            oc = oc + la
        n_seq = n + 1  # the deque-op sleep + one sleep per co-located probe
        if shared_tier:
            st.shared_local_attempts += 1
            shared.lock.total_acquires += 1
            oc = oc + costs.shared_deque_op
            rt.board.retract(place.place_id)
            n_seq += 2  # the uncontended lock-acquire event + the op sleep
        worker.overhead_cycles = oc
        # The caller issues one sleep_at(t) — one push, one dispatch — in
        # place of the round's n_seq entries: account for the rest here.
        env._seq += n_seq - 1
        env.events_processed += n_seq - 1
        obs = rt.obs
        if obs is not None and (n or shared_tier):
            pid = place.place_id
            wi = worker.worker_index
            stamp = env._now + costs.private_deque_op
            # The last attempt's stamp, by the replay's own float adds.
            last = stamp
            for _ in range(n - 1 + shared_tier):
                last = last + la
            if not obs.tally("steal_attempt", last, n + shared_tier):
                for k in order.tolist():
                    obs.emit_at(stamp, "steal_attempt",
                                {"tier": "local", "place": pid, "worker": wi,
                                 "victim": peers[k].worker_index})
                    stamp = stamp + la
                if shared_tier:
                    obs.emit_at(stamp, "steal_attempt",
                                {"tier": "shared", "place": pid, "worker": wi,
                                 "victim": pid})
        if self.distributed and rt.spec.n_places > 1:
            self._remote_order(worker, t)
            self._remote_done(worker, None)
        return t

    # -- victim orders ---------------------------------------------------------
    def _random_place_order(self, worker: "Worker") -> List[int]:
        """All other places in a per-worker random order."""
        others = worker.other_places
        if others is None:
            others = worker.other_places = [
                p for p in range(self.rt.spec.n_places)
                if p != worker.place.place_id]
        rng = worker.place_victims_rng
        if rng is None:
            rng = worker.place_victims_rng = self.rt.rngs.stream(
                "place-victims", *worker.wid)
        return [others[int(i)] for i in rng.permutation(len(others))]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Scheduler {self.name}>"
