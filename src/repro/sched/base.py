"""Scheduler policy interface.

A scheduler owns two decisions:

- **mapping** (:meth:`Scheduler.map_task`): which deque a freshly spawned
  task lands in (Algorithm 1 lines 1-8 for DistWS);
- **work finding** (Algorithm 1 lines 9-29): what an idle worker does
  after its own private deque came up empty.

Every policy's steal round opens with the same tiers — probe the home
mailbox, then steal from a co-located worker's private deque.  That
prefix has one implementation, the worker's kernel-resident scan
(:class:`repro.runtime.worker._StealScan`).  What follows a co-located
miss is the policy's :attr:`Scheduler.find_work_tail`: a *generator* run
inside the worker's simulated process that yields timeouts / lock
acquisitions to consume simulated time and returns the acquired
:class:`~repro.runtime.task.Task` (or ``None``).

The shared machinery for the later steal tiers (local shared deque,
remote shared deques, the mailbox re-probe between remote victims) lives
here so concrete policies compose the tiers rather than re-implement
them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Generator, List, Optional

from repro.cluster.network import MSG_STEAL_REPLY, MSG_STEAL_REQUEST, MSG_TASK_SHIP
from repro.errors import SchedulerError
from repro.runtime.task import Task
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import SimRuntime
    from repro.runtime.worker import Worker

FindWork = Generator[Event, object, Optional[Task]]


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
    """Base class for all work-stealing policies."""

    #: Human-readable policy name used in reports.
    name: str = "abstract"
    #: Tasks taken per successful *distributed* steal (§V-B3: chunk of 2).
    remote_chunk_size: int = 2
    #: Whether the policy ever steals across places.
    distributed: bool = True

    #: Bounded retry budget per victim when fault injection is active:
    #: a steal request that times out is retried at most this many times
    #: (with exponential backoff) before the victim is blacklisted.
    steal_max_retries: int = 2

    def __init__(self, remote_chunk_size: Optional[int] = None,
                 idle_threshold: Optional[int] = None,
                 idle_backoff_base: Optional[float] = None,
                 idle_backoff_cap: Optional[float] = None,
                 controller=None) -> None:
        if remote_chunk_size is not None:
            self.remote_chunk_size = int(remote_chunk_size)
        #: Tunable overrides (``repro.tune`` knobs); ``None`` keeps each
        #: runtime-derived default — one failed round per worker for the
        #: idle threshold, the cost model's idle backoff base/cap — so a
        #: knob-less construction is byte-identical to the paper's rules.
        self.idle_threshold = idle_threshold
        self.idle_backoff_base = idle_backoff_base
        self.idle_backoff_cap = idle_backoff_cap
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
    def map_task(self, task: Task, from_worker: "Worker | None" = None) -> None:
        """Push ``task`` onto a deque at its home place.

        ``from_worker`` is the spawning worker, when the spawn happens
        inside a running activity; help-first mapping pushes same-place
        children onto the spawner's own deque so peers must *steal* them.
        """

    def mapping_cost(self, task: Task) -> float:
        """Cycles the spawning worker pays to map one child task."""
        return self._bound_runtime().costs.private_deque_op

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
    #: Policy-specific continuation of the steal round after the
    #: universal tiers (mailbox probe, co-located steal) have missed: a
    #: generator method, or ``None`` when the policy has no further tiers
    #: (X10WS).  The universal prefix runs kernel-resident in the
    #: worker's :class:`~repro.runtime.worker._StealScan`; a ``None`` tail
    #: lets the whole idle cycle stay in the kernel.
    find_work_tail = None

    # -- shared steal tiers -------------------------------------------------------
    def _probe_mailbox(self, worker: "Worker") -> Optional[Task]:
        """Tier 0 re-probe: take a task shipped to this place meanwhile.

        The round's opening probe runs in the worker's steal scan; the
        remote tiers re-probe here between victims (§V-B2).
        """
        task = worker.place.mailbox.try_get()
        if task is not None:
            self.rt.stats.steals.mailbox_hits += 1
            if self.rt.obs is not None:
                self.rt.obs.emit("mailbox_get",
                                 place=worker.place.place_id,
                                 worker=worker.worker_index,
                                 task=task.task_id)
        return task  # type: ignore[return-value]

    def _steal_local_shared(self, worker: "Worker") -> FindWork:
        """Tier 2: take the oldest task from the place's own shared deque."""
        rt = self.rt
        env = rt.env
        shared = worker.place.shared
        rt.stats.steals.shared_local_attempts += 1
        if rt.obs is not None:
            rt.obs.emit("steal_attempt", tier="shared",
                        place=worker.place.place_id,
                        worker=worker.worker_index,
                        victim=worker.place.place_id)
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
            if rt.obs is not None:
                rt.obs.emit("steal_hit", tier="shared",
                            place=worker.place.place_id,
                            worker=worker.worker_index,
                            victim=worker.place.place_id, tasks=1)
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
        faulty = rt.faults is not None
        for pj in victim_order:
            if pj == home.place_id:
                raise SchedulerError("remote steal targeting own place")
            task = self._probe_mailbox(worker)
            if task is not None:
                return task
            if faulty and self._victim_blacklisted(pj):
                # Recently unresponsive (crashed or lossy): skip until the
                # blacklist entry decays.
                continue
            if self.uses_status_board and not rt.board.has_surplus(pj):
                # The §VI-B status object says the place has nothing to
                # steal: skip it without spending a round trip.
                continue
            if faulty:
                task = yield from self._attempt_remote_steal_faulty(
                    worker, pj)
            else:
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
        if self.rt.obs is not None:
            self.rt.obs.emit("steal_cancel", place=worker.place.place_id,
                             worker=worker.worker_index, victim=pj)

    def _attempt_remote_steal(self, worker: "Worker", pj: int,
                              cancel: Optional[StealToken] = None) -> FindWork:
        """One distributed steal attempt on victim ``pj`` (reliable net)."""
        got = yield from self._remote_take(worker, pj, cancel)
        if got is None:
            return None
        chunk, request_time = got
        task = yield from self._ship_chunk_home(worker, pj, chunk,
                                                request_time=request_time)
        return task

    def _remote_take(self, worker: "Worker", pj: int,
                     cancel: Optional[StealToken] = None) -> FindWork:
        """Request/lock/take phase of a reliable-network distributed steal.

        Returns ``(chunk, request_time)`` on a hit, ``None`` on a miss or
        cancellation; shipping the chunk home is the caller's job, so
        multi-steal helpers can run several takes concurrently while the
        thief itself performs the single ship.
        """
        rt = self.rt
        env = rt.env
        costs = rt.costs
        st = rt.stats.steals
        obs = rt.obs
        home = worker.place
        victim = rt.places[pj]
        st.remote_attempts += 1
        request_time = env.now
        if obs is not None:
            obs.emit("steal_request", place=home.place_id,
                     worker=worker.worker_index, victim=pj)
        # Request message travels to the victim...
        yield env.sleep(rt.network.send(
            home.place_id, pj, 64, MSG_STEAL_REQUEST))
        # ...the thief locks the victim's shared deque remotely...
        yield victim.shared.lock.acquire()
        try:
            yield env.sleep(costs.remote_steal_service)
            worker.charge_overhead(costs.remote_steal_service)
            chunk, cancelled = self._take_locked(worker, victim, cancel)
        finally:
            victim.shared.lock.release()
        if cancelled:
            self._emit_cancel(worker, pj)
            return None
        if not chunk:
            yield env.sleep(rt.network.send(
                pj, home.place_id, 64, MSG_STEAL_REPLY))
            if obs is not None:
                obs.emit("steal_miss", place=home.place_id,
                         worker=worker.worker_index, victim=pj)
            self._note_steal_result(worker, False,
                                    env.now - request_time, 0)
            return None
        return chunk, request_time

    def _attempt_remote_steal_faulty(self, worker: "Worker", pj: int,
                                     cancel: Optional[StealToken] = None,
                                     ) -> FindWork:
        """One distributed steal attempt under fault injection.

        The request travels unreliably: a drop (or a crashed victim)
        costs the thief a ``steal_timeout`` wait, then a bounded number
        of retries with exponential backoff.  A victim that stays
        unresponsive is blacklisted (``victim_blacklist_cycles``,
        doubling per consecutive strike) so subsequent rounds skip it
        until the entry decays; a successful steal resets the strikes.
        """
        got = yield from self._remote_take_faulty(worker, pj, cancel)
        if got is None:
            return None
        chunk, request_time = got
        task = yield from self._ship_chunk_home(worker, pj, chunk,
                                                request_time=request_time)
        return task

    def _remote_take_faulty(self, worker: "Worker", pj: int,
                            cancel: Optional[StealToken] = None) -> FindWork:
        """Request/retry/take phase of a steal under fault injection.

        Same contract as :meth:`_remote_take`; additionally re-checks the
        cancellation token before every (re)send so a losing multi-steal
        helper stops burning retries once a sibling has claimed work.
        """
        rt = self.rt
        env = rt.env
        costs = rt.costs
        st = rt.stats.steals
        obs = rt.obs
        fstats = rt.faults.stats
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
            if rt.faults.is_dead(pj):
                self._blacklist_victim(pj)
                if obs is not None and request_time is not None:
                    obs.emit("steal_miss", place=home.place_id,
                             worker=worker.worker_index, victim=pj)
                self._note_steal_result(
                    worker, False,
                    env.now - request_time if request_time is not None
                    else 0.0, 0)
                return None
            st.remote_attempts += 1
            if request_time is None:
                request_time = env.now
            if obs is not None:
                obs.emit("steal_request", place=home.place_id,
                         worker=worker.worker_index, victim=pj)
            latency, delivered = rt.network.send_unreliable(
                home.place_id, pj, 64, MSG_STEAL_REQUEST)
            if delivered:
                yield env.sleep(latency)
                break
            # The request vanished (dropped en route, or the victim died
            # under it): wait out the timeout, then back off and retry.
            yield env.sleep(costs.steal_timeout)
            fstats.steal_timeouts += 1
            if retries >= self.steal_max_retries:
                self._blacklist_victim(pj)
                if obs is not None:
                    obs.emit("steal_miss", place=home.place_id,
                             worker=worker.worker_index, victim=pj)
                self._note_steal_result(worker, False,
                                        env.now - request_time, 0)
                return None
            retries += 1
            fstats.steal_retries += 1
            fstats.backoff_cycles += backoff
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
                fstats.steal_timeouts += 1
            if obs is not None:
                obs.emit("steal_miss", place=home.place_id,
                         worker=worker.worker_index, victim=pj)
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
        if obs is not None:
            obs.emit("chunk_arrive", place=home.place_id,
                     worker=worker.worker_index, victim=pj,
                     tasks=len(chunk), latency=env.now - t0)
        self._note_steal_result(worker, True, env.now - t0, len(chunk))
        first, rest = chunk[0], chunk[1:]
        for t in rest:
            home.mailbox.put(t)
            if obs is not None:
                obs.emit("mailbox_put", place=home.place_id, task=t.task_id)
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
    #: Whether this policy's :attr:`find_work_tail` follows the canonical
    #: tier shape :meth:`fast_round` models — optional shared-deque take,
    #: then a board-gated remote tier — after the mailbox probe and the
    #: co-located scan.  Only the audited built-in policies opt in; a
    #: subclass with a custom tail keeps the per-probe path unless it opts
    #: in itself.  It earns its place on the bare benchmark's steal-storm
    #: workload (DESIGN.md §17) and stays off under observers and fault
    #: plans (see ``Worker._run_loop``).
    _fast_round_ok: bool = False
    #: Whether the tail includes the local shared-deque tier.
    _fast_shared_tier: bool = True

    def _fast_remote_ok(self, worker: "Worker") -> bool:
        """Whether this round's remote tier is provably a no-op."""
        rt = self.rt
        if not self.distributed or rt.spec.n_places <= 1:
            return True
        if not self.uses_status_board:
            # Blind policies (random victims, lifelines) send real steal
            # traffic regardless of surplus: never collapsible.
            return False
        return not rt.board.has_surplus_other(worker.place.place_id)

    def _fast_remote_commit(self, worker: "Worker") -> None:
        """Replay the remote tier's RNG draws for an all-skip round."""
        if self.distributed and self.rt.spec.n_places > 1:
            self._random_place_order(worker)

    def fast_round(self, worker: "Worker"):
        """Collapse one provably-failed steal round into a single sleep.

        Called by the worker loop (no faults, no observer) *instead of*
        the steal scan + :attr:`find_work_tail`.  When every tier is empty
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
        """
        place = worker.place
        if worker.deque._items or place.mailbox._items:
            return None
        rt = self.rt
        env = rt.env
        costs = rt.costs
        peers = worker.steal_peers
        if peers is None:
            peers = worker.steal_peers = [
                w for w in place.workers if w is not worker]
        n = len(peers)
        # The round's timeline, float-added in the per-probe sleep order.
        t = env._now + costs.private_deque_op
        la = costs.local_steal_attempt
        for _ in range(n):
            t = t + la
        shared_tier = self._fast_shared_tier
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
        rng = worker.victims_rng
        if rng is None:
            rng = worker.victims_rng = rt.rngs.stream("victims", *worker.wid)
        rng.permutation(n)
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
        self._fast_remote_commit(worker)
        # The caller issues one sleep_at(t) — one push, one dispatch — in
        # place of the round's n_seq entries: account for the rest here.
        env._seq += n_seq - 1
        env.events_processed += n_seq - 1
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
