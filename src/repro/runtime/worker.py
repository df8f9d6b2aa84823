"""The worker: one simulated hardware thread executing activities.

A worker runs an endless loop (a simulated process):

1. pop the own private deque (LIFO — most recently created task first);
2. otherwise probe the home mailbox and steal from a co-located worker
   (the kernel-resident :class:`_StealScan`), then run the scheduler
   policy's tail (shared deque, distributed steal — policy-specific);
3. execute the task: run its Python body, price its memory behaviour,
   spawn its children, and advance simulated time by the total cost;
4. if no work was found anywhere, record a failed round and back off
   (exponentially, capped), waking early if work arrives at the place or
   the computation terminates.

Busy time is split into *task* cycles (executing activities) and *overhead*
cycles (searching/stealing); Fig. 7's utilization counts both, matching the
paper's observation that stealing itself raises measured node utilization.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Generator, Optional

from repro.cluster.cache import LruCache
from repro.runtime.deques import PrivateDeque
from repro.runtime.task import Task, TaskContext, TaskState
from repro.sim.engine import (SCAN_MISS, CAUSE_WORK, Interrupt, KernelRound,
                              ParkRecord)
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.place import Place
    from repro.runtime.runtime import SimRuntime


class _StealScan(KernelRound):
    """Kernel-resident deque-pop + mailbox + co-located-steal round.

    The one implementation of the round prefix every policy shares (the
    private-deque-op stall, the own pop, the mailbox probe, the
    co-located scan), executed step by step from the dispatch loop.  Each
    step arms one heap entry with the due time and sequence number a
    ``sleep`` in the worker's generator would have taken, and performs
    its side effects — counters, RNG draws, observer events — in the
    order a generator would; see :class:`~repro.sim.engine.KernelRound`
    for the byte-identity contract.  Resolves with the acquired task, or with ``SCAN_MISS`` so
    the worker's generator runs the policy tail (shared deque, remote
    steals) in ordinary yielded-event style.  It runs the same way with
    or without an observer or a fault plan attached.

    Phases: 0 = the private-deque-op stall fired (pop own deque, probe
    the mailbox, open the co-located scan); 1 = one co-located probe
    fired (attempt the steal, advance or miss out); 2 = the
    steal-success stall fired (settle the stolen task); 3 = a collapsed
    round's end stall fired (idle mode: park straight from the kernel).

    During the steal-success stall the stolen task sits on
    ``worker.pending_chunk``, so a crash of the thief's place inside the
    stall relocates it like any queued work.

    **Idle mode** (``idle=True``): for a scheduler with no policy tail
    past the co-located tier (``find_work_tail is None``), the *whole*
    idle cycle — failed round, park, wake, next round — runs
    kernel-resident.  A miss performs the failed-round bookkeeping and
    parks the worker without resuming the generator; the park delivers
    its wake cause to :meth:`on_wake`, which starts the next round (or a
    collapsed one) in place.  The generator resumes only with a task in
    hand, or with ``None`` once the termination gate opens.
    """

    __slots__ = ("worker", "st", "costs", "obs", "phase", "order", "idx",
                 "peers", "mailbox_get", "deque_pop", "idle", "park",
                 "board", "gate", "fast_round", "gate_registered")

    def __init__(self, env, proc, worker: "Worker", park, board,
                 fast_round, idle: bool) -> None:
        super().__init__(env, proc)
        self.worker = worker
        rt = worker.runtime
        self.st = rt.stats.steals
        self.costs = rt.costs
        self.obs = rt.obs
        self.phase = 0
        self.order: list = []
        self.idx = 0
        self.peers: "list[Worker] | None" = None
        self.mailbox_get = worker.place.mailbox.try_get
        self.deque_pop = worker.deque.pop
        self.idle = idle
        self.park = park
        self.board = board
        self.gate = rt.done_gate
        self.fast_round = fast_round
        self.gate_registered = False
        if idle:
            park.scan_owner = self

    def cancel(self) -> None:
        """Detach (the worker's place crashed): never scan or wake again."""
        super().cancel()
        self.park.cancel()

    def begin(self) -> "_StealScan":
        """Arm the round's opening deque-op stall; yield ``self`` after."""
        self.phase = 0
        env = self.env
        env._seq += 1
        env._arm[self._h] = env._seq
        _heappush(env._queue,
                  (env._now + self.costs.private_deque_op, env._seq, self._h))
        return self

    def _emit_attempt(self) -> None:
        worker = self.worker
        self.obs.emit("steal_attempt", tier="local",
                      place=worker.place.place_id,
                      worker=worker.worker_index,
                      victim=self.peers[self.order[self.idx]].worker_index)

    def step(self) -> None:
        # _arm() is inlined in every branch: this method fires hundreds of
        # thousands of times per cell and the extra call frame is measurable.
        phase = self.phase
        costs = self.costs
        worker = self.worker
        env = self.env
        if phase == 1:
            # A co-located probe fired: attempt the steal it paid for.
            worker.overhead_cycles += costs.local_steal_attempt
            task = self.peers[self.order[self.idx]].deque.steal()
            if task is not None:
                worker.pending_chunk.append(task)
                self.phase = 2
                env._seq += 1
                env._arm[self._h] = env._seq
                _heappush(env._queue, (env._now + costs.local_steal_success,
                                       env._seq, self._h))
                return
            idx = self.idx + 1
            if idx < len(self.order):
                self.idx = idx
                self.st.local_attempts += 1
                if self.obs is not None:
                    self._emit_attempt()
                env._seq += 1
                env._arm[self._h] = env._seq
                _heappush(env._queue, (env._now + costs.local_steal_attempt,
                                       env._seq, self._h))
                return
            if self.idle:
                self.park_failed_round()
            else:
                self._resolve(SCAN_MISS)
        elif phase == 0:
            worker.overhead_cycles += costs.private_deque_op
            task = self.deque_pop()
            if task is None:
                task = self.mailbox_get()
                if task is None:
                    peers = self.peers
                    if peers is None:
                        peers = worker.steal_peers
                        if peers is None:
                            peers = worker.steal_peers = [
                                w for w in worker.place.workers
                                if w is not worker]
                        self.peers = peers
                    rng = worker.victims_rng
                    if rng is None:
                        rng = worker.victims_rng = \
                            worker.runtime.rngs.stream("victims", *worker.wid)
                    order = rng.permutation(len(peers)).tolist()
                    if order:
                        self.order = order
                        self.idx = 0
                        self.st.local_attempts += 1
                        if self.obs is not None:
                            self._emit_attempt()
                        self.phase = 1
                        env._seq += 1
                        env._arm[self._h] = env._seq
                        _heappush(env._queue,
                                  (env._now + costs.local_steal_attempt,
                                   env._seq, self._h))
                        return
                    if self.idle:
                        self.park_failed_round()
                    else:
                        self._resolve(SCAN_MISS)
                    return
                self.st.mailbox_hits += 1
                if self.obs is not None:
                    self.obs.emit("mailbox_get", place=worker.place.place_id,
                                  worker=worker.worker_index,
                                  task=task.task_id)
            self._resolve(task)
        elif phase == 2:
            # The steal-success stall fired; settle the task.
            worker.overhead_cycles += costs.local_steal_success
            self.st.local_hits += 1
            if self.obs is not None:
                self.obs.emit("steal_hit", tier="local",
                              place=worker.place.place_id,
                              worker=worker.worker_index,
                              victim=self.peers[self.order[self.idx]]
                              .worker_index, tasks=1)
            # Out of pending_chunk and into execute() (which makes it the
            # current_task) with no yield in between.
            self._resolve(worker.pending_chunk.pop())
        else:
            # Phase 3 (idle mode): a collapsed round's end stall fired —
            # the round failed.
            self.park_failed_round()

    def park_failed_round(self) -> None:
        """Failed-round bookkeeping, then arm the worker's park.

        Outside idle mode the worker's generator calls this and then
        yields the park itself; in idle mode the scan calls it on a miss.
        """
        worker = self.worker
        place = worker.place
        rt = worker.runtime
        place.note_failed_steal()
        rt.scheduler.note_failed_round(worker)
        self.st.failed_rounds += 1
        if self.obs is not None:
            self.obs.emit("worker_park", place=place.place_id,
                          worker=worker.worker_index,
                          backoff=worker._backoff)
        park = self.park
        gate = self.gate
        park.begin(worker._backoff, gate.is_open)
        if not self.gate_registered:
            # The gate fires at most once (termination), so the park
            # registers exactly once — no per-round waiter leak.
            gate.register_park(park)
            self.gate_registered = True
        place.add_park_waiter(park)
        if self.board is not None:
            self.board.add_park_waiter(park)
        # Backoff is read by the runtime's idle parameters live: online
        # controllers may retune base/cap mid-run.
        worker._backoff = min(worker._backoff * 2, rt.idle_backoff_cap)

    # -- kernel-resident idle loop (tail-less schedulers) ---------------------
    def begin_idle(self) -> "_StealScan":
        """Open a round in idle mode; yield ``self`` afterwards.

        A collapsible round (every tier provably empty, heap quiescent)
        arms one stall at the round's end — the seq a generator's
        ``sleep_at`` would consume — otherwise the ordinary scan opens
        with the deque-op stall.
        """
        fr = self.fast_round
        if fr is not None:
            due = fr(self.worker)
            if due is not None:
                self.phase = 3
                env = self.env
                env._seq += 1
                env._arm[self._h] = env._seq
                _heappush(env._queue, (due, env._seq, self._h))
                return self
        return self.begin()

    def on_wake(self, cause) -> None:
        """The park's wake hop landed: restart the round in the kernel.

        Backoff reset on a work wake, the loop-top gate check (resolving
        ``None`` hands the generator its exit), then the next round.
        """
        if cause is CAUSE_WORK:
            self.worker._backoff = self.worker.runtime.idle_backoff_base
        if self.gate.is_open:
            self._resolve(None)
            return
        self.begin_idle()


class Worker:
    """One worker thread at a place."""

    def __init__(self, runtime: "SimRuntime", place: "Place",
                 worker_index: int) -> None:
        self.runtime = runtime
        self.place = place
        self.worker_index = worker_index
        self.deque = PrivateDeque(place.place_id, worker_index,
                                  place=place, owner=self)
        self.cache = LruCache(runtime.costs.l1_capacity_lines)
        self._executing = False
        # A fresh worker is idle with an empty deque: one spare slot.
        place._n_spare += 1
        #: Task currently in :meth:`execute`.  The fault injector reads
        #: this to find in-flight work at a crash; the runtime reads it
        #: to attribute spawn parentage for the observability layer.
        self.current_task: Task | None = None
        #: Stolen tasks not yet runnable here: a remote chunk from the
        #: instant it leaves the victim's shared deque until it lands in
        #: the home mailbox / starts executing, or one co-located task
        #: during the steal-success stall.  The fault injector drains it
        #: at a crash — these tasks are otherwise invisible (neither
        #: queued nor anyone's ``current_task``).
        self.pending_chunk: list[Task] = []
        #: The simulated process running :meth:`run` (set by the runtime).
        self.proc = None
        self.task_cycles = 0.0
        self.overhead_cycles = 0.0
        self.tasks_run = 0
        self._backoff = runtime.idle_backoff_base
        #: Steal-tier caches (scheduler-owned, lazily filled): the victim
        #: RNG streams are keyed by this worker's id and the peer/place
        #: orders are structurally constant, so re-deriving them on every
        #: steal attempt was pure overhead.
        self.victims_rng = None
        self.steal_peers: "list[Worker] | None" = None
        self.place_victims_rng = None
        self.other_places: list[int] | None = None

    def reset_backoff(self) -> None:
        """Re-arm the idle backoff at the runtime's (possibly tuned) base."""
        self._backoff = self.runtime.idle_backoff_base

    @property
    def executing(self) -> bool:
        """Whether an activity is currently running on this worker.

        A property so the place's O(1) spare-worker counter stays in sync
        no matter who flips the flag (the execute paths here, or tests
        poking it directly).
        """
        return self._executing

    @executing.setter
    def executing(self, flag: bool) -> None:
        if flag != self._executing:
            self._executing = flag
            if not self.deque._items:
                self.place._n_spare += -1 if flag else 1

    @property
    def wid(self) -> tuple[int, int]:
        """Globally unique (place, worker) id pair."""
        return (self.place.place_id, self.worker_index)

    def charge_overhead(self, cycles: float) -> None:
        """Account CPU-bound scheduling work (deque ops, steal service).

        Time a thief spends *waiting* on the interconnect is simulated but
        deliberately not charged here, so Fig. 7's utilization reflects CPU
        activity rather than network latency.
        """
        self.overhead_cycles += cycles

    # -- main loop ----------------------------------------------------------
    def run(self) -> Generator[Event, object, None]:
        """The worker's simulated process body.

        A fail-stop crash of this worker's place (fault injection)
        delivers an :class:`Interrupt`; the worker then stops permanently
        — its in-flight task has already been accounted for (re-executed
        or committed) by the injector.
        """
        try:
            yield from self._run_loop()
        except Interrupt:
            if self.place.dead:
                return  # fail-stop: this worker never runs again
            raise

    def _run_loop(self) -> Generator[Event, object, None]:
        rt = self.runtime
        place = self.place
        gate = rt.done_gate
        scheduler = rt.scheduler
        # Collapsed probe round: when every steal tier is provably empty
        # and no other heap entry comes due before the round would end,
        # the scheduler commits the round's counters and RNG draws in one
        # call and the kernel sleeps once to the round's end time.  The
        # collapse replays neither the per-probe observer events nor the
        # remote tier's fault hooks (steal timeouts, victim blacklist), so
        # an observer or a fault plan turns it off; the scan below runs
        # either way.
        fast_round = None
        if (scheduler._fast_round_ok and rt.faults is None
                and rt.obs is None):
            fast_round = scheduler.fast_round
        sleep_at = rt.env.sleep_at
        find_work_tail = scheduler.find_work_tail
        # One reusable park replaces the per-round AnyOf garbage; the
        # board a parking worker watches is fixed per policy.
        park = ParkRecord(rt.env, self.proc)
        scan = _StealScan(rt.env, self.proc, self, park,
                          scheduler.park_board(), fast_round,
                          idle=find_work_tail is None)
        if find_work_tail is None:
            # No policy tier past the co-located scan: the whole idle
            # cycle — round, failed-round bookkeeping, park, wake — runs
            # kernel-resident.  The generator resumes per *task*, not per
            # round: with a task in hand, or with None at termination.
            while not gate.is_open:
                if place.dead:
                    return
                task = yield scan.begin_idle()
                if task is None:
                    continue
                self._backoff = rt.idle_backoff_base
                yield from self.execute(task)
            return
        while not gate.is_open:
            if place.dead:
                return
            if fast_round is not None and (due := fast_round(self)) is not None:
                yield sleep_at(due)
                task = None
            else:
                task = yield scan.begin()
                if task is SCAN_MISS:
                    task = yield from find_work_tail(self)
            if task is not None:
                self._backoff = rt.idle_backoff_base
                yield from self.execute(task)
                continue
            # Nothing anywhere: failed round, then back off.
            scan.park_failed_round()
            cause = yield park
            if cause is CAUSE_WORK:
                # Work arrived at this place: search eagerly again.
                self._backoff = rt.idle_backoff_base

    # -- execution -------------------------------------------------------------
    def execute(self, task: Task) -> Generator[Event, object, None]:
        """Run one activity to completion in simulated time.

        When a fault plan includes crashes, execution defers the *commit*
        (running the real body and spawning children) until after the
        work stall, so a fail-stop crash mid-task loses the task cleanly
        — no real side effects, re-executable exactly once.  The default
        path below is untouched when no injector is attached.
        """
        rt = self.runtime
        faults = rt.faults
        if faults is not None and faults.crash_safe:
            yield from self._execute_crash_safe(task)
            return
        env = rt.env
        costs = rt.costs
        place = self.place
        task.state = TaskState.RUNNING
        task.exec_place = place.place_id
        task.exec_worker = self.worker_index
        if (rt.scheduler.enforces_locality and not task.is_flexible
                and task.exec_place != task.home_place):
            from repro.errors import SchedulerError
            raise SchedulerError(
                f"locality violation: sensitive task {task.task_id} "
                f"(home p{task.home_place}) executing at "
                f"p{task.exec_place} under {rt.scheduler.name}")
        task.start_time = env.now
        place.running_activities += 1
        place.note_assignment()
        self.executing = True
        self.current_task = task
        if rt.obs is not None:
            rt.obs.emit("task_start", task=task.task_id,
                        place=place.place_id, worker=self.worker_index)
        try:
            cost = task.work
            if faults is not None:
                cost *= faults.slow_factor(place.place_id)
            remote = task.exec_place != task.home_place
            # An encapsulating task (§II condition d) carried its data in
            # the closure: the blocks it touches become persistent local
            # replicas, paid for once — wherever the task runs (a bucket
            # merge *gathers* even at home).  Every other task is left
            # with X10 `at` semantics: per-access remote references priced
            # in :meth:`MemoryManager.access`.
            if task.encapsulates:
                for block in task.unique_blocks():
                    cost += rt.memory.migrate(block, place.place_id,
                                              warm_cache=self.cache)
            # Run the real body; children are collected, not yet mapped.
            ctx = TaskContext(rt, task, place.place_id, self.worker_index)
            if task.body is not None:
                task.body(ctx)
            children = ctx.drain_children()
            # Price every declared memory access at the executing place.
            for block in task.reads:
                cost += rt.memory.access(place.place_id, self.cache, block)
            for block in task.writes:
                cost += rt.memory.access(place.place_id, self.cache, block,
                                         write=True)
            # Help-first: children become available as the parent continues.
            for child in children:
                cost += costs.spawn_overhead
                cost += rt.scheduler.mapping_cost(child)
                rt.spawn(child, from_place=place.place_id,
                         finish=task.finish, from_worker=self)
            # Results that must explicitly travel back after a remote
            # execution (e.g. the Turing-ring inner population update).
            if remote:
                for block in task.copy_back:
                    cost += rt.memory.copy_back(block, place.place_id)
            yield env.sleep(cost)
        finally:
            self.executing = False
            self.current_task = None
            place.running_activities -= 1
        task.state = TaskState.DONE
        task.end_time = env.now
        self.task_cycles += env.now - task.start_time
        self.tasks_run += 1
        rt.task_finished(task, self)

    def _execute_crash_safe(self, task: Task) -> Generator[Event, object, None]:
        """Deferred-commit execution for runs with planned crashes.

        The work stall happens *first*; the real body runs, children are
        spawned, and ``task.committed`` flips only at the commit point.
        An interrupt (place crash) before the commit leaves no visible
        effects: the fault injector re-executes the task on a survivor.
        An interrupt after it finds ``committed`` set and counts the task
        as done instead.  Memory effects (migrations, cache warming) may
        partially happen before the commit — data movement, unlike
        computation results, survives a crash honestly.
        """
        rt = self.runtime
        env = rt.env
        costs = rt.costs
        place = self.place
        faults = rt.faults
        task.state = TaskState.RUNNING
        task.exec_place = place.place_id
        task.exec_worker = self.worker_index
        if (rt.scheduler.enforces_locality and not task.is_flexible
                and task.exec_place != task.home_place):
            from repro.errors import SchedulerError
            raise SchedulerError(
                f"locality violation: sensitive task {task.task_id} "
                f"(home p{task.home_place}) executing at "
                f"p{task.exec_place} under {rt.scheduler.name}")
        task.start_time = env.now
        place.running_activities += 1
        place.note_assignment()
        self.executing = True
        self.current_task = task
        if rt.obs is not None:
            rt.obs.emit("task_start", task=task.task_id,
                        place=place.place_id, worker=self.worker_index)
        try:
            cost = task.work * faults.slow_factor(place.place_id)
            remote = task.exec_place != task.home_place
            if task.encapsulates:
                for block in task.unique_blocks():
                    cost += rt.memory.migrate(block, place.place_id,
                                              warm_cache=self.cache)
            for block in task.reads:
                cost += rt.memory.access(place.place_id, self.cache, block)
            for block in task.writes:
                cost += rt.memory.access(place.place_id, self.cache, block,
                                         write=True)
            yield env.sleep(cost)
            # ---- commit point: effects become visible atomically ----
            ctx = TaskContext(rt, task, place.place_id, self.worker_index)
            if task.body is not None:
                task.body(ctx)
            children = ctx.drain_children()
            task.committed = True
            post = 0.0
            for child in children:
                post += costs.spawn_overhead
                post += rt.scheduler.mapping_cost(child)
                rt.spawn(child, from_place=place.place_id,
                         finish=task.finish, from_worker=self)
            if remote:
                for block in task.copy_back:
                    post += rt.memory.copy_back(block, place.place_id)
            yield env.sleep(post)
        finally:
            self.executing = False
            self.current_task = None
            place.running_activities -= 1
        task.state = TaskState.DONE
        task.end_time = env.now
        self.task_cycles += env.now - task.start_time
        self.tasks_run += 1
        rt.task_finished(task, self)
