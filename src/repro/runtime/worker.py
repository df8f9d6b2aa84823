"""The worker: one simulated hardware thread executing activities.

A worker runs an endless loop (a simulated process):

1. pop the own private deque (LIFO — most recently created task first);
2. otherwise probe the home mailbox and steal from a co-located worker
   (:meth:`Worker._steal_scan`, one generator for every policy), then
   run the scheduler policy's tail (shared deque, distributed steal —
   policy-specific);
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

from typing import TYPE_CHECKING, Generator, List, Optional

from repro.cluster.cache import LruCache
from repro.runtime.deques import PrivateDeque
from repro.runtime.task import Task, TaskContext, TaskState
from repro.sim.engine import CAUSE_WORK, Interrupt, ParkRecord
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.place import Place
    from repro.runtime.runtime import SimRuntime


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
        #: Steal-tier state: the victim RNG streams are keyed by this
        #: worker's id and the peer/place orders are structurally
        #: constant, so they are derived once, not on every attempt.  The
        #: co-located peers and their victim stream are built by
        #: :meth:`run` before its first round; the remote-tier pair
        #: is filled lazily by the scheduler.
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
        """The worker's simulated process body: Algorithm 1's idle loop,
        the same for every policy.

        Each round is the scheduler's collapsed round
        (:meth:`~repro.sched.base.Scheduler.fast_round`) when it proves
        the round fails, and otherwise the round prefix
        (:meth:`_steal_scan`), then the policy's
        :meth:`~repro.sched.base.Scheduler.find_work_tail` (if it has
        one) on a prefix miss; a round that finds nothing records a
        failed round and parks the worker until work arrives, its
        backoff expires, the status board signals surplus or the
        computation terminates.

        A fail-stop crash of this worker's place (fault injection)
        delivers an :class:`Interrupt`; the worker then stops permanently
        — its in-flight task has already been accounted for (re-executed
        or committed) by the injector.  The loop is the process body
        itself, not wrapped in a second generator: every resume of the
        worker passes through one frame fewer.
        """
        rt = self.runtime
        place = self.place
        gate = rt.done_gate
        scheduler = rt.scheduler
        steals = rt.stats.steals
        obs = rt.obs
        # Collapsed probe round: when every steal tier is provably empty
        # and no other heap entry comes due before the round would end,
        # the scheduler commits the round's counters, RNG draws and (with
        # an observer) replayed per-probe events in one call, and the
        # kernel sleeps once to the round's end time.  Fault plans keep
        # it: crashes and latency spikes are heap entries the quiescence
        # guard refuses to cross, an all-skip remote tier sends nothing
        # to lose, and stragglers act only inside execute().  It runs the
        # policy's own remote-tier hooks, so it holds for every policy.
        fast_round = scheduler.fast_round
        env = rt.env
        sleep_at = env.sleep_at
        find_work_tail = scheduler.find_work_tail
        # One reusable park replaces the per-round AnyOf garbage; the
        # board a parking worker watches is fixed per policy.
        park = ParkRecord(env, self.proc)
        board = scheduler.park_board()
        self.steal_peers = [w for w in place.workers if w is not self]
        self.victims_rng = rt.rngs.stream("victims", *self.wid)
        steal_scan = self._steal_scan
        gate_registered = False
        try:
            while not gate.is_open:
                if place.dead:
                    return
                if (due := fast_round(self)) is not None:
                    yield sleep_at(due)
                    task = None
                else:
                    task = yield from steal_scan()
                    if task is None and find_work_tail is not None:
                        task = yield from find_work_tail(self)
                if task is not None:
                    self._backoff = rt.idle_backoff_base
                    yield from self.execute(task)
                    continue
                # Nothing anywhere: failed round, then back off.
                place.note_failed_steal()
                scheduler.note_failed_round(self)
                steals.failed_rounds += 1
                if obs is not None and not obs.tally("worker_park", env.now):
                    obs.emit_at(env.now, "worker_park", {
                        "place": place.place_id, "worker": self.worker_index,
                        "backoff": self._backoff})
                park.begin(self._backoff, gate.is_open)
                if not gate_registered:
                    # The gate fires at most once (termination), so the park
                    # registers exactly once — no per-round waiter leak.
                    gate.register_park(park)
                    gate_registered = True
                place.add_park_waiter(park)
                if board is not None:
                    board.add_park_waiter(park)
                # Backoff is read by the runtime's idle parameters live:
                # online controllers may retune base/cap mid-run.
                self._backoff = min(self._backoff * 2, rt.idle_backoff_cap)
                cause = yield park
                if cause is CAUSE_WORK:
                    # Work arrived at this place: search eagerly again.
                    self._backoff = rt.idle_backoff_base
        except Interrupt:
            if place.dead:
                return  # fail-stop: this worker never runs again
            raise

    def _steal_scan(self) -> Generator[Event, object, Optional[Task]]:
        """The round prefix every policy shares (Algorithm 1 lines 9-16).

        Pay the private-deque op, then pop the own deque, probe the home
        mailbox, and probe the co-located peers in a fresh random order
        (one ``victims_rng`` draw per round, taken even with no peers).
        Returns the acquired task, or ``None`` so :meth:`run` runs the
        policy's tail.  Every attempt is counted, and put on the bus
        at the moment it is made, before the probe's stall.

        During the steal-success stall the stolen task sits on
        :attr:`pending_chunk`, so a crash of the thief's place inside
        the stall relocates it like any queued work; it leaves the list
        and enters :meth:`execute` with no yield in between.
        """
        rt = self.runtime
        env = rt.env
        costs = rt.costs
        steals = rt.stats.steals
        obs = rt.obs
        place = self.place
        yield env.sleep(costs.private_deque_op)
        self.overhead_cycles += costs.private_deque_op
        task = self.deque.pop()
        if task is not None:
            return task
        task = place.mailbox.try_get()
        if task is not None:
            steals.mailbox_hits += 1
            if obs is not None and not obs.tally("mailbox_get", env._now):
                obs.emit_at(env._now, "mailbox_get", {
                    "place": place.place_id, "worker": self.worker_index,
                    "task": task.task_id})
            return task
        peers = self.steal_peers
        for k in self.victims_rng.permutation(len(peers)).tolist():
            victim = peers[k]
            steals.local_attempts += 1
            if obs is not None and not obs.tally("steal_attempt", env._now):
                obs.emit_at(env._now, "steal_attempt", {
                    "tier": "local", "place": place.place_id,
                    "worker": self.worker_index,
                    "victim": victim.worker_index})
            yield env.sleep(costs.local_steal_attempt)
            self.overhead_cycles += costs.local_steal_attempt
            task = victim.deque.steal()
            if task is not None:
                self.pending_chunk.append(task)
                yield env.sleep(costs.local_steal_success)
                self.overhead_cycles += costs.local_steal_success
                steals.local_hits += 1
                if obs is not None and not obs.tally("steal_hit", env._now):
                    obs.emit_at(env._now, "steal_hit", {
                        "tier": "local", "place": place.place_id,
                        "worker": self.worker_index,
                        "victim": victim.worker_index, "tasks": 1})
                return self.pending_chunk.pop()
        return None

    # -- execution -------------------------------------------------------------
    def execute(self, task: Task) -> Generator[Event, object, None]:
        """Run one activity to completion in simulated time.

        When a fault plan includes crashes, execution defers the *commit*
        (running the real body and spawning children) until after the
        work stall, so a fail-stop crash mid-task loses the task cleanly
        — no real side effects, re-executable exactly once.  An
        interrupt after the commit finds ``task.committed`` set and the
        injector counts the task as done instead.  Memory effects
        (migrations, cache warming) happen before a deferred commit —
        data movement, unlike computation results, survives a crash
        honestly.  Without crashes the body runs before the memory
        pricing and the task stalls once.
        """
        rt = self.runtime
        env = rt.env
        costs = rt.costs
        place = self.place
        faults = rt.faults
        deferred = faults is not None and faults.crash_safe
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
        obs = rt.obs
        if obs is not None and not obs.tally("task_start", env.now):
            obs.emit_at(env.now, "task_start", {
                "task": task.task_id, "place": place.place_id,
                "worker": self.worker_index})
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
            if not deferred:
                children = self._commit(task)
            # Price every declared memory access at the executing place.
            for block in task.reads:
                cost += rt.memory.access(place.place_id, self.cache, block)
            for block in task.writes:
                cost += rt.memory.access(place.place_id, self.cache, block,
                                         write=True)
            if deferred:
                yield env.sleep(cost)
                # ---- commit point: effects become visible atomically ----
                children = self._commit(task)
                cost = 0.0
            # Help-first: children become available as the parent continues.
            for child in children:
                cost += costs.spawn_overhead
                cost += rt.spawn(child, from_place=place.place_id,
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

    def _commit(self, task: Task) -> List[Task]:
        """Run the real body and mark ``task`` committed; its children
        are collected, not yet mapped."""
        ctx = TaskContext(self.runtime, task, self.place.place_id,
                          self.worker_index)
        if task.body is not None:
            task.body(ctx)
        task.committed = True
        return ctx.drain_children()
