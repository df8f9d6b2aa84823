"""The simulated APGAS runtime: places, workers, spawning, termination.

:class:`SimRuntime` wires the substrate together (event kernel, cluster
model, deques, workers, a scheduler policy) and exposes the two operations
the rest of the library builds on:

- :meth:`SimRuntime.spawn` — submit an activity (``async (p) S``);
- :meth:`SimRuntime.run` — execute a program (a callable that spawns root
  activities) to completion and return the collected :class:`RunStats`.

Termination follows X10's ``finish``: the root finish scope drains when
every transitively spawned activity has completed, which opens the done
gate, ends every worker loop, and stops the simulation clock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.cluster.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.cluster.memory import MemoryManager
from repro.cluster.network import MSG_TASK_SHIP, Network
from repro.cluster.topology import ClusterSpec
from repro.errors import ConfigError, SchedulerError, SimulationError
from repro.runtime.finish import FinishScope
from repro.runtime.place import Place
from repro.runtime.stats import RunStats
from repro.runtime.status import StatusBoard
from repro.runtime.task import Task, TaskState
from repro.runtime.worker import Worker
from repro.sim.engine import Environment
from repro.sim.resources import Gate
from repro.sim.rng import RngStreams

if TYPE_CHECKING:  # pragma: no cover
    from repro.sched.base import Scheduler


class SimRuntime:
    """One simulated execution of a task-parallel program on a cluster."""

    def __init__(self, spec: ClusterSpec, scheduler: "Scheduler",
                 costs: CostModel = DEFAULT_COST_MODEL, seed: int = 0) -> None:
        costs.validate()
        self.spec = spec
        self.costs = costs
        self.env = Environment()
        self.rngs = RngStreams(seed)
        self.network = Network(spec, costs, env=self.env)
        self.memory = MemoryManager(self.network, costs)
        #: Idle-backoff parameters workers consult each round.  They
        #: default to the cost model's values; scheduler knobs
        #: (``idle_backoff_base`` / ``idle_backoff_cap``) override them
        #: at bind time.  Set before the places so the workers created
        #: inside them can read the base.
        self.idle_backoff_base = costs.idle_backoff
        self.idle_backoff_cap = costs.max_idle_backoff
        self.places = [Place(self.env, p, spec) for p in spec.place_ids()]
        for place in self.places:
            place.workers = [Worker(self, place, w)
                             for w in range(spec.workers_per_place)]
        self.board = StatusBoard(self.env)
        self.scheduler = scheduler
        scheduler.bind(self)
        self.stats = RunStats(n_places=spec.n_places,
                              workers_per_place=spec.workers_per_place)
        self.done_gate = Gate(self.env, name="termination")
        self.root_finish = FinishScope("root")
        self.root_finish.on_complete(self.done_gate.open)
        #: Fault injector hook; ``None`` (the default) keeps every fault
        #: branch in the runtime, network and schedulers switched off.
        self.faults = None
        #: Observability event bus (:class:`repro.obs.EventBus`); ``None``
        #: (the default) keeps every instrumentation point switched off so
        #: unobserved runs pay nothing — the zero-overhead contract.
        self.obs = None
        self._started = False

    # -- spawning ----------------------------------------------------------
    def spawn(self, task: Task, from_place: Optional[int] = None,
              finish: Optional[FinishScope] = None,
              from_worker: Optional[Worker] = None) -> float:
        """Submit an activity for execution at its home place.

        ``from_place`` is where the spawner runs; a cross-place ``async``
        ships the closure over the network (counted).  The task joins
        ``finish`` (or, by default, its pre-assigned scope / the root
        scope) for termination detection.  Returns the cycles the
        scheduler's :meth:`~repro.sched.base.Scheduler.map_task` charged
        for the placement.
        """
        if not (0 <= task.home_place < self.spec.n_places):
            raise SchedulerError(
                f"task {task.task_id} addressed to place {task.home_place}, "
                f"cluster has {self.spec.n_places}")
        if task.state is not TaskState.CREATED:
            raise SchedulerError(f"task {task.task_id} spawned twice")
        if task.finish is None:
            task.finish = finish if finish is not None else self.root_finish
        task.finish.register()
        task.enqueue_time = self.env.now
        self.stats.tasks_spawned += 1
        obs = self.obs
        if obs is not None and not obs.tally("task_spawn", self.env.now):
            parent = None
            if from_worker is not None and from_worker.current_task is not None:
                parent = from_worker.current_task.task_id
            obs.emit_at(self.env.now, "task_spawn", {
                "task": task.task_id, "label": task.label, "parent": parent,
                "home": task.home_place, "flexible": task.is_flexible})
        if self.faults is not None:
            # Ledger bookkeeping; may re-home a task whose place is dead.
            self.faults.on_spawn(task)
        if from_place is not None and from_place != task.home_place:
            # The async itself crosses the network (X10 `async (p) S`).
            self.network.send(from_place, task.home_place,
                              task.closure_bytes, MSG_TASK_SHIP)
        cost = self.scheduler.map_task(task, from_worker)
        home = self.places[task.home_place]
        home.note_assignment()
        home.notify_work()
        return cost

    def task_finished(self, task: Task, worker: Worker) -> None:
        """Bookkeeping when an activity completes (called by the worker)."""
        obs = self.obs
        if obs is not None and not obs.tally("task_end", self.env.now):
            obs.emit_at(self.env.now, "task_end", {
                "task": task.task_id, "label": task.label,
                "home": task.home_place, "place": task.exec_place,
                "worker": task.exec_worker, "start": task.start_time,
                "work": task.work, "flexible": task.is_flexible,
                "stolen": task.stolen_remotely})
        st = self.stats
        st.tasks_executed += 1
        if task.exec_place != task.home_place:
            st.tasks_executed_remote += 1
        st.work_sum_cycles += task.work
        st.work_count += 1
        if task.label:
            st.tasks_by_label[task.label.split("/")[0]] += 1
        if self.faults is not None:
            self.faults.on_finished(task)
        assert task.finish is not None
        task.finish.task_done()

    # -- execution ------------------------------------------------------------
    def run(self, program: Callable[["SimRuntime"], None],
            max_cycles: float = 1e14) -> RunStats:
        """Run ``program`` to completion and return the run's statistics.

        ``program`` is called once at simulated time 0 and must spawn at
        least one root activity (directly via :meth:`spawn` or through the
        APGAS layer).  Raises :class:`SimulationError` if the computation
        does not terminate within ``max_cycles``.
        """
        if self._started:
            raise SimulationError("SimRuntime instances are single-use")
        self._started = True
        self._worker_failures: list[BaseException] = []

        def on_worker_exit(ev) -> None:
            # A worker generator must never finish while the computation
            # is live; a failure here is a bug in a task body or the
            # runtime and must surface, not hang the simulation.
            if not ev._ok:
                self._worker_failures.append(ev._value)
                self.done_gate.open()

        for place in self.places:
            for worker in place.workers:
                proc = self.env.process(worker.run())
                worker.proc = proc
                proc.add_callback(on_worker_exit)
        program(self)
        if self.stats.tasks_spawned == 0:
            raise ConfigError("program spawned no tasks")
        self.root_finish.close()
        done = self.done_gate.wait()
        guard = self.env.timeout(max_cycles)
        finished = self.env.run(until=self.env.any_of([done, guard]))
        if self._worker_failures:
            failure = self._worker_failures[0]
            from repro.errors import FaultError
            if isinstance(failure, FaultError):
                # A fault-policy decision (e.g. fail-fast on an orphaned
                # sensitive task) is the run's outcome, not a kernel bug.
                raise failure
            raise SimulationError(
                "worker process died during the run") from failure
        if finished is guard or not self.done_gate.is_open:
            raise SimulationError(
                f"computation did not terminate within {max_cycles:g} cycles "
                f"({self.root_finish.pending} tasks still pending)")
        self._collect()
        return self.stats

    # -- metrics ------------------------------------------------------------
    def _collect(self) -> None:
        st = self.stats
        st.makespan_cycles = self.env.now
        for place in self.places:
            for worker in place.workers:
                st.busy_cycles[worker.wid] = (
                    worker.task_cycles + worker.overhead_cycles)
                st.cache_hits += worker.cache.stats.hits
                st.cache_misses += worker.cache.stats.misses
        st.remote_references = self.memory.remote_references
        st.block_migrations = self.memory.migrations
        net = self.network.stats
        st.messages = net.messages
        st.bytes_transmitted = net.bytes
        st.messages_by_kind = net.by_kind.copy()
        st.messages_by_pair = net.by_pair.copy()
        if self.faults is not None:
            st.faults = self.faults.stats
        if self.obs is not None:
            # Summarize into the snapshot, then flush file-backed sinks
            # (JSONL, Chrome trace) so exports land without extra calls.
            st.obs = self.obs.snapshot()
            self.obs.close()

    # -- conveniences ------------------------------------------------------------
    @property
    def n_places(self) -> int:
        """Number of places in this runtime's cluster."""
        return self.spec.n_places

    def place(self, place_id: int) -> Place:
        """Place lookup with bounds checking."""
        if not (0 <= place_id < self.spec.n_places):
            raise ConfigError(f"no such place: {place_id}")
        return self.places[place_id]
