"""The fault injector: interprets a :class:`FaultPlan` against a runtime.

Attachment is explicit and happens *before* the run::

    plan = FaultPlan.parse("crash:p2@3e6,loss:steal=0.05")
    injector = FaultInjector(plan)
    injector.attach(rt)          # no-op if the plan is empty
    stats = app.run(rt)
    stats.snapshot()["faults"]   # the FaultStats block

Determinism: the injector draws from its own named RNG streams (seeded by
``plan.seed``), so the runtime's victim-selection and workload streams are
never perturbed; the same seed and plan reproduce the same faults, drops
and re-homing decisions bit-for-bit.

Zero-overhead default: attaching an *empty* plan installs nothing — the
runtime's ``faults`` attribute stays ``None`` and every fault hook in the
hot paths short-circuits on that, leaving the no-faults event sequence
byte-identical.

Crash semantics (fail-stop): at the crash instant the place's workers are
interrupted and never run again; every task queued at the place (private
deques, shared deque, mailbox) and every *uncommitted* in-flight task is
lost.  Lost locality-flexible tasks are re-homed to a survivor and
re-executed exactly once (tracked by the
:class:`~repro.runtime.ledger.TaskLedger`).  Lost locality-sensitive
tasks follow the plan's :class:`SensitivePolicy`: ``fail`` raises
:class:`~repro.errors.PlaceFailedError`, ``relax`` degrades them to
flexible.  In-flight tasks whose effects already committed (see the
worker's crash-safe deferred-commit execution) are counted as completed
at the crash instant rather than re-executed, preserving exactly-once
semantics for real side effects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.errors import ConfigError, FaultError, PlaceFailedError
from repro.faults.plan import FaultPlan, SensitivePolicy
from repro.faults.stats import FaultEvent, FaultStats
from repro.runtime.ledger import TaskLedger
from repro.runtime.task import FLEXIBLE, TaskState
from repro.sim.rng import RngStreams

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import SimRuntime
    from repro.runtime.task import Task


class FaultInjector:
    """Schedules and applies the faults described by a :class:`FaultPlan`."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats = FaultStats()
        self.events: List[FaultEvent] = []
        self.rt: Optional["SimRuntime"] = None
        self.ledger = TaskLedger()
        self.rngs = RngStreams(plan.seed)
        self._dead: Set[int] = set()
        self._slow: Dict[int, float] = {s.place: s.factor
                                        for s in plan.stragglers}
        #: Crash-time of the most recent crash (for recovery latency).
        self._last_crash_time: float = 0.0
        #: Lost-task ids still awaiting completion by a survivor.
        self._pending_lost: Set[int] = set()

    # -- attachment --------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether the injector is attached to a runtime."""
        return self.rt is not None

    @property
    def crash_safe(self) -> bool:
        """Whether workers must use deferred-commit execution."""
        return bool(self.plan.crashes)

    def attach(self, rt: "SimRuntime") -> "FaultInjector":
        """Install the plan's faults into ``rt``. No-op for empty plans."""
        if self.plan.is_empty:
            return self
        if rt._started:
            raise ConfigError("attach the fault injector before running")
        if rt.faults is not None:
            raise ConfigError("runtime already has a fault injector")
        if self.plan.needs_horizon:
            raise ConfigError(
                "plan has fractional times; call plan.resolved(horizon) "
                "before attaching")
        self.plan.validate(rt.spec.n_places)
        self.rt = rt
        rt.faults = self
        rt.network.faults = self
        env = rt.env
        for crash in self.plan.crashes:
            ev = env.timeout(crash.at)
            ev.add_callback(
                lambda _ev, pid=crash.place: self._crash(pid))
        for spike in self.plan.spikes:
            start = env.timeout(spike.start)
            start.add_callback(
                lambda _ev, s=spike: self._record(
                    "spike_start", -1, f"x{s.factor:g}"))
            end = env.timeout(spike.start + spike.duration)
            end.add_callback(
                lambda _ev, s=spike: self._record(
                    "spike_end", -1, f"x{s.factor:g}"))
        for strag in self.plan.stragglers:
            self._record("straggler", strag.place, f"x{strag.factor:g}")
        return self

    # -- hot-path queries (called from network / worker / scheduler) ------
    def is_dead(self, place_id: int) -> bool:
        """Whether ``place_id`` has fail-stopped."""
        return place_id in self._dead

    def slow_factor(self, place_id: int) -> float:
        """Work multiplier for a (possibly straggling) place."""
        return self._slow.get(place_id, 1.0)

    def latency_factor(self, now: float) -> float:
        """Interconnect latency multiplier at simulated time ``now``."""
        factor = 1.0
        for s in self.plan.spikes:
            if s.start <= now < s.start + s.duration:
                factor *= s.factor
        return factor

    def drops(self, src: int, dst: int, kind: str) -> bool:
        """Whether one message of ``kind`` from src to dst is lost."""
        prob = self.plan.loss.get(kind, 0.0)
        if prob <= 0.0:
            return False
        return bool(self.rngs.stream("loss", kind).random() < prob)

    # -- runtime hooks -----------------------------------------------------
    def on_spawn(self, task: "Task") -> None:
        """Called by :meth:`SimRuntime.spawn` before mapping.

        Records the spawn in the ledger and re-homes tasks addressed to a
        dead place (per the sensitive-task policy).
        """
        self.ledger.record_spawn(task)
        if task.home_place in self._dead:
            self._require_relocatable(task)
            new_home = self._pick_survivor()
            self._record("task_rehomed", new_home,
                         f"task {task.task_id} from dead "
                         f"p{task.home_place}")
            task.home_place = new_home
            self.stats.tasks_rehomed += 1

    def on_finished(self, task: "Task") -> None:
        """Called by :meth:`SimRuntime.task_finished` on every completion."""
        self.ledger.record_execution(task)
        if task.task_id in self._pending_lost:
            self._pending_lost.discard(task.task_id)
            if not self._pending_lost:
                now = self.rt.env.now
                self.stats.recovery_latency_cycles = max(
                    self.stats.recovery_latency_cycles,
                    now - self._last_crash_time)
                self._record("recovered", task.exec_place or 0,
                             f"last lost task {task.task_id} done")

    # -- crash handling ----------------------------------------------------
    def _crash(self, place_id: int) -> None:
        rt = self.rt
        if place_id in self._dead or rt.done_gate.is_open:
            return
        place = rt.places[place_id]
        place.dead = True
        self._dead.add(place_id)
        self._last_crash_time = rt.env.now
        self.stats.places_crashed.append(place_id)
        self._record("crash", place_id)
        rt.board.retract(place_id)
        # Detach the workers first: interrupt() synchronously unhooks each
        # worker's pending resume, so none of them can race ahead and
        # touch a task this handler is about to relocate or finish.
        running: List[tuple] = []
        for w in place.workers:
            if w.current_task is not None:
                running.append((w, w.current_task))
            proc = getattr(w, "proc", None)
            if proc is not None and proc.is_alive:
                proc.interrupt("place-crash")
        lost: List["Task"] = []
        for w in place.workers:
            # Stolen chunks still in flight to this place: the tasks left
            # the victim's deque but never reached the mailbox.
            lost.extend(w.pending_chunk)
            w.pending_chunk = []
            while True:
                t = w.deque.pop()
                if t is None:
                    break
                lost.append(t)
        while True:
            t = place.shared.take_oldest(remote=False)
            if t is None:
                break
            lost.append(t)
        while True:
            t = place.mailbox.try_get()
            if t is None:
                break
            lost.append(t)
        for worker, task in running:
            if task.committed:
                # Effects (body, children) are already visible: count the
                # task as completed at the crash instant.
                task.state = TaskState.DONE
                task.end_time = rt.env.now
                self.stats.committed_at_crash += 1
                self._record("task_committed_at_crash", place_id,
                             f"task {task.task_id}")
                rt.task_finished(task, worker)
            else:
                lost.append(task)
        for task in lost:
            self._relocate(task, place_id)

    def _relocate(self, task: "Task", dead_place: int) -> None:
        """Hand one lost task to a survivor, exactly once per loss.

        Under multi-crash plans the chosen survivor may itself crash
        later while the task is still queued there; the task is then
        simply lost and relocated again (the ledger balances every loss
        against one relocation, and completion stays exactly-once).
        """
        rt = self.rt
        self._require_relocatable(task)
        self.ledger.record_loss(task, rt.env.now)
        self.stats.tasks_lost += 1
        self._record("task_lost", dead_place, f"task {task.task_id}")
        new_home = self._pick_survivor()
        task.home_place = new_home
        task.state = TaskState.CREATED
        task.exec_place = None
        task.exec_worker = None
        self.ledger.record_reexecution(task)
        self.stats.tasks_reexecuted += 1
        self._pending_lost.add(task.task_id)
        self._record("task_reexec", new_home, f"task {task.task_id}")
        rt.scheduler.map_task(task)
        home = rt.places[new_home]
        home.note_assignment()
        home.notify_work()

    def _require_relocatable(self, task: "Task") -> None:
        """Degrade or fail a sensitive task per the plan's policy."""
        if task.is_flexible:
            return
        if self.plan.sensitive_policy is SensitivePolicy.RELAX:
            task.locality = FLEXIBLE
            self.stats.sensitive_degraded += 1
            self._record("sensitive_degraded", task.home_place,
                         f"task {task.task_id}")
            return
        raise PlaceFailedError(
            f"locality-sensitive task {task.task_id} is pinned to dead "
            f"place p{task.home_place}; re-run with the 'relax' policy to "
            "degrade it to flexible")

    def _pick_survivor(self) -> int:
        alive = [p for p in range(self.rt.spec.n_places)
                 if p not in self._dead]
        if not alive:
            raise FaultError("no surviving places")  # pragma: no cover
        idx = int(self.rngs.stream("rehome").integers(len(alive)))
        return alive[idx]

    def _record(self, kind: str, place: int, detail: str = "") -> None:
        now = self.rt.env.now if self.rt is not None else 0.0
        self.events.append(FaultEvent(now, kind, place, detail))
        obs = self.rt.obs if self.rt is not None else None
        if obs is not None and not obs.tally("fault", now):
            obs.emit_at(now, "fault", {"what": kind, "place": place,
                                       "detail": detail})
