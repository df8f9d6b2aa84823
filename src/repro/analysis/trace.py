"""Execution trace recording.

A :class:`TraceRecorder` is one sink on the :mod:`repro.obs` event bus:
from ``task_spawn`` / ``task_end`` events it collects one record per
task — spawn time, queue time, execution window, worker, home vs
executing place, and the spawn edge to its parent.  The analysis tools
(timeline rendering, critical-path extraction, per-place load profiles)
consume these traces.  Events consume no simulated time, so recording
never changes scheduling behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import ConfigError
from repro.obs.events import ObsEvent
from repro.obs.sinks import Sink

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.stats import FaultEvent
    from repro.obs.bus import EventBus
    from repro.runtime.runtime import SimRuntime


@dataclass
class TaskRecord:
    """One executed task's lifecycle."""

    task_id: int
    label: str
    parent_id: Optional[int]
    home_place: int
    exec_place: int
    worker: int
    spawn_time: float
    start_time: float
    end_time: float
    work: float
    flexible: bool
    stolen_remotely: bool

    @property
    def duration(self) -> float:
        """Simulated execution duration (work + priced effects)."""
        return self.end_time - self.start_time


@dataclass
class Trace:
    """A completed run's trace."""

    tasks: List[TaskRecord] = field(default_factory=list)
    makespan: float = 0.0
    n_places: int = 0
    workers_per_place: int = 0
    #: Simulated clock rate the run was priced with; converts cycle
    #: timestamps to wall-clock axes (2e6 = the default 2 GHz model).
    cycles_per_ms: float = 2_000_000.0
    #: Fault-injection timeline (crashes, spikes, losses, re-executions);
    #: empty for fault-free runs.
    fault_events: List["FaultEvent"] = field(default_factory=list)

    def by_id(self) -> Dict[int, TaskRecord]:
        return {t.task_id: t for t in self.tasks}

    def place_busy_profile(self, buckets: int = 40) -> List[List[float]]:
        """Per-place fraction of workers busy, over ``buckets`` windows."""
        if buckets < 1:
            raise ConfigError("buckets must be >= 1")
        if self.makespan <= 0 or self.workers_per_place < 1:
            return [[0.0] * buckets for _ in range(self.n_places)]
        width = self.makespan / buckets
        out = [[0.0] * buckets for _ in range(self.n_places)]
        for t in self.tasks:
            first = int(t.start_time // width)
            last = int(min(t.end_time, self.makespan - 1e-9) // width)
            for b in range(first, last + 1):
                lo = max(t.start_time, b * width)
                hi = min(t.end_time, (b + 1) * width)
                if hi > lo:
                    out[t.exec_place][b] += (hi - lo)
        denom = width * self.workers_per_place
        return [[min(1.0, v / denom) for v in row] for row in out]


class TraceRecorder(Sink):
    """Record one run's execution trace as a sink on its event bus.

    Subscribe it before :meth:`EventBus.attach` (the bus rejects a
    started runtime) and call :meth:`finalize` after the run.
    """

    consumes = frozenset(("task_spawn", "task_end"))

    def __init__(self) -> None:
        self._spawn_times: Dict[int, float] = {}
        self._parents: Dict[int, Optional[int]] = {}

    def open(self, bus: "EventBus", rt: "SimRuntime") -> None:
        self.runtime = rt
        self.trace = Trace(n_places=rt.spec.n_places,
                           workers_per_place=rt.spec.workers_per_place,
                           cycles_per_ms=rt.costs.cycles_per_ms)

    def on_event(self, ev: ObsEvent) -> None:
        if ev.kind == "task_spawn":
            f = ev.fields
            self._spawn_times[f["task"]] = ev.t
            self._parents[f["task"]] = f["parent"]
        elif ev.kind == "task_end":
            f = ev.fields
            self.trace.tasks.append(TaskRecord(
                task_id=f["task"],
                label=f["label"],
                parent_id=self._parents.get(f["task"]),
                home_place=f["home"],
                exec_place=f["place"],
                worker=f["worker"],
                spawn_time=self._spawn_times.get(f["task"], 0.0),
                start_time=f["start"],
                end_time=ev.t,
                work=f["work"],
                flexible=f["flexible"],
                stolen_remotely=f["stolen"],
            ))

    def finalize(self) -> Trace:
        """Snapshot the trace after the run completed."""
        self.trace.makespan = self.runtime.env.now
        self.trace.tasks.sort(key=lambda t: t.start_time)
        if self.runtime.faults is not None:
            self.trace.fault_events = list(self.runtime.faults.events)
        return self.trace
