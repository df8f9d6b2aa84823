"""The task ledger: exactly-once execution accounting under faults.

When a place fail-stops, every task queued or running (uncommitted) there
is *lost* and must be re-executed by a survivor — but exactly once: a task
that runs twice duplicates its real side effects (bodies mutate genuine
Python state), and a task that never re-runs hangs its ``finish`` scope.

Under multi-crash plans a task can be lost more than once: relocation
picks a survivor of the *current* crash, and nothing stops that survivor
from fail-stopping later (or from the task being stolen onto a place that
does) while the task is still queued.  The ledger therefore tracks loss
and relocation as balanced *counters* per task — every loss must be
answered by exactly one relocation before the next loss — while
completion stays strictly exactly-once.

The :class:`TaskLedger` is the runtime's book of record for this
invariant.  It is only instantiated when a fault injector with a
non-empty plan attaches, so fault-free runs pay nothing.  The chaos
benchmarks call :meth:`assert_work_conserved` after a run to prove work
conservation (every spawned task executed exactly once among survivors).
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict, Set

from repro.errors import FaultError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.task import Task


class TaskLedger:
    """Tracks spawn / loss / re-execution / completion of every task."""

    def __init__(self) -> None:
        self._spawned: Set[int] = set()
        self._executed: Counter = Counter()
        #: Loss events per task (a task may be lost to several crashes).
        self._losses: Counter = Counter()
        #: Relocations per task; must always trail losses by at most one.
        self._reexecutions: Counter = Counter()
        #: Simulated time of each task's most recent loss.
        self._lost_at: Dict[int, float] = {}

    # -- recording ---------------------------------------------------------
    def record_spawn(self, task: "Task") -> None:
        """A task entered the system via :meth:`SimRuntime.spawn`."""
        self._spawned.add(task.task_id)

    def record_loss(self, task: "Task", now: float) -> None:
        """A task was lost to a crash (queued, or in flight uncommitted).

        Legal any number of times, provided every earlier loss was
        answered by a relocation — losing a task while it is still
        awaiting relocation means two crash handlers claimed it at once.
        """
        tid = task.task_id
        if self._losses[tid] != self._reexecutions[tid]:
            raise FaultError(
                f"task {tid} lost again while awaiting relocation; "
                "crash handlers must not overlap on the same task")
        if self._executed[tid]:
            raise FaultError(
                f"completed task {tid} recorded as lost")
        self._losses[tid] += 1
        self._lost_at[tid] = now

    def record_reexecution(self, task: "Task") -> None:
        """A lost task was handed to a survivor. Exactly once per loss."""
        tid = task.task_id
        if self._reexecutions[tid] >= self._losses[tid]:
            if not self._losses[tid]:
                raise FaultError(
                    f"task {tid} re-executed without being lost")
            raise FaultError(
                f"task {tid} relocated twice for one loss "
                "(exactly-once violation)")
        self._reexecutions[tid] += 1

    def record_execution(self, task: "Task") -> None:
        """A task completed (its effects committed)."""
        self._executed[task.task_id] += 1
        if self._executed[task.task_id] > 1:
            raise FaultError(
                f"task {task.task_id} completed "
                f"{self._executed[task.task_id]} times "
                "(exactly-once violation)")

    # -- queries -----------------------------------------------------------
    def assert_work_conserved(self) -> None:
        """Every spawned task executed exactly once, or raise FaultError."""
        never_ran = [tid for tid in self._spawned if not self._executed[tid]]
        if never_ran:
            raise FaultError(
                f"{len(never_ran)} task(s) never executed: "
                f"{sorted(never_ran)[:10]}")
        multi = [tid for tid, n in self._executed.items() if n > 1]
        if multi:
            raise FaultError(
                f"{len(multi)} task(s) executed more than once: "
                f"{sorted(multi)[:10]}")
        unrequited = [tid for tid in self._losses
                      if self._reexecutions[tid] < self._losses[tid]]
        if unrequited:
            raise FaultError(
                f"{len(unrequited)} lost task(s) completed without a "
                f"recorded re-execution: {sorted(unrequited)[:10]}")
