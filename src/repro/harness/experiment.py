"""Experiment execution: one (app, scheduler, cluster, seeds) run.

The paper reports averages of ten executions (§VIII); the harness runs a
configurable number of scheduler seeds per cell and aggregates.  Speedups
are computed against the *sequential execution time*, which for the
simulator is the total task work of the (schedule-independent) task graph
— what a single worker with no scheduling overhead would take, matching
the paper's sequential-implementation baseline (Fig. 4).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.cluster.costmodel import DEFAULT_COST_MODEL
from repro.cluster.topology import ClusterSpec
from repro.runtime.stats import RunStats


@dataclass
class RunResult:
    """One simulation run's interesting outputs."""

    app: str
    scheduler: str
    spec: ClusterSpec
    app_seed: int
    sched_seed: int
    stats: RunStats
    wall_seconds: float

    @property
    def sequential_cycles(self) -> float:
        """Total task work = the sequential-baseline execution time."""
        return self.stats.work_sum_cycles

    @property
    def speedup(self) -> float:
        """Speedup over the sequential baseline."""
        if self.stats.makespan_cycles <= 0:
            return 0.0
        return self.sequential_cycles / self.stats.makespan_cycles

    @property
    def makespan_ms(self) -> float:
        return self.stats.makespan_cycles / DEFAULT_COST_MODEL.cycles_per_ms


@dataclass
class CellResult:
    """Aggregate over several scheduler seeds of the same cell."""

    runs: List[RunResult] = field(default_factory=list)

    def _vals(self, fn: Callable[[RunResult], float]) -> List[float]:
        return [fn(r) for r in self.runs]

    @property
    def mean_speedup(self) -> float:
        return statistics.fmean(self._vals(lambda r: r.speedup))

    @property
    def mean_makespan_ms(self) -> float:
        return statistics.fmean(self._vals(lambda r: r.makespan_ms))

    def mean(self, fn: Callable[[RunResult], float]) -> float:
        return statistics.fmean(self._vals(fn))


def run_cell(app_name: str, scheduler: str,
             spec: Optional[ClusterSpec] = None,
             sched_seeds: Sequence[int] = (1, 2, 3),
             **run_kwargs) -> CellResult:
    """Run a cell once per scheduler seed and aggregate.

    ``run_kwargs`` are :meth:`~repro.harness.parallel.RunSpec.build`'s
    keywords.  Only the first seed validates application output
    (validating every repetition of a deterministic app is redundant).
    The cell executes under the active execution context, so its seeds
    shard over helper processes and replay from the experiment store
    when one is installed.
    """
    from repro.harness.parallel import CellRequest, current_context

    request = CellRequest.build(app_name, scheduler, spec,
                                sched_seeds=sched_seeds, **run_kwargs)
    return current_context().run_cells([request])[0]
