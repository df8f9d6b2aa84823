"""Run metrics: everything the paper's tables and figures observe.

One :class:`RunStats` is filled per simulation run.  Derived quantities
(miss rates, utilization variance, steals-to-task ratio) are computed on
demand so the raw counters stay additive.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.stats import FaultStats


@dataclass
class StealCounters:
    """Steal-path counters, local and distributed."""

    local_attempts: int = 0
    local_hits: int = 0
    shared_local_attempts: int = 0
    shared_local_hits: int = 0
    mailbox_hits: int = 0
    remote_attempts: int = 0
    remote_hits: int = 0
    remote_tasks_received: int = 0
    failed_rounds: int = 0

    @property
    def total_steals(self) -> int:
        """All successful steal operations (paper Fig. 3 numerator)."""
        return (self.local_hits + self.shared_local_hits + self.mailbox_hits
                + self.remote_hits)

    @property
    def total_attempts(self) -> int:
        """All steal attempts, successful or not."""
        return (self.local_attempts + self.shared_local_attempts
                + self.remote_attempts)


@dataclass
class RunStats:
    """All observables from one simulated run."""

    n_places: int = 0
    workers_per_place: int = 0
    makespan_cycles: float = 0.0
    tasks_spawned: int = 0
    tasks_executed: int = 0
    tasks_executed_remote: int = 0
    steals: StealCounters = field(default_factory=StealCounters)
    #: (place, worker) -> busy cycles.
    busy_cycles: Dict[Tuple[int, int], float] = field(
        default_factory=lambda: defaultdict(float))
    #: Aggregated L1 counters across all workers.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Fine-grained remote references and bulk block migrations.
    remote_references: int = 0
    block_migrations: int = 0
    #: Cross-node messages / bytes (copied from the network model).
    messages: int = 0
    bytes_transmitted: int = 0
    messages_by_kind: Counter = field(default_factory=Counter)
    #: (src, dst) -> packets (per-link traffic, from the network model).
    messages_by_pair: Counter = field(default_factory=Counter)
    #: Fault-injection observables; ``None`` unless an injector with a
    #: non-empty plan was attached (fault-free snapshots are unchanged).
    faults: Optional["FaultStats"] = None
    #: The online controller's end-of-run ``snapshot()``, or ``None``.
    controller: Optional[Dict[str, object]] = None
    #: Observability summary (event counts by kind, metrics histograms /
    #: sampled series); ``None`` unless an event bus with at least one
    #: sink was attached — unobserved snapshots are byte-identical.
    obs: Optional[Dict[str, object]] = None
    #: Sum and count of task work, for mean-granularity reporting.
    work_sum_cycles: float = 0.0
    work_count: int = 0
    #: Per-label task counts (diagnostics).
    tasks_by_label: Counter = field(default_factory=Counter)

    # -- derived figures --------------------------------------------------
    @property
    def total_workers(self) -> int:
        """Workers in the cluster for this run."""
        return self.n_places * self.workers_per_place

    @property
    def steals_to_task_ratio(self) -> float:
        """Fig. 3's y-axis: successful steals / tasks executed."""
        if not self.tasks_executed:
            return 0.0
        return self.steals.total_steals / self.tasks_executed

    @property
    def l1_miss_rate(self) -> float:
        """Table II's metric: misses / accesses (0 if no accesses)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_misses / total if total else 0.0

    @property
    def mean_task_granularity_cycles(self) -> float:
        """Average pure-compute cycles per executed task (Table I)."""
        return self.work_sum_cycles / self.work_count if self.work_count else 0.0

    def node_utilization(self) -> List[float]:
        """Per-place mean worker utilization in [0, 1] (Fig. 7's series)."""
        if self.makespan_cycles <= 0:
            return [0.0] * self.n_places
        per_place = [0.0] * self.n_places
        for (p, _w), busy in self.busy_cycles.items():
            per_place[p] += busy
        denom = self.workers_per_place * self.makespan_cycles
        return [min(1.0, b / denom) for b in per_place]

    def utilization_mean(self) -> float:
        """Cluster-wide mean node utilization."""
        util = self.node_utilization()
        return sum(util) / len(util) if util else 0.0

    def utilization_spread(self) -> float:
        """Max - min node utilization (the paper's 'disparity', Fig. 7)."""
        util = self.node_utilization()
        return (max(util) - min(util)) if util else 0.0

    def utilization_stdev(self) -> float:
        """Population standard deviation of node utilizations."""
        util = self.node_utilization()
        return statistics.pstdev(util) if len(util) > 1 else 0.0

    def snapshot(self) -> Dict[str, object]:
        """Complete, deterministically-ordered plain-dict view of the run.

        Everything is JSON-serializable, and two identical runs produce
        byte-identical ``json.dumps(snapshot, sort_keys=True)`` output —
        the property the determinism and zero-overhead regression tests
        assert.  The ``"faults"``, ``"controller"`` and ``"obs"`` keys
        appear only when fault injection, an online controller or an
        event bus with sinks was active.
        """
        snap: Dict[str, object] = {
            "places": self.n_places,
            "workers_per_place": self.workers_per_place,
            "makespan_cycles": self.makespan_cycles,
            "tasks": {
                "spawned": self.tasks_spawned,
                "executed": self.tasks_executed,
                "executed_remote": self.tasks_executed_remote,
                "by_label": {k: self.tasks_by_label[k]
                             for k in sorted(self.tasks_by_label)},
            },
            "steals": {
                "local_attempts": self.steals.local_attempts,
                "local_hits": self.steals.local_hits,
                "shared_local_attempts": self.steals.shared_local_attempts,
                "shared_local_hits": self.steals.shared_local_hits,
                "mailbox_hits": self.steals.mailbox_hits,
                "remote_attempts": self.steals.remote_attempts,
                "remote_hits": self.steals.remote_hits,
                "remote_tasks_received": self.steals.remote_tasks_received,
                "failed_rounds": self.steals.failed_rounds,
            },
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "memory": {
                "remote_references": self.remote_references,
                "block_migrations": self.block_migrations,
            },
            "network": {
                "messages": self.messages,
                "bytes": self.bytes_transmitted,
                "by_kind": {k: self.messages_by_kind[k]
                            for k in sorted(self.messages_by_kind)},
                "by_pair": [[src, dst, self.messages_by_pair[(src, dst)]]
                            for src, dst in sorted(self.messages_by_pair)],
            },
            "busy_cycles": [[p, w, self.busy_cycles[(p, w)]]
                            for p, w in sorted(self.busy_cycles)],
            "work": {"sum_cycles": self.work_sum_cycles,
                     "count": self.work_count},
        }
        if self.faults is not None:
            snap["faults"] = self.faults.snapshot()
        if self.controller is not None:
            snap["controller"] = self.controller
        if self.obs is not None:
            snap["obs"] = self.obs
        return snap

    def summary(self) -> Dict[str, object]:
        """Flat dictionary for table rendering."""
        return {
            "places": self.n_places,
            "workers": self.total_workers,
            "makespan_cycles": self.makespan_cycles,
            "tasks_executed": self.tasks_executed,
            "tasks_remote": self.tasks_executed_remote,
            "steals": self.steals.total_steals,
            "steal_ratio": self.steals_to_task_ratio,
            "l1_miss_rate": self.l1_miss_rate,
            "messages": self.messages,
            "utilization_mean": self.utilization_mean(),
            "utilization_spread": self.utilization_spread(),
        }
