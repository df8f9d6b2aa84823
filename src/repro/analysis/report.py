"""Machine-readable exports of runs and experiment outputs.

JSON writers for :class:`~repro.harness.paper.ExperimentOutput`
and traces — so results can be archived, diffed across commits, or
plotted elsewhere.  A run's statistics have one serialization,
:meth:`~repro.runtime.stats.RunStats.snapshot`.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.analysis.trace import Trace
from repro.harness.paper import ExperimentOutput


def experiment_to_json(out: ExperimentOutput,
                       indent: Optional[int] = 2) -> str:
    """JSON text of one paper artifact's structured rows."""
    return json.dumps({
        "experiment": out.experiment,
        "headers": out.headers,
        "rows": out.rows,
    }, indent=indent, sort_keys=True)


def trace_to_json(trace: Trace, indent: Optional[int] = None) -> str:
    """JSON text of a full execution trace (one object per task)."""
    return json.dumps({
        "makespan": trace.makespan,
        "n_places": trace.n_places,
        "workers_per_place": trace.workers_per_place,
        "cycles_per_ms": trace.cycles_per_ms,
        "tasks": [{
            "id": t.task_id,
            "label": t.label,
            "parent": t.parent_id,
            "home": t.home_place,
            "exec": t.exec_place,
            "worker": t.worker,
            "spawn": t.spawn_time,
            "start": t.start_time,
            "end": t.end_time,
            "work": t.work,
            "flexible": t.flexible,
            "stolen_remotely": t.stolen_remotely,
        } for t in trace.tasks],
    }, indent=indent)
