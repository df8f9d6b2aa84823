"""The per-experiment registry: every table and figure of the paper.

Each ``fig*``/``table*`` function runs the experiment matrix and returns
an :class:`ExperimentOutput` holding structured rows plus a rendered text
artifact.  The benchmarks under ``benchmarks/`` call these with reduced
repetition counts; ``examples/reproduce_paper.py`` runs them all.

Every function declares its whole (app x scheduler x cluster x seed)
grid up front and executes it through
:func:`repro.harness.parallel.run_cells`, so an enclosing
``with execution(parallel=N, store_path=...)`` block shards the grid over
helper processes and memoises finished cells in the experiment store —
results stay byte-identical to serial execution for the same seeds.

Paper artifacts covered:

========  ==========================================================
fig3      steals-to-task ratio per benchmark (DistWS, 128 workers)
fig4      sequential execution time per benchmark
fig5      speedup vs worker count, X10WS vs DistWS
table1    task granularities (ms)
table2    L1 data-cache miss rates (%), three schedulers
table3    messages transmitted across nodes, three schedulers
fig6      speedups of X10WS / DistWS-NS / DistWS at 128 workers
fig7      per-node CPU utilization, three schedulers
chunk     §VIII.2 steal-chunk-size study + micro-app granularity study
uts       §X UTS: DistWS vs randomized stealing vs lifeline
========  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.apps import PAPER_APPS
from repro.apps.micro import MICRO_APPS
from repro.cluster.costmodel import DEFAULT_COST_MODEL
from repro.cluster.topology import ClusterSpec, paper_cluster, worker_sweep
from repro.harness.experiment import CellResult
from repro.harness.figures import bar_chart, grouped_bars, series_lines
from repro.harness.parallel import CellRequest, run_cells
from repro.harness.tables import render_table
from repro.tune.space import accepted_kwargs

#: The three schedulers of Tables II/III and Figs. 6/7.
MAIN_SCHEDULERS = ("X10WS", "DistWS-NS", "DistWS")


@dataclass
class ExperimentOutput:
    """Structured result + rendered text for one paper artifact."""

    experiment: str
    headers: List[str]
    rows: List[list]
    rendered: str
    extra: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.rendered


def _ms(cycles: float) -> float:
    return cycles / DEFAULT_COST_MODEL.cycles_per_ms


# ---------------------------------------------------------------------------
def fig3(apps: Sequence[str] = PAPER_APPS, sched_seeds=(1,),
         scale: str = "bench", sched_kwargs=None) -> ExperimentOutput:
    """Fig. 3: steals-to-task ratio (DistWS at 128 workers)."""
    cells = run_cells([CellRequest.build(
        app, "DistWS", paper_cluster(), sched_seeds=sched_seeds,
        scale=scale, sched_kwargs=accepted_kwargs("DistWS", sched_kwargs))
        for app in apps])
    rows = []
    for app, cell in zip(apps, cells):
        stats = cell.runs[0].stats
        remote = stats.steals.remote_hits
        rows.append([app, stats.steals.total_steals, remote,
                     stats.tasks_executed, stats.steals_to_task_ratio,
                     remote / max(stats.tasks_executed, 1)])
    rendered = render_table(
        ["app", "steals", "remote", "tasks", "steals/task",
         "remote/task"], rows,
        title="Fig. 3 — steals-to-task ratio (DistWS, 128 workers)")
    return ExperimentOutput(
        "fig3",
        ["app", "steals", "remote", "tasks", "ratio", "remote_ratio"],
        rows, rendered)


def fig4(apps: Sequence[str] = PAPER_APPS,
         scale: str = "bench", sched_kwargs=None) -> ExperimentOutput:
    """Fig. 4: sequential execution time per application."""
    one_worker = ClusterSpec(n_places=1, workers_per_place=1,
                             max_threads=2)
    cells = run_cells([CellRequest.build(
        app, "X10WS", one_worker, sched_seeds=(1,), scale=scale,
        sched_kwargs=accepted_kwargs("X10WS", sched_kwargs))
        for app in apps])
    rows = []
    for app, cell in zip(apps, cells):
        run = cell.runs[0]
        rows.append([app, _ms(run.sequential_cycles),
                     _ms(run.stats.makespan_cycles)])
    rendered = render_table(
        ["app", "sequential (ms)", "1-worker makespan (ms)"], rows,
        title="Fig. 4 — sequential execution time")
    return ExperimentOutput("fig4", ["app", "seq_ms", "one_worker_ms"],
                            rows, rendered)


def fig5(apps: Sequence[str] = PAPER_APPS,
         worker_counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128),
         sched_seeds=(1, 2), scale: str = "bench",
         sched_kwargs=None) -> ExperimentOutput:
    """Fig. 5: speedup vs worker count for X10WS and DistWS."""
    rows = []
    series: Dict[str, Dict[str, List[float]]] = {}
    specs = worker_sweep(worker_counts)
    grid = [(app, spec, sched)
            for app in apps
            for spec in specs
            for sched in ("X10WS", "DistWS")]
    cells = run_cells([CellRequest.build(
        app, sched, spec, sched_seeds=sched_seeds, scale=scale,
        sched_kwargs=accepted_kwargs(sched, sched_kwargs))
        for app, spec, sched in grid])
    for app in apps:
        series[app] = {"X10WS": [], "DistWS": []}
    for (app, spec, sched), cell in zip(grid, cells):
        sp = cell.mean_speedup
        series[app][sched].append(sp)
        rows.append([app, sched, spec.total_workers, sp,
                     cell.mean_makespan_ms])
    blocks = []
    for app in apps:
        blocks.append(series_lines(
            list(worker_counts), series[app],
            title=f"Fig. 5 — {app}: speedup vs workers"))
    rendered = "\n\n".join(blocks)
    return ExperimentOutput(
        "fig5", ["app", "sched", "workers", "speedup", "makespan_ms"],
        rows, rendered, extra={"series": series})


def table1(apps: Sequence[str] = PAPER_APPS,
           scale: str = "bench", sched_kwargs=None) -> ExperimentOutput:
    """Table I: mean task granularities (ms)."""
    cells = run_cells([CellRequest.build(
        app, "DistWS", paper_cluster(), sched_seeds=(1,), scale=scale,
        sched_kwargs=accepted_kwargs("DistWS", sched_kwargs))
        for app in apps])
    rows = []
    for app, cell in zip(apps, cells):
        stats = cell.runs[0].stats
        rows.append([app, _ms(stats.mean_task_granularity_cycles)])
    rendered = render_table(["app", "granularity (ms)"], rows,
                            title="Table I — task granularities")
    return ExperimentOutput("t1", ["app", "granularity_ms"], rows,
                            rendered)


def _three_scheduler_matrix(apps, sched_seeds, scale, sched_kwargs=None):
    grid = [(app, sched) for app in apps for sched in MAIN_SCHEDULERS]
    results = run_cells([CellRequest.build(
        app, sched, paper_cluster(), sched_seeds=sched_seeds, scale=scale,
        sched_kwargs=accepted_kwargs(sched, sched_kwargs))
        for app, sched in grid])
    cells: Dict[tuple, CellResult] = dict(zip(grid, results))
    return cells


def table2(apps: Sequence[str] = PAPER_APPS, sched_seeds=(1,),
           scale: str = "bench", cells: Optional[dict] = None,
           sched_kwargs=None) -> ExperimentOutput:
    """Table II: L1 data-cache miss rates (%) at 128 workers."""
    cells = cells or _three_scheduler_matrix(apps, sched_seeds, scale,
                                             sched_kwargs)
    rows = []
    for app in apps:
        rows.append([app] + [
            100 * cells[(app, s)].mean(lambda r: r.stats.l1_miss_rate)
            for s in MAIN_SCHEDULERS])
    rendered = render_table(["app", *MAIN_SCHEDULERS], rows,
                            title="Table II — L1d miss rates (%)")
    return ExperimentOutput("t2", ["app", *MAIN_SCHEDULERS], rows,
                            rendered)


def table3(apps: Sequence[str] = PAPER_APPS, sched_seeds=(1,),
           scale: str = "bench", cells: Optional[dict] = None,
           sched_kwargs=None) -> ExperimentOutput:
    """Table III: messages transmitted across nodes at 128 workers."""
    cells = cells or _three_scheduler_matrix(apps, sched_seeds, scale,
                                             sched_kwargs)
    rows = []
    for app in apps:
        rows.append([app] + [
            int(cells[(app, s)].mean(lambda r: r.stats.messages))
            for s in MAIN_SCHEDULERS])
    rendered = render_table(["app", *MAIN_SCHEDULERS], rows,
                            title="Table III — messages across nodes")
    return ExperimentOutput("t3", ["app", *MAIN_SCHEDULERS], rows,
                            rendered)


def fig6(apps: Sequence[str] = PAPER_APPS, sched_seeds=(1, 2),
         scale: str = "bench", cells: Optional[dict] = None,
         sched_kwargs=None) -> ExperimentOutput:
    """Fig. 6: speedups of the three schedulers at 128 workers."""
    cells = cells or _three_scheduler_matrix(apps, sched_seeds, scale,
                                             sched_kwargs)
    rows = []
    series = {s: [] for s in MAIN_SCHEDULERS}
    for app in apps:
        vals = [cells[(app, s)].mean_speedup for s in MAIN_SCHEDULERS]
        rows.append([app] + vals)
        for s, v in zip(MAIN_SCHEDULERS, vals):
            series[s].append(v)
    rendered = grouped_bars(list(apps), series,
                            title="Fig. 6 — speedups at 128 workers")
    return ExperimentOutput("fig6", ["app", *MAIN_SCHEDULERS], rows,
                            rendered, extra={"series": series})


def fig7(apps: Sequence[str] = PAPER_APPS, sched_seeds=(1,),
         scale: str = "bench", cells: Optional[dict] = None,
         sched_kwargs=None) -> ExperimentOutput:
    """Fig. 7: per-node CPU utilization under the three schedulers."""
    cells = cells or _three_scheduler_matrix(apps, sched_seeds, scale,
                                             sched_kwargs)
    rows = []
    blocks = []
    for app in apps:
        per_sched = {}
        for s in MAIN_SCHEDULERS:
            stats = cells[(app, s)].runs[0].stats
            util = stats.node_utilization()
            per_sched[s] = util
            rows.append([app, s, stats.utilization_mean(),
                         stats.utilization_spread(),
                         stats.utilization_stdev()])
        blocks.append(series_lines(
            list(range(len(per_sched["DistWS"]))), per_sched,
            title=f"Fig. 7 — {app}: per-node utilization"))
    rendered = "\n\n".join(blocks)
    return ExperimentOutput(
        "fig7", ["app", "sched", "mean", "spread", "stdev"], rows,
        rendered)


def chunk_study(chunks: Sequence[int] = (1, 2, 4, 8),
                app: str = "turing", sched_seeds=(1, 2),
                scale: str = "bench", sched_kwargs=None) -> ExperimentOutput:
    """§VIII.2a: how the distributed steal chunk size affects makespan."""
    base = accepted_kwargs("DistWS", sched_kwargs) or {}
    cells = run_cells([CellRequest.build(
        app, "DistWS", paper_cluster(), sched_seeds=sched_seeds,
        scale=scale, sched_kwargs={**base, "remote_chunk_size": c})
        for c in chunks])
    rows = [[c, cell.mean_makespan_ms, cell.mean_speedup]
            for c, cell in zip(chunks, cells)]
    rendered = render_table(
        ["chunk", "makespan (ms)", "speedup"], rows,
        title=f"§VIII.2 — steal chunk size study ({app})")
    return ExperimentOutput("chunk", ["chunk", "makespan_ms", "speedup"],
                            rows, rendered)


def granularity_study(sched_seeds=(1,), scale: str = "bench",
                      sched_kwargs=None) -> ExperimentOutput:
    """§VIII.2b: DistWS vs X10WS on the five fine-grained micro apps.

    The paper: "The DistWS algorithm performed worse on these smaller
    applications" — fine tasks cannot amortise distributed-steal costs.
    """
    grid = [(cls, sched) for cls in MICRO_APPS
            for sched in ("X10WS", "DistWS")]
    cells = run_cells([CellRequest.build(
        cls.name, sched, paper_cluster(), sched_seeds=sched_seeds,
        scale=scale, sched_kwargs=accepted_kwargs(sched, sched_kwargs))
        for cls, sched in grid])
    per_app = {}
    for (cls, sched), cell in zip(grid, cells):
        per_app.setdefault(cls, {})[sched] = cell.mean_makespan_ms
    rows = []
    for cls in MICRO_APPS:
        per = per_app[cls]
        rows.append([cls.name, cls.granularity_ms, per["X10WS"],
                     per["DistWS"],
                     100 * (per["X10WS"] / per["DistWS"] - 1)])
    rendered = render_table(
        ["app", "granularity (ms)", "X10WS (ms)", "DistWS (ms)",
         "DistWS gain (%)"], rows,
        title="§VIII.2 — micro-app granularity study")
    return ExperimentOutput(
        "granularity",
        ["app", "granularity_ms", "x10ws_ms", "distws_ms", "gain_pct"],
        rows, rendered)


def uts_study(sched_seeds=(1, 2), scale: str = "bench",
              sched_kwargs=None) -> ExperimentOutput:
    """§X: UTS under DistWS vs randomized stealing vs lifelines."""
    schedulers = ("RandomWS", "DistWS", "Lifeline")
    cells = run_cells([CellRequest.build(
        "uts", sched, paper_cluster(), sched_seeds=sched_seeds,
        scale=scale, sched_kwargs=accepted_kwargs(sched, sched_kwargs))
        for sched in schedulers])
    rows = [[sched, cell.mean_makespan_ms, cell.mean_speedup]
            for sched, cell in zip(schedulers, cells)]
    base = rows[0][1]
    for row in rows:
        row.append(100 * (base / row[1] - 1))
    rendered = render_table(
        ["scheduler", "makespan (ms)", "speedup", "vs RandomWS (%)"],
        rows, title="§X — UTS: steal-strategy comparison")
    return ExperimentOutput(
        "uts", ["scheduler", "makespan_ms", "speedup", "vs_random_pct"],
        rows, rendered)


#: All paper artifacts by id (used by the reproduce-everything example).
EXPERIMENTS = {
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "fig6": fig6,
    "fig7": fig7,
    "chunk": chunk_study,
    "granularity": granularity_study,
    "uts": uts_study,
}
