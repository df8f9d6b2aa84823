"""Benchmark harness: experiment runner + the paper's table/figure registry."""

from repro.harness.db import (
    ExperimentStore,
    QuarantinedError,
    StoreError,
    drain,
    graceful_signals,
    run_worker,
)
from repro.harness.experiment import CellResult, RunResult, run_cell
from repro.harness.figures import bar_chart, grouped_bars, series_lines
from repro.harness.parallel import (
    CellRequest,
    ExecutionContext,
    RunSpec,
    current_context,
    execution,
    run_cells,
)
from repro.harness.paper import (
    EXPERIMENTS,
    MAIN_SCHEDULERS,
    ExperimentOutput,
    chunk_study,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    granularity_study,
    table1,
    table2,
    table3,
    uts_study,
)
from repro.harness.tables import render_table

__all__ = [
    "CellRequest",
    "CellResult",
    "EXPERIMENTS",
    "ExecutionContext",
    "ExperimentOutput",
    "ExperimentStore",
    "MAIN_SCHEDULERS",
    "QuarantinedError",
    "RunResult",
    "RunSpec",
    "StoreError",
    "bar_chart",
    "chunk_study",
    "current_context",
    "drain",
    "execution",
    "graceful_signals",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "granularity_study",
    "grouped_bars",
    "render_table",
    "run_cell",
    "run_cells",
    "run_worker",
    "series_lines",
    "table1",
    "table2",
    "table3",
    "uts_study",
]
