"""Post-run analysis: traces, critical paths, timelines, exports."""

from repro.analysis.critical_path import CriticalPath, critical_path
from repro.analysis.fleet_report import sweep_report_html, write_report
from repro.analysis.report import (
    experiment_to_json,
    trace_to_json,
)
from repro.analysis.svg import grouped_bar_chart, line_chart
from repro.analysis.theory import (
    LAMBDA_GRID_FULL,
    LAMBDA_GRID_QUICK,
    LatencyFit,
    TheoryReport,
    fit_latency_model,
    run_theory_sweep,
)
from repro.analysis.timeline import place_timeline, steal_flow
from repro.analysis.trace import TaskRecord, Trace, TraceRecorder

__all__ = [
    "CriticalPath",
    "LAMBDA_GRID_FULL",
    "LAMBDA_GRID_QUICK",
    "LatencyFit",
    "TaskRecord",
    "TheoryReport",
    "Trace",
    "TraceRecorder",
    "critical_path",
    "experiment_to_json",
    "fit_latency_model",
    "grouped_bar_chart",
    "line_chart",
    "run_theory_sweep",
    "place_timeline",
    "steal_flow",
    "sweep_report_html",
    "trace_to_json",
    "write_report",
]
