"""Kernel performance benchmark: the repo's perf trajectory baseline.

``run_grid`` executes a fixed (application x scheduler) grid of
simulations and measures, per cell:

- **wall-clock seconds** (best of N repeats — the headline metric);
- **events/sec** (heap events processed per wall-clock second, from
  :attr:`Environment.events_processed`);
- **simulated observables** (makespan, tasks executed, total steals)
  and the **event count** — these are deterministic and double as a
  drift guard: a kernel change that alters them is a correctness bug,
  not a perf difference;
- **peak RSS** (``ru_maxrss``; process-lifetime monotone, so later cells
  report the running maximum).

The report also records a **calibration score**: a fixed pure-Python
workload timed on the same interpreter/machine.  Comparing wall-clock
across machines is meaningless in absolute terms, so ``compare``
normalizes candidate wall times by the calibration ratio before applying
the regression threshold — the committed ``BENCH_kernel.json`` baseline
stays useful on any CI runner.

Timing fields (``wall_seconds``, ``best_wall_seconds``,
``events_per_sec``, ``peak_rss_kb``, ``calibration_ops_per_sec``) vary
run to run; everything else in the report is byte-deterministic.
"""

from __future__ import annotations

import json
import resource
import time
from typing import Dict, List, Tuple

SCHEMA_VERSION = 1

#: The default grid: steal-heavy irregular trees (uts), barrier-phased
#: ring exchange with heavy idle park/wake churn (turing), and a flat
#: embarrassingly-parallel sweep (mcpi), across the scheduler families
#: (board-driven DistWS, shared-deque X10WS, blind lifeline stealing).
DEFAULT_GRID: List[Dict] = [
    {"app": "uts", "scheduler": "DistWS", "places": 16, "workers": 8,
     "scale": "bench"},
    {"app": "uts", "scheduler": "X10WS", "places": 16, "workers": 8,
     "scale": "bench"},
    {"app": "uts", "scheduler": "Lifeline", "places": 16, "workers": 8,
     "scale": "bench"},
    {"app": "turing", "scheduler": "DistWS", "places": 16, "workers": 8,
     "scale": "bench"},
    {"app": "turing", "scheduler": "X10WS", "places": 16, "workers": 8,
     "scale": "bench"},
    {"app": "mcpi", "scheduler": "DistWS", "places": 16, "workers": 8,
     "scale": "bench"},
    # Raw kernel dispatch throughput: no runtime, no scheduler — just the
    # event heap and the handle-based resume path, the surface the flat
    # kernel rebuilt.  The app cells above measure the *simulator*
    # (dominated by task bodies and policy code); this cell isolates the
    # events/sec ceiling of the kernel itself.
    {"app": "kernelspin", "scheduler": "flat", "places": 1, "workers": 4,
     "scale": "bench", "events": 2_000_000},
]

#: CI-sized subset: sub-second cells, same code paths.
QUICK_GRID: List[Dict] = [
    {"app": "uts", "scheduler": "DistWS", "places": 8, "workers": 4,
     "scale": "test"},
    {"app": "turing", "scheduler": "DistWS", "places": 8, "workers": 4,
     "scale": "test"},
    {"app": "uts", "scheduler": "Lifeline", "places": 8, "workers": 4,
     "scale": "test"},
]

APP_SEED = 12345
SCHED_SEED = 1


def cell_key(cell: Dict) -> str:
    """Stable identifier for one grid cell."""
    return (f"{cell['app']}|{cell['scheduler']}|{cell['places']}x"
            f"{cell['workers']}|{cell['scale']}")


def calibrate(rounds: int = 3) -> float:
    """Machine-speed score: ops/sec of a fixed pure-Python workload.

    The workload (integer arithmetic + list/dict traffic) roughly matches
    the simulator's instruction mix, so the ratio between two machines'
    scores predicts the ratio of their simulation wall times well enough
    for a coarse regression gate.
    """
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        acc = 0
        table: Dict[int, int] = {}
        items: List[int] = []
        for i in range(200_000):
            acc += i * 3 + (i >> 2)
            if i & 7 == 0:
                table[i & 1023] = acc
                items.append(i)
                if len(items) > 64:
                    items.pop(0)
        best = min(best, time.perf_counter() - t0)
    return 200_000 / best


def run_spin_cell(cell: Dict, repeats: int = 3) -> Dict:
    """Measure raw kernel dispatch: N sleep-resume events, no runtime.

    ``workers`` concurrent spinner processes share every due time, so the
    run loop's same-cycle batch drain is exercised on each clock step;
    each event is one heap pop plus one handle-armed generator resume —
    the kernel's hottest path stripped of simulator logic.
    """
    from repro.sim.engine import Environment

    n_events = int(cell.get("events", 2_000_000))
    n_spinners = max(1, int(cell["workers"]))
    per = n_events // n_spinners
    walls: List[float] = []
    events = 0
    now = 0.0
    for _ in range(max(1, repeats)):
        env = Environment()

        def spinner(env: "Environment" = env, per: int = per):
            sleep = env.sleep
            for _ in range(per):
                yield sleep(1.0)

        for _ in range(n_spinners):
            env.process(spinner())
        t0 = time.perf_counter()
        env.run()
        walls.append(time.perf_counter() - t0)
        events = env.events_processed
        now = env.now
    best = min(walls)
    return {
        "cell": cell_key(cell),
        "config": dict(cell),
        "repeats": len(walls),
        "wall_seconds": [round(w, 6) for w in walls],
        "best_wall_seconds": round(best, 6),
        # Deterministic observables, same schema as the app cells: the
        # drift guard catches a kernel change that alters event accounting.
        "simulated": {"makespan_cycles": now, "tasks_executed": 0,
                      "total_steals": 0},
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "events_processed": events,
        "events_per_sec": round(events / best, 1),
    }


def run_cell(cell: Dict, repeats: int = 3) -> Dict:
    """Run one grid cell ``repeats`` times; report best wall + observables."""
    from repro import ClusterSpec, SimRuntime, make_scheduler
    from repro.apps import make_app
    from repro.runtime.task import _reset_task_ids

    if cell["app"] == "kernelspin":
        return run_spin_cell(cell, repeats=repeats)

    walls: List[float] = []
    events = 0
    sim: Dict[str, object] = {}
    for _ in range(max(1, repeats)):
        _reset_task_ids()
        spec = ClusterSpec(n_places=cell["places"],
                           workers_per_place=cell["workers"],
                           max_threads=cell["workers"] + 4)
        rt = SimRuntime(spec, make_scheduler(cell["scheduler"]),
                        seed=cell.get("sched_seed", SCHED_SEED))
        app = make_app(cell["app"], scale=cell["scale"],
                       seed=cell.get("app_seed", APP_SEED))
        t0 = time.perf_counter()
        stats = app.run(rt, validate=False)
        walls.append(time.perf_counter() - t0)
        events = rt.env.events_processed
        sim = {
            "makespan_cycles": stats.makespan_cycles,
            "tasks_executed": stats.tasks_executed,
            "total_steals": stats.steals.total_steals,
        }
    best = min(walls)
    return {
        "cell": cell_key(cell),
        "config": dict(cell),
        "repeats": len(walls),
        "wall_seconds": [round(w, 6) for w in walls],
        "best_wall_seconds": round(best, 6),
        "simulated": sim,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "events_processed": events,
        "events_per_sec": round(events / best, 1),
    }


def run_grid(cells: List[Dict], repeats: int = 3) -> Dict:
    """Run the whole grid and assemble the benchmark report."""
    report: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "benchmark": "kernel",
        "calibration_ops_per_sec": round(calibrate(), 1),
        "cells": [],
    }
    total = 0.0
    for cell in cells:
        row = run_cell(cell, repeats=repeats)
        report["cells"].append(row)
        total += row["best_wall_seconds"]
    report["total_wall_seconds"] = round(total, 6)
    return report


def compare(baseline: Dict, candidate: Dict,
            max_regression_pct: float = 20.0) -> Tuple[bool, List[str]]:
    """Gate ``candidate`` against ``baseline``.

    Wall-clock is compared after normalizing by the calibration ratio
    (candidate measured on a machine 2x faster than the baseline's is
    scaled back up 2x).  Simulated observables and ``events_processed``
    must match *exactly* — any drift is reported as a failure regardless
    of the threshold: an event count that moves while the physics stay
    put means a heap entry was skipped or double-counted.
    """
    lines: List[str] = []
    ok = True
    cal_base = float(baseline.get("calibration_ops_per_sec") or 0.0)
    cal_cand = float(candidate.get("calibration_ops_per_sec") or 0.0)
    speed_ratio = (cal_cand / cal_base) if cal_base and cal_cand else 1.0
    lines.append(f"calibration ratio (candidate/baseline machine speed): "
                 f"{speed_ratio:.3f}")
    base_cells = {c["cell"]: c for c in baseline.get("cells", [])}
    norm_total = 0.0
    base_total = 0.0
    for row in candidate.get("cells", []):
        base = base_cells.get(row["cell"])
        if base is None:
            lines.append(f"  {row['cell']}: not in baseline (skipped)")
            continue
        if row["simulated"] != base["simulated"]:
            ok = False
            lines.append(f"  {row['cell']}: SIMULATED METRICS DRIFTED "
                         f"{base['simulated']} -> {row['simulated']}")
            continue
        if row.get("events_processed") != base.get("events_processed"):
            ok = False
            lines.append(f"  {row['cell']}: EVENTS_PROCESSED DRIFTED "
                         f"{base.get('events_processed')} -> "
                         f"{row.get('events_processed')}")
            continue
        norm = row["best_wall_seconds"] * speed_ratio
        pct = 100.0 * (norm - base["best_wall_seconds"]) \
            / base["best_wall_seconds"]
        norm_total += norm
        base_total += base["best_wall_seconds"]
        lines.append(f"  {row['cell']}: {base['best_wall_seconds']:.3f}s -> "
                     f"{norm:.3f}s normalized ({pct:+.1f}%)")
    if base_total > 0:
        total_pct = 100.0 * (norm_total - base_total) / base_total
        lines.append(f"grid total: {base_total:.3f}s -> {norm_total:.3f}s "
                     f"normalized ({total_pct:+.1f}%), "
                     f"threshold +{max_regression_pct:g}%")
        if total_pct > max_regression_pct:
            ok = False
            lines.append("FAIL: wall-clock regression over threshold")
    else:
        lines.append("no comparable cells")
    return ok, lines


def render(report: Dict) -> str:
    """Human-readable table of a benchmark report."""
    from repro.harness.tables import render_table
    rows = []
    for row in report["cells"]:
        sim = row["simulated"]
        rows.append([
            row["cell"],
            f"{row['best_wall_seconds']:.3f}",
            f"{row.get('events_per_sec', '-')}",
            f"{sim['tasks_executed']}",
            f"{row['peak_rss_kb']}",
        ])
    table = render_table(
        ["cell", "best wall (s)", "events/sec", "tasks", "peak RSS (KB)"],
        rows, title="kernel benchmark")
    return (f"{table}\n\ntotal wall: {report['total_wall_seconds']:.3f}s   "
            f"calibration: {report['calibration_ops_per_sec']:.0f} ops/s")


def to_json(report: Dict) -> str:
    """Canonical serialization (sorted keys, 1-space indent)."""
    return json.dumps(report, sort_keys=True, indent=1) + "\n"
