"""Latency recording and the serve benchmark report.

:class:`LatencyRecorder` aggregates one load-generation run: per-class
(and overall) latency distributions, outcome counts, and goodput.  Two
views of every distribution are kept:

- **exact percentiles** from the retained samples — the headline
  p50/p90/p99 numbers balancers are compared on (octave-resolution
  buckets cannot separate two balancers less than 2× apart);
- a :class:`repro.obs.Histogram` per class — the same log₂-bucketed,
  exactly-mergeable structure the fleet telemetry uses, so serve runs
  roll up with ``rollup_histograms`` like any other repro run.

``build_report`` assembles cells into the ``repro.harness.bench`` JSON
shape (``schema``/``benchmark``/``cells``/``total_wall_seconds`` plus
the machine-speed calibration score), which is what makes a committed
``BENCH_serve.json`` comparable across PRs; ``report_svg`` renders the
per-balancer latency figure through :mod:`repro.analysis.svg`.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import Histogram
from repro.serve.traffic import CLS_FLEX, CLS_STICKY

SCHEMA_VERSION = 1

#: Aggregation classes: the two request classes plus the overall view.
CLASSES = (CLS_STICKY, CLS_FLEX)
ALL = "all"

#: The percentiles every latency block reports.
PERCENTILES = (0.50, 0.90, 0.99)


def exact_percentile(sorted_samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over pre-sorted samples (0 when empty)."""
    if not sorted_samples:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_samples)))
    return sorted_samples[min(rank, len(sorted_samples)) - 1]


class LatencyRecorder:
    """Aggregates outcomes and latencies for one run."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {ALL: []}
        self.histograms: Dict[str, Histogram] = {ALL: Histogram()}
        for cls in CLASSES:
            self.samples[cls] = []
            self.histograms[cls] = Histogram()
        self.counters: Counter = Counter()

    def record(self, cls: str, outcome: str,
               latency_s: Optional[float] = None,
               relaxed: bool = False, warm: Optional[bool] = None) -> None:
        """Record one terminal request outcome."""
        self.counters["offered"] += 1
        self.counters[f"outcome_{outcome}"] += 1
        self.counters[f"{cls}_{outcome}"] += 1
        if relaxed:
            self.counters["relaxed"] += 1
        if warm is True:
            self.counters["warm"] += 1
        elif warm is False:
            self.counters["cold"] += 1
        if outcome == "ok" and latency_s is not None:
            ms = latency_s * 1000.0
            for key in (ALL, cls):
                if key in self.samples:
                    self.samples[key].append(ms)
                    self.histograms[key].record(ms)

    # -- views -------------------------------------------------------------
    def latency_block(self, cls: str) -> Dict[str, object]:
        """Exact percentile summary for one class (ms)."""
        xs = sorted(self.samples.get(cls, ()))
        block: Dict[str, object] = {
            "count": len(xs),
            "mean": round(sum(xs) / len(xs), 3) if xs else 0.0,
            "max": round(xs[-1], 3) if xs else 0.0,
        }
        for q in PERCENTILES:
            block[f"p{int(q * 100)}"] = round(exact_percentile(xs, q), 3)
        return block

    def goodput_rps(self, duration_s: float) -> float:
        if duration_s <= 0:
            return 0.0
        return round(self.counters["outcome_ok"] / duration_s, 2)

    def requests_block(self) -> Dict[str, int]:
        c = self.counters
        return {
            "offered": c["offered"],
            "ok": c["outcome_ok"],
            "shed": c["outcome_shed"],
            "failed": c["outcome_failed"],
            "relaxed": c["relaxed"],
            "warm": c["warm"],
            "cold": c["cold"],
        }

    def cell(self, name: str, config: dict, duration_s: float,
             wall_seconds: float,
             service_counters: Optional[dict] = None) -> dict:
        """One report cell in the bench-report shape."""
        return {
            "cell": name,
            "config": dict(config),
            "requests": self.requests_block(),
            "latency_ms": {key: self.latency_block(key)
                           for key in (ALL, *CLASSES)},
            "goodput_rps": self.goodput_rps(duration_s),
            "histograms": {key: self.histograms[key].snapshot()
                           for key in (ALL, *CLASSES)},
            "counters": service_counters or {},
            "wall_seconds": round(wall_seconds, 6),
        }


def build_report(cells: List[dict]) -> dict:
    """Assemble cells into the ``repro.harness.bench``-format report."""
    from repro.harness.bench import calibrate

    return {
        "schema": SCHEMA_VERSION,
        "benchmark": "serve",
        "calibration_ops_per_sec": round(calibrate(rounds=1), 1),
        "cells": cells,
        "total_wall_seconds": round(
            sum(c["wall_seconds"] for c in cells), 6),
    }


def report_svg(report: dict, percentile_keys: Tuple[str, ...] =
               ("p50", "p90", "p99")) -> str:
    """Latency figure: per-balancer percentile bars, sticky vs flex."""
    from repro.analysis.svg import grouped_bar_chart

    groups: List[str] = []
    for cls in (ALL, *CLASSES):
        groups.extend(f"{cls} {p}" for p in percentile_keys)
    series: Dict[str, List[float]] = {}
    for cell in report["cells"]:
        vals: List[float] = []
        for cls in (ALL, *CLASSES):
            block = cell["latency_ms"][cls]
            vals.extend(float(block[p]) for p in percentile_keys)
        series[cell["cell"]] = vals
    return grouped_bar_chart(groups, series,
                             title="request latency by balancer",
                             y_label="latency (ms)")


def render(report: dict) -> str:
    """Human-readable table of a serve report."""
    from repro.harness.tables import render_table

    rows = []
    for cell in report["cells"]:
        req = cell["requests"]
        lat = cell["latency_ms"][ALL]
        rows.append([
            cell["cell"], req["ok"], req["shed"], req["failed"],
            f"{lat['p50']:.1f}", f"{lat['p90']:.1f}", f"{lat['p99']:.1f}",
            f"{cell['goodput_rps']:.0f}",
        ])
    return render_table(
        ["cell", "ok", "shed", "failed", "p50 (ms)", "p90 (ms)",
         "p99 (ms)", "goodput (r/s)"],
        rows, title="serve benchmark")


def to_json(report: dict) -> str:
    """Canonical serialization (sorted keys, 1-space indent)."""
    return json.dumps(report, sort_keys=True, indent=1) + "\n"
