"""Static HTML sweep report for a drained experiment store.

``repro report --store sweep.db --out report/`` renders one
self-contained page (inline SVG, no external assets — the environment
is offline) from the store's telemetry:

- fleet throughput timeline: cumulative completed cells per worker,
  binned over the sweep's wall-clock span;
- steal-latency rollup: the fleet-wide merged histograms (the campaign
  aggregate of Gast et al., arXiv:1805.00857) as a bucket chart plus a
  percentile table;
- worker summary: per-owner cells, failures, reclaims, throughput;
- perf trajectory: the sweep's cells, mean cell wall time and
  cells/sec per (app, scheduler) pair, from telemetry.

Everything here is read-only over :class:`ExperimentStore` views and
plain dicts, so it is unit-testable without a live fleet.
"""

from __future__ import annotations

import html
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.svg import grouped_bar_chart, line_chart
from repro.obs.fleet import rollup_histograms, rollup_rows

_STYLE = """
body { font-family: Helvetica, Arial, sans-serif; margin: 2em auto;
       max-width: 960px; color: #222; }
h1 { border-bottom: 2px solid #4477aa; padding-bottom: .3em; }
h2 { color: #4477aa; margin-top: 2em; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { border: 1px solid #ccc; padding: .35em .7em; font-size: 13px;
         text-align: right; }
th { background: #eef2f7; }
td:first-child, th:first-child { text-align: left; }
.meta { color: #666; font-size: 13px; }
"""


def _esc(text: object) -> str:
    return html.escape(str(text))


def _html_table(headers: Sequence[object],
                rows: Sequence[Sequence[object]]) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(c)}</td>" for c in row) + "</tr>"
        for row in rows)
    return f"<table><tr>{head}</tr>{body}</table>"


def throughput_series(
        tel_rows, bins: int = 24
) -> Tuple[List[str], Dict[str, List[float]]]:
    """Cumulative completed cells per worker over the sweep's span.

    ``tel_rows`` are :class:`~repro.harness.db.TelemetryRow`\\ s.  Returns
    ``(x_labels, {owner: cumulative_counts})`` binned into ``bins``
    equal wall-clock slices from first to last completion — the shape
    :func:`repro.analysis.svg.line_chart` takes directly.
    """
    if not tel_rows:
        return [], {}
    t0 = min(r.finished_at for r in tel_rows)
    t1 = max(r.finished_at for r in tel_rows)
    span = max(t1 - t0, 1e-9)
    bins = max(1, min(bins, len(tel_rows)))
    owners = []
    for r in tel_rows:
        if r.owner not in owners:
            owners.append(r.owner)
    counts = {o: [0] * bins for o in owners}
    for r in tel_rows:
        b = min(int((r.finished_at - t0) / span * bins), bins - 1)
        counts[r.owner][b] += 1
    series = {}
    for owner in owners:
        total = 0
        cum = []
        for c in counts[owner]:
            total += c
            cum.append(float(total))
        series[owner] = cum
    labels = [f"{span * (b + 1) / bins:.0f}s" for b in range(bins)]
    return labels, series


def _bucket_chart(rollup, name: str) -> Optional[str]:
    """Bucket-count bar chart of one rolled-up histogram (None if empty)."""
    hist = rollup.get(name)
    if hist is None or not hist.count:
        return None
    snap = hist.snapshot()
    buckets = snap["buckets"]
    groups = [f"≤{int(bound):,}" if bound >= 1 else "0"
              for bound, _ in buckets]
    return grouped_bar_chart(groups,
                             {"samples": [float(n) for _, n in buckets]},
                             title=f"{name}: fleet-wide distribution "
                                   f"({hist.count:,} samples)",
                             y_label="samples")


def perf_trajectory_rows(tel_rows, store_rows) -> List[List[object]]:
    """Sweep throughput per (app, scheduler) pair seen in the sweep:
    cell count, mean cell wall time and simulation rate from telemetry.
    """
    payload_by_key = {r.key: r.payload for r in store_rows}
    agg: Dict[Tuple[str, str], List[float]] = {}
    for r in tel_rows:
        p = payload_by_key.get(r.key, {})
        pair = (str(p.get("app")), str(p.get("scheduler")))
        agg.setdefault(pair, []).append(r.wall_seconds)
    rows = []
    for pair in sorted(agg):
        walls = agg[pair]
        mean_wall = sum(walls) / len(walls)
        rows.append([f"{pair[0]} × {pair[1]}", len(walls),
                     round(mean_wall, 4),
                     round(1.0 / mean_wall, 2) if mean_wall > 0 else 0.0])
    return rows


def sweep_report_html(store, title: str = "sweep report") -> str:
    """Render the full report page for an open :class:`ExperimentStore`."""
    counts = store.counts()
    tel_rows = store.telemetry_rows()
    worker_rows = store.worker_rows()
    store_rows = store.rows()

    parts = [f"<h1>{_esc(title)}</h1>",
             f'<p class="meta">{_esc(store.path)} — '
             f"{sum(counts.values())} cells · "
             + " · ".join(f"{counts[s]} {s}" for s in
                          ("pending", "leased", "done", "failed"))
             + f" · {len(tel_rows)} telemetry row(s)</p>"]

    parts.append("<h2>Throughput timeline</h2>")
    labels, series = throughput_series(tel_rows)
    if series:
        parts.append(line_chart(
            labels, series, title="cumulative completed cells per worker",
            x_label="wall clock since first completion",
            y_label="cells done"))
    else:
        parts.append("<p>No telemetry shipped yet.</p>")

    parts.append("<h2>Metric rollups</h2>")
    rollup = rollup_histograms(r.data for r in tel_rows)
    rows = rollup_rows(rollup)
    if rows:
        parts.append(_html_table(
            ["histogram", "count", "mean", "min", "p50", "p90", "p99",
             "max"], rows))
        chart = _bucket_chart(rollup, "steal_latency_cycles")
        if chart:
            parts.append(chart)
    else:
        parts.append("<p>No metric histograms in telemetry.</p>")

    parts.append("<h2>Workers</h2>")
    if worker_rows:
        parts.append(_html_table(
            ["owner", "state", "done", "failed", "leases", "reclaims",
             "quarantines", "lifetime (s)"],
            [[w.owner, w.state, w.cells_done, w.cells_failed, w.leases,
              w.reclaims, w.quarantines,
              round(max(0.0, w.last_seen - w.started_at), 1)]
             for w in worker_rows]))
    else:
        parts.append("<p>No workers have touched this store.</p>")

    parts.append("<h2>Perf trajectory</h2>")
    traj = perf_trajectory_rows(tel_rows, store_rows)
    if traj:
        parts.append(_html_table(
            ["app × scheduler", "cells", "mean wall (s)", "cells/sec"],
            traj))
    else:
        parts.append("<p>No completed cells to chart.</p>")

    return ("<!DOCTYPE html><html><head><meta charset='utf-8'>"
            f"<title>{_esc(title)}</title><style>{_STYLE}</style>"
            "</head><body>" + "\n".join(parts) + "</body></html>")


def write_report(store, out_dir: str,
                 title: str = "sweep report") -> List[str]:
    """Write ``report.html`` (and a merged trace, when shards exist).

    Returns the list of files written.
    """
    from repro.obs.fleet import merge_chrome_traces, store_trace_shards

    os.makedirs(out_dir, exist_ok=True)
    written = []
    shards = store_trace_shards(store)
    if shards:
        trace_path = os.path.join(out_dir, "merged.trace.json")
        merge_chrome_traces(shards, out_path=trace_path)
        written.append(trace_path)
    page = sweep_report_html(store, title=title)
    html_path = os.path.join(out_dir, "report.html")
    with open(html_path, "w") as fh:
        fh.write(page)
    written.append(html_path)
    return written
