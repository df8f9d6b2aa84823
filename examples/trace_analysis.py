#!/usr/bin/env python
"""Trace a run and explain *where the time went*.

Attaches a :class:`TraceRecorder` (one subscriber on the ``repro.obs``
event bus) plus a metrics registry and a Chrome-trace sink, then prints:

- the work/span decomposition and the critical chain (why the app cannot
  scale past T1/T∞ no matter the scheduler);
- a per-place busy timeline (watch X10WS leave places idle, and DistWS
  fill them);
- the steal-flow matrix (who executed whose tasks);
- steal-latency / task-granularity histograms from the metrics registry.

It also writes ``trace_analysis.trace.json`` into ``out/`` (or the
directory named as the third argument): open it in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing`` to see one process row
per place and one thread lane per worker.  To compare two runs
numerically, save snapshots with ``repro run --snapshot a.json`` and
inspect them with ``repro diff-stats a.json b.json``.

Run:  python examples/trace_analysis.py [app] [scheduler] [out-dir]
"""

from __future__ import annotations

import os
import sys

from repro import ClusterSpec, SimRuntime, make_scheduler
from repro.analysis import (
    TraceRecorder,
    critical_path,
    place_timeline,
    steal_flow,
)
from repro.apps import make_app
from repro.obs import ChromeTraceSink, EventBus, MetricsRegistry


def main(app_name: str = "dmg", sched_name: str = "DistWS",
         out_dir: str = "out") -> None:
    spec = ClusterSpec(n_places=8, workers_per_place=4, max_threads=8)
    rt = SimRuntime(spec, make_scheduler(sched_name), seed=1)
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, "trace_analysis.trace.json")

    # One bus, three subscribers: a metrics registry, a Chrome
    # trace-event exporter and the trace recorder.  Attach before the run.
    bus = EventBus(sample_interval=100_000)
    metrics = bus.subscribe(MetricsRegistry())
    bus.subscribe(ChromeTraceSink(trace_path))
    recorder = bus.subscribe(TraceRecorder())
    bus.attach(rt)

    app = make_app(app_name, scale="test", seed=5)
    stats = app.run(rt)
    trace = recorder.finalize()

    print(f"{app_name} under {sched_name} on "
          f"{spec.n_places}x{spec.workers_per_place}: "
          f"{stats.makespan_cycles / trace.cycles_per_ms:.2f} ms simulated\n")
    print(critical_path(trace).describe())
    print()
    print(place_timeline(trace, width=64,
                         title="place busy timeline (dark = saturated)"))
    print()
    print(steal_flow(trace, title="steal flow (home -> executing place)"))
    print()
    print("metric histograms (count / mean / p50 / p90 / max):")
    for name, count, mean, p50, p90, vmax in metrics.summary_rows():
        print(f"  {name:>24s}: n={count:>6d}  mean={mean:>12.1f}"
              f"  p50={p50:>12.1f}  p90={p90:>12.1f}  max={vmax:>12.1f}")
    print(f"\nChrome trace written to {trace_path} "
          "(open in https://ui.perfetto.dev)")


if __name__ == "__main__":
    main(*(sys.argv[1:4] or ["dmg", "DistWS"]))
