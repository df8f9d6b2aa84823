#!/usr/bin/env python
"""Fleet-observability smoke for the experiment store (CI fleet-smoke job).

Exercises the telemetry-shipping contract of ``repro.obs.fleet`` the way
a real multi-worker sweep would:

1. run a reduced grid **serially** for the reference snapshot;
2. enqueue the same grid and drain it with ``--workers`` queue worker
   processes, telemetry shipping on and one Chrome trace shard per cell;
3. assert: one telemetry row per done cell, rollup histogram counts
   equal the sum of per-run counts, the merged Perfetto trace is valid
   JSON with one process row per worker that completed cells, the
   stored results are byte-identical to serial, and a second store
   drained with shipping disabled stays telemetry-free and byte-identical
   too;
4. render one ``repro top`` frame and the HTML sweep report to prove
   the read-side works against a freshly drained store.

Exit 1 on any violation.

Usage:
    PYTHONPATH=src python tools/fleet_smoke.py --workers 2
"""

from __future__ import annotations

import argparse
import json
import multiprocessing as mp
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.cluster.topology import paper_cluster  # noqa: E402
from repro.harness.db import ExperimentStore, run_worker  # noqa: E402
from repro.harness.parallel import ExecutionContext, RunSpec  # noqa: E402
from repro.obs.fleet import (  # noqa: E402
    FleetTelemetry,
    FleetView,
    merge_chrome_traces,
    render_top,
    rollup_histograms,
    store_trace_shards,
)


def build_specs(args):
    spec = paper_cluster(args.places, args.workers_per_place)
    return [RunSpec.build(app, sched, spec, sched_seed=s,
                          scale=args.scale)
            for app in args.apps.split(",")
            for sched in args.schedulers.split(",")
            for s in range(1, args.seeds + 1)]


def snapshot_bytes(results) -> bytes:
    return json.dumps([json.dumps(r.stats.snapshot(), sort_keys=True)
                       for r in results]).encode()


def spawn_worker(path: str, heartbeat: float,
                 fleet: FleetTelemetry) -> mp.Process:
    proc = mp.Process(target=run_worker, args=(path,),
                      kwargs=dict(heartbeat_seconds=heartbeat,
                                  lease_seconds=heartbeat * 5,
                                  poll_seconds=0.05, fleet=fleet))
    proc.start()
    return proc


def drain_with_workers(path, n_workers, heartbeat, fleet, timeout):
    workers = [spawn_worker(path, heartbeat, fleet)
               for _ in range(n_workers)]
    ok = True
    for proc in workers:
        proc.join(timeout=timeout)
        if proc.is_alive():
            proc.terminate()
            ok = False
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--apps", default="uts,quicksort")
    parser.add_argument("--schedulers", default="DistWS,RandomWS")
    parser.add_argument("--seeds", type=int, default=2)
    parser.add_argument("--scale", default="test",
                        choices=("bench", "test"))
    parser.add_argument("--places", type=int, default=4)
    parser.add_argument("--workers-per-place", type=int, default=4)
    parser.add_argument("--workers", type=int, default=2,
                        help="queue worker processes to spawn")
    parser.add_argument("--heartbeat", type=float, default=0.2)
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="per-worker drain deadline (seconds)")
    args = parser.parse_args(argv)

    specs = build_specs(args)
    print(f"grid: {len(specs)} cells ({args.apps} x {args.schedulers} "
          f"x {args.seeds} seeds)")

    t0 = time.perf_counter()
    serial = ExecutionContext().run_specs(specs)
    serial_snap = snapshot_bytes(serial)
    print(f"serial      : {time.perf_counter() - t0:6.2f}s")

    failures = []
    with tempfile.TemporaryDirectory(prefix="repro-fleet-") as tmp:
        # -- shipping on: telemetry + trace shards -----------------------
        path = os.path.join(tmp, "grid.sqlite")
        trace_dir = os.path.join(tmp, "traces")
        fleet = FleetTelemetry(trace_dir=trace_dir)
        store = ExperimentStore(path)
        assert store.add_specs(specs) == len(specs)
        t0 = time.perf_counter()
        if not drain_with_workers(path, args.workers, args.heartbeat,
                                  fleet, args.timeout):
            failures.append("a queue worker hung past the deadline")
        print(f"fleet drain : {time.perf_counter() - t0:6.2f}s "
              f"({args.workers} workers, shipping on)")

        counts = store.counts()
        tel = store.telemetry_rows()
        print(f"final       : {counts}, {len(tel)} telemetry row(s)")
        if counts["done"] != len(specs):
            failures.append(f"lost cells: {counts}")
        if len(tel) != counts["done"]:
            failures.append(
                f"telemetry rows ({len(tel)}) != done rows "
                f"({counts['done']}) — shipping is not exactly-once")

        # Rollup counts must equal the sum of per-run counts.
        rollup = rollup_histograms(r.data for r in tel)
        for name, hist in sorted(rollup.items()):
            per_run = sum(
                r.data["obs"]["metrics"]["histograms"][name]["count"]
                for r in tel)
            if hist.count != per_run:
                failures.append(
                    f"rollup {name}: count {hist.count} != per-run sum "
                    f"{per_run}")
        print(f"rollup      : {len(rollup)} histograms, counts match "
              "per-run sums")

        # Merged trace: valid JSON, one process row per shipping owner.
        shards = store_trace_shards(store)
        merged_path = os.path.join(tmp, "merged.trace.json")
        merge_chrome_traces(shards, out_path=merged_path)
        with open(merged_path) as fh:
            doc = json.load(fh)
        owners = {r.owner for r in tel}
        process_rows = [e for e in doc["traceEvents"]
                        if e.get("name") == "process_name"]
        if len(process_rows) != len(owners):
            failures.append(
                f"merged trace has {len(process_rows)} process rows, "
                f"expected one per worker ({len(owners)})")
        print(f"merged trace: {len(doc['traceEvents'])} events, "
              f"{len(process_rows)} process row(s) for "
              f"{len(owners)} worker(s)")

        # Stored results still byte-identical to serial despite shipping.
        recovered = [store.get_result(s.cache_key()) for s in specs]
        if snapshot_bytes(recovered) != serial_snap:
            failures.append("snapshot drift: observed store grid is not "
                            "byte-identical to serial")

        # Read-side: one repro-top frame + the report build.
        with FleetView(path) as view:
            frame = render_top(view.snapshot())
        if f"{len(specs)}/{len(specs)} done" not in frame:
            failures.append("repro top frame does not reflect the "
                            "drained store")
        from repro.analysis.fleet_report import write_report
        written = write_report(store, os.path.join(tmp, "report"))
        if not any(p.endswith("report.html") for p in written):
            failures.append("sweep report did not produce report.html")
        store.close()

        # -- shipping off: bare drain stays pre-fleet --------------------
        bare_path = os.path.join(tmp, "bare.sqlite")
        bare = ExperimentStore(bare_path)
        bare.add_specs(specs)
        off = FleetTelemetry(enabled=False)
        t0 = time.perf_counter()
        if not drain_with_workers(bare_path, args.workers,
                                  args.heartbeat, off, args.timeout):
            failures.append("a bare queue worker hung past the deadline")
        print(f"bare drain  : {time.perf_counter() - t0:6.2f}s "
              f"(shipping off)")
        if bare.telemetry_rows():
            failures.append("disabled shipping still wrote telemetry")
        bare_results = [bare.get_result(s.cache_key()) for s in specs]
        if snapshot_bytes(bare_results) != serial_snap:
            failures.append("bare drain snapshots differ from serial")
        bare.close()

    if failures:
        for failure in failures:
            print(f"\nFAIL: {failure}", file=sys.stderr)
        return 1
    print("\nOK: telemetry is exactly-once per done cell, rollups are "
          "count-exact, the merged trace is a valid per-worker Perfetto "
          "file, and disabling shipping leaves runs byte-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
