#!/usr/bin/env python
"""Overhead guard for the observability layer (CI perf-smoke job).

Runs the same (app, scheduler, cluster, seeds) benchmark twice:

1. **baseline** — no event bus attached;
2. **instrumented** — full stack: metrics registry, Chrome-trace sink,
   and the queue-depth sampler.

Each variant runs ``--repeats`` times and is scored by its *best*
wall-clock time (best-of-N is robust to CI noise: the minimum is the
least-contended sample).  Exits 1 when

    best(instrumented) / best(baseline)  >  --max-overhead

It also asserts correctness on the way: simulated metrics (makespan,
steal counts, ...) must be *identical* between the two variants —
observation may cost wall clock, never simulated behaviour.  And the
instrumented variant runs once more with a sink that reads every event
kind, so ``EventBus.tally`` counts nothing and every event is
dispatched: its event counts and metrics block must equal those of the
run whose unread events, of every kind, ``EventBus.tally`` counted.

Usage:
    PYTHONPATH=src python tools/perf_smoke.py \
        --app dmg --scale test --repeats 3 --max-overhead 2.5 \
        --chrome-trace perf-trace.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro import ClusterSpec, SimRuntime, make_scheduler  # noqa: E402
from repro.apps import make_app  # noqa: E402
from repro.obs import (  # noqa: E402
    ChromeTraceSink, EventBus, MetricsRegistry, Sink)


class EveryKindSink(Sink):
    """Reads every event kind (and drops it): nothing is tallied."""

    def on_event(self, ev) -> None:
        pass


def run_once(args, instrumented, trace_path=None, every_kind=False):
    """One run; returns its wall time, its simulated metrics as JSON and
    its ``obs`` block (``None`` when not instrumented)."""
    spec = ClusterSpec(n_places=args.places,
                       workers_per_place=args.workers,
                       max_threads=args.workers + 4)
    rt = SimRuntime(spec, make_scheduler(args.scheduler),
                    seed=args.sched_seed)
    if instrumented:
        bus = EventBus(sample_interval=args.sample_interval)
        bus.subscribe(MetricsRegistry())
        if trace_path:
            bus.subscribe(ChromeTraceSink(trace_path))
        if every_kind:
            bus.subscribe(EveryKindSink())
        bus.attach(rt)
    app = make_app(args.app, scale=args.scale, seed=args.seed)
    t0 = time.perf_counter()
    stats = app.run(rt)
    elapsed = time.perf_counter() - t0
    snap = stats.snapshot()
    obs = snap.pop("obs", None)  # simulated metrics only
    return elapsed, json.dumps(snap, sort_keys=True), obs


def best_of(args, instrumented, trace_path=None):
    times, snaps = [], set()
    for rep in range(args.repeats):
        # Only the last instrumented repeat writes the trace artifact.
        path = trace_path if rep == args.repeats - 1 else None
        elapsed, snap, obs = run_once(args, instrumented, trace_path=path)
        times.append(elapsed)
        snaps.add(snap)
    if len(snaps) != 1:
        print("FAIL: repeats of the same configuration diverged "
              "(simulation is not deterministic?)", file=sys.stderr)
        raise SystemExit(1)
    return min(times), next(iter(snaps)), obs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--app", default="dmg")
    parser.add_argument("--scheduler", default="DistWS")
    parser.add_argument("--scale", default="test",
                        choices=("bench", "test"))
    parser.add_argument("--places", type=int, default=8)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--sched-seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--sample-interval", type=float, default=100_000)
    parser.add_argument("--max-overhead", type=float, default=2.5,
                        help="max instrumented/baseline wall-clock ratio")
    parser.add_argument("--chrome-trace", metavar="PATH",
                        help="write the instrumented run's Chrome trace")
    args = parser.parse_args(argv)

    base_t, base_snap, _ = best_of(args, instrumented=False)
    inst_t, inst_snap, inst_obs = best_of(args, instrumented=True,
                                          trace_path=args.chrome_trace)
    _, _, every_obs = run_once(args, instrumented=True, every_kind=True)
    ratio = inst_t / base_t if base_t > 0 else float("inf")

    print(f"baseline     : best of {args.repeats} = {base_t * 1e3:8.1f} ms")
    print(f"instrumented : best of {args.repeats} = {inst_t * 1e3:8.1f} ms")
    print(f"overhead     : {ratio:.2f}x (bound {args.max_overhead:.2f}x)")
    if args.chrome_trace:
        print(f"chrome trace : {args.chrome_trace}")

    if base_snap != inst_snap:
        print("\nFAIL: instrumentation changed simulated metrics — the "
              "event bus must be observation-only", file=sys.stderr)
        return 1
    for key in ("events", "metrics"):
        if inst_obs[key] != every_obs[key]:
            print(f"\nFAIL: obs {key!r} differ once a sink reads every "
                  "kind — tallied events must count as dispatched ones",
                  file=sys.stderr)
            return 1
    if ratio > args.max_overhead:
        print(f"\nFAIL: observability overhead {ratio:.2f}x exceeds the "
              f"{args.max_overhead:.2f}x bound", file=sys.stderr)
        return 1
    print("\nOK: simulated metrics identical, counts and metrics with "
          "every unread kind tallied match per-event dispatch, overhead "
          "within bound")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
