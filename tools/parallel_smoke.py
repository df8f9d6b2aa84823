#!/usr/bin/env python
"""Differential smoke for the parallel harness (CI parallel-smoke job).

Runs a reduced (app x scheduler x seed) grid three ways and checks the
determinism contract of ``repro.harness.parallel`` end to end:

1. **serial** — the default single-process execution context;
2. **parallel** — ``ExecutionContext(parallel=N)``: the same grid
   drained through a private, telemetry-off experiment store by
   ``--parallel`` processes; the ``RunStats.snapshot()`` JSON must be
   *byte-identical* to serial, and the wall-clock speedup must reach
   ``--min-speedup`` (default: half of ``--parallel``);
3. **stored** — the grid twice through one experiment store file; the
   warm pass must run **zero** simulations and reproduce the same bytes.

Exit 1 on any divergence, missed speedup, or warm-store simulation.

Usage:
    PYTHONPATH=src python tools/parallel_smoke.py \
        --parallel 4 --min-speedup 2.0
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.cluster.topology import paper_cluster  # noqa: E402
from repro.harness.db import ExperimentStore  # noqa: E402
from repro.harness.parallel import (  # noqa: E402
    CellRequest,
    ExecutionContext,
)


def build_grid(args):
    spec = paper_cluster(args.places, args.workers)
    seeds = tuple(range(1, args.seeds + 1))
    return [CellRequest.build(app, sched, spec, sched_seeds=seeds,
                              scale=args.scale)
            for app in args.apps.split(",")
            for sched in args.schedulers.split(",")]


def snapshot_bytes(cells) -> bytes:
    """Canonical byte string over every run's simulated statistics."""
    return json.dumps(
        [[json.dumps(r.stats.snapshot(), sort_keys=True) for r in c.runs]
         for c in cells]).encode()


def timed(ctx: ExecutionContext, requests):
    t0 = time.perf_counter()
    cells = ctx.run_cells(requests)
    return time.perf_counter() - t0, snapshot_bytes(cells)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--apps", default="uts,quicksort,dmg",
                        help="comma-separated application list")
    parser.add_argument("--schedulers", default="DistWS,X10WS,RandomWS")
    parser.add_argument("--seeds", type=int, default=3,
                        help="scheduler seeds per cell")
    parser.add_argument("--scale", default="test",
                        choices=("bench", "test"))
    parser.add_argument("--places", type=int, default=8)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--parallel", type=int, default=4,
                        help="processes for the sharded pass")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="required serial/parallel wall-clock ratio "
                             "(default: parallel / 2; 0 disables the "
                             "check)")
    args = parser.parse_args(argv)
    if args.min_speedup is None:
        args.min_speedup = args.parallel / 2

    requests = build_grid(args)
    n_runs = sum(len(r.sched_seeds) for r in requests)
    print(f"grid: {len(requests)} cells / {n_runs} runs "
          f"({args.apps} x {args.schedulers} x {args.seeds} seeds)")

    serial_t, serial_snap = timed(ExecutionContext(), requests)
    print(f"serial      : {serial_t:6.2f}s")

    par_t, par_snap = timed(ExecutionContext(parallel=args.parallel),
                            requests)
    speedup = serial_t / par_t if par_t > 0 else float("inf")
    print(f"parallel {args.parallel:2d} : {par_t:6.2f}s  "
          f"(speedup {speedup:.2f}x, bound {args.min_speedup:.2f}x)")

    if par_snap != serial_snap:
        print("\nFAIL: parallel snapshots diverged from serial — the "
              "determinism contract is broken", file=sys.stderr)
        return 1
    if args.min_speedup and speedup < args.min_speedup:
        print(f"\nFAIL: speedup {speedup:.2f}x below the "
              f"{args.min_speedup:.2f}x bound", file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory(prefix="repro-store-") as tmp:
        path = os.path.join(tmp, "sweep.db")
        with ExperimentStore(path) as store:
            cold = ExecutionContext(parallel=args.parallel, store=store)
            cold_t, cold_snap = timed(cold, requests)
            cold_done = store.counts()["done"]
        with ExperimentStore(path) as store:
            warm = ExecutionContext(store=store)
            warm_t, warm_snap = timed(warm, requests)
        print(f"cold store  : {cold_t:6.2f}s  ({cold_done} rows done)")
        print(f"warm store  : {warm_t:6.2f}s  "
              f"({warm.simulations} simulations)")
        if warm.simulations != 0:
            print(f"\nFAIL: warm store ran {warm.simulations} simulations "
                  "(expected 0)", file=sys.stderr)
            return 1
        if cold_snap != serial_snap or warm_snap != serial_snap:
            print("\nFAIL: stored snapshots diverged from serial",
                  file=sys.stderr)
            return 1

    print("\nOK: parallel and stored grids byte-identical to serial, "
          "warm store simulated nothing")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
