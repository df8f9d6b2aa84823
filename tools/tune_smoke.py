#!/usr/bin/env python
"""End-to-end smoke for the tuning subsystem (CI tune-smoke job).

Runs a small grid search over one knob and checks the contracts the
``repro tune`` subsystem promises:

1. **sanity** — the paper-default configuration ranks in the top half
   of the searched grid (the defaults are supposed to be good; a
   default that loses to most of its own grid means either the search
   or the knob plumbing is broken);
2. **regret** — the default trial's regret is exactly zero and every
   other trial's regret is its median minus the default's;
3. **replay** — repeating the identical search against the same
   experiment store runs **zero** simulations;
4. **determinism** — the serialized report is byte-identical across
   the cold and warm runs.

Exit 1 on any violation.

Usage:
    PYTHONPATH=src python tools/tune_smoke.py --budget 8 --parallel 2
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.cluster.topology import paper_cluster  # noqa: E402
from repro.harness.parallel import CellRequest, execution  # noqa: E402
from repro.tune import GridSearch, tune  # noqa: E402


def run_search(args, store_path):
    cell = CellRequest.build(
        args.app, args.scheduler, paper_cluster(args.places, args.workers),
        sched_seeds=range(1, args.seeds + 1), scale=args.scale)
    engine = GridSearch(budget=args.budget)
    with execution(parallel=args.parallel, store_path=store_path) as ctx:
        report = tune([cell], engine,
                      knob_names=["remote_chunk_size", "victim_order"])
    return report, ctx


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--app", default="uts")
    ap.add_argument("--scheduler", default="DistWS")
    ap.add_argument("--scale", default="test")
    ap.add_argument("--budget", type=int, default=8,
                    help="grid truncation (keep <= 8 for CI)")
    ap.add_argument("--places", type=int, default=2)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=1)
    ap.add_argument("--parallel", type=int, default=2)
    args = ap.parse_args(argv)

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "trials.db")
        cold_report, cold_ctx = run_search(args, store_path)
        warm_report, warm_ctx = run_search(args, store_path)

    cell = cold_report.cells[0]
    print(cell.rendered(top=args.budget))
    ranked = cell.ranked()
    print(f"\ncold: {cold_ctx.simulations} simulations; "
          f"warm: {warm_ctx.simulations} simulations")

    # Tie-aware rank: grid points that spell out the default values tie
    # its median exactly, and the lexicographic tie-break lists them
    # first; only configs strictly faster than the default count.
    default = cell.default_trial
    rank = 1 + sum(t.median_makespan < default.median_makespan
                   for t in ranked)
    half = (len(ranked) + 1) // 2
    if rank > half:
        failures.append(
            f"default config ranked {rank}/{len(ranked)} "
            f"(ties collapsed), below the top half ({half})")

    if default.regret != 0.0:
        failures.append(f"default regret is {default.regret}, not 0")
    for t in cell.trials:
        want = t.median_makespan - default.median_makespan
        if t.regret != want:
            failures.append(
                f"trial {t.key()} regret {t.regret} != {want}")
            break

    if cold_ctx.simulations == 0:
        failures.append("cold search ran zero simulations "
                        "(store unexpectedly warm)")
    if warm_ctx.simulations != 0:
        failures.append(
            f"warm-store search ran {warm_ctx.simulations} simulations "
            "(expected zero)")

    if warm_report.to_json() != cold_report.to_json():
        failures.append("report bytes differ between cold and warm runs")

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nOK: default in top half, regret consistent, "
          "warm store replayed with zero simulations, "
          "report bytes deterministic")
    return 0


if __name__ == "__main__":
    sys.exit(main())
