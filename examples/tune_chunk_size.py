#!/usr/bin/env python
"""Rediscover the paper's chunk-of-2 with the offline tuner.

Section VI fixes the remote steal chunk size at 2 tasks per steal:
stealing one task at a time pays the fixed steal cost (closure creation
plus a network round trip) for every task, while large chunks
concentrate scarce work on one thief.  Instead of taking the constant
on faith, this example hands the knob to ``repro.tune`` and lets a grid
search find it:

1. build a tuning cell (UTS x DistWS on a small cluster, three
   scheduler seeds so the winner is a median, not a fluke);
2. grid-search ``remote_chunk_size`` over {1, 2, 4, 8} alongside the
   forced-in paper default;
3. print the ranked report and the per-trial regret.

The search lands on chunk = 2 — ties the default (which *is* chunk 2)
and beats 1, 4 and 8 — turning the paper's constant into a found-by-
search result.

Run:  python examples/tune_chunk_size.py
"""

from __future__ import annotations

from repro.cluster.topology import paper_cluster
from repro.harness.parallel import CellRequest, execution
from repro.tune import GridSearch, tune


def main() -> None:
    cell = CellRequest.build("uts", "DistWS", paper_cluster(4, 2),
                             sched_seeds=(1, 2, 3), scale="test")

    # parallel=4 shards the 15 runs (5 configs x 3 seeds) over four
    # processes; add store_path=... to make re-runs instant.
    with execution(parallel=4):
        report = tune([cell], GridSearch(),
                      knob_names=["remote_chunk_size"])

    print(report.rendered())

    best = report.cells[0].best
    chunk = best.config.get("remote_chunk_size", 2)
    print(f"\nsearch winner: remote_chunk_size={chunk} "
          f"(median {best.median_makespan:.0f} cycles)")
    if chunk == 2:
        print("=> the paper's constant, rediscovered by search.")
    else:
        print("=> on this cell the sweet spot moved off the paper's 2; "
              "locality and cluster shape shift it.")


if __name__ == "__main__":
    main()
