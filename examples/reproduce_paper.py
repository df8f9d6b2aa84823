#!/usr/bin/env python
"""Regenerate every table and figure of the paper in one go.

Runs the full experiment registry (Figs. 3-7, Tables I-III, the §VIII.2
chunk/granularity studies, and the §X UTS comparison) at benchmark scale
and prints each rendered artifact.  Expect ~15-30 minutes on a laptop —
or divide that by your core count with ``--parallel``.

Run:  python examples/reproduce_paper.py [test|bench] [artifact ...]
          [--parallel N] [--store PATH]

With ``test`` the suite uses small instances (a couple of minutes; the
shapes are weaker at that scale).  Naming artifacts (e.g. ``fig6 table3``)
runs just those.  ``--parallel N`` shards the (app x scheduler x seed)
grid over N worker processes; results are byte-identical to a serial
run.  ``--store PATH`` memoises finished cells in an experiment store
(one SQLite file), so a repeated invocation replays from the store
without simulating anything.
"""

from __future__ import annotations

import sys
import time

from repro.harness import EXPERIMENTS, execution


def parse_args(argv):
    scale = "bench"
    wanted = []
    parallel = 1
    store_path = None
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg in ("test", "bench"):
            scale = arg
        elif arg in EXPERIMENTS:
            wanted.append(arg)
        elif arg == "--parallel":
            if not args:
                raise SystemExit("--parallel needs a worker count")
            parallel = int(args.pop(0))
            if parallel < 1:
                raise SystemExit("--parallel must be >= 1")
        elif arg == "--store":
            if not args:
                raise SystemExit("--store needs a file path")
            store_path = args.pop(0)
        else:
            raise SystemExit(
                f"unknown argument {arg!r}; artifacts: "
                f"{', '.join(EXPERIMENTS)}")
    return scale, wanted or list(EXPERIMENTS), parallel, store_path


def main(argv) -> None:
    scale, wanted, parallel, store_path = parse_args(argv)

    with execution(parallel=parallel, store_path=store_path):
        for name in wanted:
            fn = EXPERIMENTS[name]
            t0 = time.perf_counter()
            print(f"\n{'#' * 70}\n# {name}  (running...)\n{'#' * 70}",
                  flush=True)
            out = fn(scale=scale)
            wall = time.perf_counter() - t0
            print(out.rendered, flush=True)
            print(f"\n[{name} done in {wall:.1f}s]", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
