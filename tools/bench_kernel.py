#!/usr/bin/env python
"""Kernel benchmark CLI: run the grid, write/compare ``BENCH_kernel.json``.

This is the kernel grid's one front end (CI's ``bench-smoke`` job runs
it).  A full-grid run rewrites ``BENCH_kernel.json`` at the repository
root by default; ``--out`` sends the report elsewhere, and ``--quick``
writes nothing unless ``--out`` is given.

Usage:
    PYTHONPATH=src python tools/bench_kernel.py                 # full grid
    PYTHONPATH=src python tools/bench_kernel.py --quick \\
        --baseline BENCH_kernel.json --out /tmp/bench_fresh.json

Exits non-zero when ``--baseline`` is given and the run regresses more
than ``--max-regression`` percent (calibration-normalized) or any
simulated observable drifts.  See ``repro.harness.bench`` for details.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.harness import bench  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sub-second grid (CI smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per cell "
                             "(default: 3 full, 2 quick)")
    parser.add_argument("--out", default=None,
                        help="write the JSON report here "
                             "(default: BENCH_kernel.json for the full "
                             "grid, stdout-only for --quick)")
    parser.add_argument("--baseline", default=None,
                        help="compare against this committed report and "
                             "gate on regression")
    parser.add_argument("--max-regression", type=float, default=20.0,
                        help="allowed normalized wall-clock regression "
                             "in percent (default 20)")
    args = parser.parse_args(argv)

    # The full run also covers the quick cells so the committed baseline
    # can gate CI's --quick smoke run.
    cells = bench.QUICK_GRID if args.quick \
        else bench.DEFAULT_GRID + bench.QUICK_GRID
    repeats = args.repeats if args.repeats is not None \
        else (2 if args.quick else 3)
    report = bench.run_grid(cells, repeats=repeats)
    print(bench.render(report))

    out = args.out
    if out is None and not args.quick:
        out = os.path.join(os.path.dirname(__file__), "..",
                           "BENCH_kernel.json")
    if out:
        with open(out, "w") as fh:
            fh.write(bench.to_json(report))
        print(f"\nwrote {os.path.normpath(out)}")

    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        ok, lines = bench.compare(baseline, report,
                                  max_regression_pct=args.max_regression)
        print("\nbaseline comparison:")
        print("\n".join(lines))
        if not ok:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
