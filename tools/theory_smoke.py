#!/usr/bin/env python
"""End-to-end smoke for the latency-theory pass (CI theory-smoke job).

Drives a tiny λ-grid through the store-backed execution path — the same
SQLite job queue ``repro reproduce --store`` uses — and checks the
contracts ``repro theory`` promises:

1. **verdict** — the sweep yields a machine-readable JSON verdict with
   one fit per scheduler, R² and residuals populated, and no
   measurement beating the structural W/p floor;
2. **monotone** — RandomWS mean makespan is non-decreasing in λ (up to
   a small tolerance): more steal latency can only slow the protocol
   the theory analyses;
3. **figure** — the bound-vs-measured figure is non-empty, well-formed
   XML and names every fitted scheduler;
4. **store** — every (scheduler × λ) cell drained through the
   experiment store exactly once, with nothing quarantined.

Exit 1 on any violation.

Usage:
    PYTHONPATH=src python tools/theory_smoke.py --seeds 3
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import xml.etree.ElementTree as ET

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.analysis.theory import run_theory_sweep  # noqa: E402
from repro.cluster.topology import paper_cluster  # noqa: E402
from repro.harness.parallel import CellRequest, execution  # noqa: E402

#: Tolerance for the monotonicity check: simulated makespans are seed
#: averages, so allow a hair of non-monotone jitter between λ points.
MONOTONE_SLACK = 0.02


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--app", default="uts")
    ap.add_argument("--schedulers", nargs="+",
                    default=["RandomWS", "StealHalfWS"])
    ap.add_argument("--places", type=int, default=4)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--lambdas", type=float, nargs="+",
                    default=[1_000.0, 4_000.0, 16_000.0])
    args = ap.parse_args()

    spec = paper_cluster(args.places, args.workers)
    cells = [CellRequest.build(args.app, sched, spec,
                               sched_seeds=range(1, args.seeds + 1),
                               scale="test")
             for sched in args.schedulers]
    failures = []

    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "theory.sqlite3")
        with execution(store_path=store_path) as ctx:
            report = run_theory_sweep(cells, tuple(args.lambdas))
        expected_rows = (len(args.schedulers) * len(args.lambdas)
                         * args.seeds)
        print(f"store drained: {ctx.simulations} simulations, "
              f"{expected_rows} rows expected")
        if ctx.simulations != expected_rows:
            failures.append(
                f"store ran {ctx.simulations} simulations, expected "
                f"{expected_rows}")

        from repro.harness.db import ExperimentStore
        store = ExperimentStore(store_path)
        try:
            counts = store.counts()
            if counts.get("failed", 0):
                failures.append(
                    f"{counts['failed']} cells failed/quarantined")
            if counts.get("done", 0) != expected_rows:
                failures.append(
                    f"store holds {counts.get('done', 0)} done rows, "
                    f"expected {expected_rows}")
        finally:
            store.close()

    # -- verdict ---------------------------------------------------------
    verdict = json.loads(report.to_json())
    fits = {f["scheduler"]: f for f in verdict["fits"]}
    if sorted(fits) != sorted(args.schedulers):
        failures.append(
            f"verdict fits {sorted(fits)} != schedulers "
            f"{sorted(args.schedulers)}")
    if not verdict["lower_bound_holds"]:
        failures.append(
            "structural floor W/p violated: "
            f"{verdict['lower_bound_violations']}")
    for name, f in fits.items():
        if len(f["residuals"]) != len(args.lambdas):
            failures.append(f"{name}: residuals missing")
        if not (0.0 <= f["r_squared"] <= 1.0 + 1e-9):
            failures.append(f"{name}: R² {f['r_squared']} out of range")
        print(f"  {name}: c={f['c']:.3f} R²={f['r_squared']:.3f} "
              f"bound_c={f['bound_c']:.3f}")

    # -- monotone makespan for RandomWS ----------------------------------
    if "RandomWS" in fits:
        ys = fits["RandomWS"]["measured_makespan_cycles"]
        for (l0, y0), (l1, y1) in zip(zip(args.lambdas, ys),
                                      zip(args.lambdas[1:], ys[1:])):
            if y1 < y0 * (1.0 - MONOTONE_SLACK):
                failures.append(
                    f"RandomWS makespan fell from {y0:.0f} (λ={l0}) to "
                    f"{y1:.0f} (λ={l1}); theory says latency only hurts")
    else:
        failures.append("RandomWS missing — the monotone check needs "
                        "the protocol the theory analyses")

    # -- figure ----------------------------------------------------------
    svg = report.figure(args.app)
    try:
        root = ET.fromstring(svg)
        if not root.tag.endswith("svg"):
            failures.append(f"figure root tag {root.tag!r} is not svg")
        text = "".join(root.itertext())
        for name in args.schedulers:
            if f"{name} measured" not in text:
                failures.append(f"figure missing series for {name}")
        if "W/p floor" not in text:
            failures.append("figure missing the W/p floor series")
    except ET.ParseError as exc:
        failures.append(f"figure is not well-formed XML: {exc}")
    if len(svg) < 500:
        failures.append(f"figure suspiciously small ({len(svg)} bytes)")

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nOK: verdict machine-readable, floor respected, RandomWS "
          "monotone in lambda, figure valid, store drained exactly once")
    return 0


if __name__ == "__main__":
    sys.exit(main())
