#!/usr/bin/env python
"""Kill-recovery smoke for the experiment store (CI store-smoke job).

Exercises the crash-resilience contract of ``repro.harness.db`` end to
end, the way an unlucky multi-worker sweep would:

1. run a reduced grid **serially** for the reference snapshot;
2. enqueue the same grid into a SQLite store and start ``--workers``
   worker processes draining it;
3. **SIGKILL one worker mid-drain** (once at least one cell is done and
   at least one is leased), let the survivors finish, then *restart* a
   worker to prove a dead sweep resumes;
4. fail on any lost cell, any duplicated work (a cell simulated twice —
   attempts > 1 beyond the killed cell), any quarantined cell, or any
   snapshot byte that differs from serial.

Exit 1 on any violation.

Usage:
    PYTHONPATH=src python tools/store_smoke.py --workers 2
"""

from __future__ import annotations

import argparse
import json
import multiprocessing as mp
import os
import signal
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.cluster.topology import paper_cluster  # noqa: E402
from repro.harness.db import ExperimentStore, run_worker  # noqa: E402
from repro.harness.parallel import ExecutionContext, RunSpec  # noqa: E402


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


def spawn_worker(path: str, heartbeat: float) -> mp.Process:
    proc = mp.Process(target=run_worker, args=(path,),
                      kwargs=dict(heartbeat_seconds=heartbeat,
                                  lease_seconds=heartbeat * 5,
                                  poll_seconds=0.05))
    proc.start()
    return proc


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
                        help="store worker processes to spawn")
    parser.add_argument("--heartbeat", type=float, default=0.2,
                        help="worker heartbeat interval (seconds)")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="overall drain deadline (seconds)")
    args = parser.parse_args(argv)

    specs = build_specs(args)
    print(f"grid: {len(specs)} cells ({args.apps} x {args.schedulers} "
          f"x {args.seeds} seeds)")

    t0 = time.perf_counter()
    serial = ExecutionContext().run_specs(specs)
    serial_snap = snapshot_bytes(serial)
    print(f"serial      : {time.perf_counter() - t0:6.2f}s")

    with tempfile.TemporaryDirectory(prefix="repro-store-") as tmp:
        path = os.path.join(tmp, "grid.sqlite")
        store = ExperimentStore(path)
        added = store.add_specs(specs)
        assert added == len(specs)

        workers = [spawn_worker(path, args.heartbeat)
                   for _ in range(args.workers)]
        print(f"workers     : {args.workers} draining {path}")

        # Wait for real progress, then murder one worker mid-cell.
        deadline = time.time() + args.timeout
        victim = workers[0]
        while time.time() < deadline:
            counts = store.counts()
            if counts["done"] >= 1 and counts["leased"] >= 1:
                break
            if counts["done"] == len(specs):
                break  # grid too fast to kill anyone mid-cell
            time.sleep(0.02)
        killed_mid_drain = store.counts()["done"] < len(specs)
        if killed_mid_drain:
            os.kill(victim.pid, signal.SIGKILL)
            print(f"kill -9     : worker pid {victim.pid} "
                  f"({store.counts()['done']}/{len(specs)} done)")
        victim.join()

        # Survivors drain on; a restarted worker proves resumability
        # even if every original worker is gone.
        for proc in workers[1:]:
            proc.join(timeout=args.timeout)
        restarted = spawn_worker(path, args.heartbeat)
        restarted.join(timeout=args.timeout)
        if restarted.is_alive():
            restarted.terminate()
            print("\nFAIL: restarted worker hung past the deadline",
                  file=sys.stderr)
            return 1

        counts = store.counts()
        print(f"final       : {counts}")
        failures = []
        if counts["done"] != len(specs):
            failures.append(
                f"lost cells: {len(specs) - counts['done']} of "
                f"{len(specs)} not done ({counts})")
        rows = {r.key: r for r in store.rows()}
        extra = [k[:12] for k, r in sorted(rows.items())
                 if r.attempts > 1]
        if killed_mid_drain and len(extra) > 1:
            failures.append(
                f"duplicated work: {len(extra)} cells took >1 attempt, "
                f"only the killed cell may ({extra})")
        if not killed_mid_drain and extra:
            failures.append(
                f"duplicated work with no kill: {extra}")
        quarantined = [k[:12] for k, r in sorted(rows.items())
                       if r.status == "failed"]
        if quarantined:
            failures.append(f"quarantined cells: {quarantined}")

        recovered = [store.get_result(s.cache_key()) for s in specs]
        if any(r is None for r in recovered):
            failures.append("missing results for done rows")
        elif snapshot_bytes(recovered) != serial_snap:
            failures.append("snapshot drift: store grid is not "
                            "byte-identical to serial")
        store.close()

        if failures:
            for failure in failures:
                print(f"\nFAIL: {failure}", file=sys.stderr)
            return 1

    print("\nOK: SIGKILL mid-drain lost zero cells, duplicated zero "
          "results, and the recovered grid is byte-identical to serial")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
