"""The benchmark of record: four workloads, end-to-end and per-layer.

Run from the repository root::

    python3 perf/run.py --workload steal-storm --seed 1 --seconds 25
    python3 perf/run.py --workload reproduce-paper --trace 1
    python3 perf/run.py --smoke               # every workload, tiny sizes

Untraced runs (``--trace 0``) report the end-to-end metrics declared in
``BENCHMARK.json``; a traced run (``--trace 1``) runs one unit plain and
one under cProfile and reports the per-layer metrics (``--traced`` is
``--trace 1``).  With more than one workload, each runs in a child
process of its own, so that cold imports and peak RSS are its own.
Each workload prints a table of metric, value, unit and sample count,
then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
output was wrong.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_TRIALS = 5
EXPECTED_PATH = os.path.join(HERE, "expected.json")
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")


def declared_metrics() -> Dict[str, List[dict]]:
    with open(BENCHMARK_PATH) as fh:
        bench = json.load(fh)
    return {"end_to_end": bench["end_to_end"],
            "per_layer": bench["per_layer"]}


def load_expected() -> dict:
    try:
        with open(EXPECTED_PATH) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def import_seconds(modules) -> float:
    """Cold-import time of ``modules`` in a fresh interpreter."""
    code = ("import time\nt = time.perf_counter()\n"
            + "".join(f"import {m}\n" for m in modules)
            + "print(time.perf_counter() - t)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise RuntimeError(f"cannot import {modules}: {out.stderr.strip()}")
    return float(out.stdout)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for.

    The children are the serving tier's place processes and the
    cold-import probes of :func:`import_seconds`.  A probe loads a subset
    of the modules this process has loaded into a fresh interpreter, so
    it stays below this process's own peak and never sets the result.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(wl, seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    """Set up, run units, tear down; returns raw measurements."""
    setup_s: List[float] = []
    state = None
    for _ in range(1 if smoke else SETUP_TRIALS):
        if state is not None:
            wl.close(state)
        if wl.cpu_bound:
            # The clock samples this process's core while the probe runs
            # on the other; the probe reports its own import time.
            with workloads.SpeedClock() as clock:
                t_import = import_seconds(wl.imports)
                t0 = time.perf_counter()
                state = wl.setup(seed, smoke)
                t1 = time.perf_counter()
            setup_s.append((t_import + clock.own(t0, t1)) * clock.scale())
        else:
            t_import = import_seconds(wl.imports)
            t0 = time.perf_counter()
            state = wl.setup(seed, smoke)
            setup_s.append(t_import + time.perf_counter() - t0)
    units = []
    traced = profile = None
    extra_counters: Dict[str, float] = {}
    try:
        if trace:
            units.append(wl.unit(state, 0))
            profile = cProfile.Profile()
            traced = wl.unit(state, 1, profile)
            probe = getattr(wl, "traced_counters", None)
            if probe is not None:
                extra_counters = probe(state)
        else:
            start = time.perf_counter()
            spent: List[float] = []
            while True:
                t0 = time.perf_counter()
                units.append(wl.unit(state, len(units)))
                spent.append(time.perf_counter() - t0)
                elapsed = time.perf_counter() - start
                if smoke or elapsed + statistics.median(spent) > seconds:
                    break
    finally:
        extra = wl.close(state)
    extra.setdefault("counters", {}).update(extra_counters)
    # Read before the reporting code imports anything more.
    return {"setup_s": setup_s, "units": units, "traced": traced,
            "profile": profile, "extra": extra, "peak_rss_mb": peak_rss_mb()}


def all_units(raw: dict) -> list:
    return raw["units"] + ([raw["traced"]] if raw["traced"] else [])


def check(raw: dict, seed: int, smoke: bool) -> List[str]:
    """Correctness failures beyond those a unit counted itself."""
    units = all_units(raw)
    errors = []
    first = units[0].digests
    for i, unit in enumerate(units[1:], start=1):
        for name, value in unit.digests.items():
            if first.get(name) != value:
                errors.append(f"{name}: unit {i} output differs from unit 0")
    if not smoke:
        expected = load_expected().get("digests", {}).get(str(seed), {})
        for name, value in first.items():
            if name in expected and expected[name] != value:
                errors.append(f"{name}: output differs from expected.json "
                              f"for seed {seed}")
    for name, value in raw["extra"].get("bare_digests", {}).items():
        if first.get(name) != value:
            errors.append(f"{name}: observed run simulated something "
                          "other than the bare run")
    errors.extend(raw["extra"].get("errors", []))
    return errors


def metrics_of(raw: dict, trace: bool) -> Dict[str, dict]:
    """``name -> {value, unit, n}`` for every declared metric."""
    import repro
    from repro.serve.recorder import exact_percentile

    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    units = raw["units"]
    values: Dict[str, tuple] = {}
    if trace:
        folded = layers.fold(pstats.Stats(raw["profile"]).stats,
                             os.path.dirname(repro.__file__))
        share = layers.shares(folded)
        for name in layers.LAYERS:
            values[f"{name}.share"] = (share[name], 1)
        # Absolute self time per layer is its share of ``trace.busy_s``;
        # reporting it per layer would print constant zeros as times.
        busy = sum(folded[name] for name in layers.LAYERS)
        idle = folded[layers.IDLE]
        values["trace.busy_s"] = (busy, 1)
        values["trace.idle_share"] = (idle / (busy + idle), 1)
        values["trace.overhead"] = (raw["traced"].wall / units[0].wall, 2)
        # Counters from the plain unit; the traced one only feeds the fold.
        counters = dict(units[0].counters)
        counters.update(raw["extra"].get("counters", {}))
        for name, value in counters.items():
            values[name] = (value, 1)
    else:
        per_op: Dict[str, List[float]] = {}
        for unit in units:
            for op, ms in unit.latency_ms.items():
                per_op.setdefault(op, []).append(ms)
        samples = sorted(statistics.median(v) for v in per_op.values())
        values["setup_s"] = (statistics.median(raw["setup_s"]),
                             len(raw["setup_s"]))
        values["wall_s"] = (statistics.median(u.wall for u in units),
                            len(units))
        values["p50_ms"] = (exact_percentile(samples, 0.50), len(samples))
        values["p99_ms"] = (exact_percentile(samples, 0.99), len(samples))
        values["peak_rss_mb"] = (raw["peak_rss_mb"], 1)
    out = {}
    for metric in declared:
        value, n = values.get(metric["name"], (0, 0))
        out[metric["name"]] = {"value": value, "unit": metric["unit"],
                               "n": n}
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    wl = workloads.WORKLOADS[name]
    raw = measure(wl, seed, seconds, trace, smoke)
    errors = check(raw, seed, smoke)
    units = all_units(raw)
    extra = raw["extra"]
    attempted = sum(u.attempted for u in units) + extra.get("attempted", 0)
    failed = (sum(u.failed for u in units) + extra.get("failed", 0)
              + len(errors))
    metrics = metrics_of(raw, trace)
    late = statistics.mean(u.counters.get("serve.loadgen.late_ratio", 0.0)
                           for u in raw["units"])
    return {"workload": name, "seed": seed, "trace": int(trace),
            "units": len(units), "correct": failed == 0,
            "attempted": attempted, "failed": failed, "errors": errors,
            "valid": late <= 0.01, "metrics": metrics,
            "digests": units[0].digests}


def print_result(result: dict) -> None:
    print(f"\n{result['workload']}  seed={result['seed']}  "
          f"trace={result['trace']}  units={result['units']}  "
          f"attempted={result['attempted']}  failed={result['failed']}")
    for error in result["errors"]:
        print(f"  FAIL {error}")
    if not result["valid"]:
        print("  INVALID: over 1% of arrivals were submitted more than "
              f"{workloads.LATE_MS} ms late")
    width = max(len(n) for n in result["metrics"])
    for name, m in result["metrics"].items():
        print(f"  {name:<{width}}  {m['value']:>14.6g}  {m['unit']:<6} "
              f"n={m['n']}")
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in result["metrics"].items()}}
    print(json.dumps(line), flush=True)


def environment() -> dict:
    from repro.harness.bench import calibrate

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "calibration_ops_per_sec": calibrate(),
            "ruler_s": statistics.median(workloads.ruler()
                                         for _ in range(25)),
            "commit": commit}


def record_expected(result: dict, seed: int) -> None:
    expected = load_expected()
    per_seed = expected.setdefault("digests", {}).setdefault(str(seed), {})
    per_seed.update(result["digests"])
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_report(path: str, args, results: List[dict]) -> None:
    report = {"seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "smoke": args.smoke,
              "environment": environment(),
              "workloads": {r["workload"]: r for r in results}}
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_each(names: List[str], args) -> int:
    """Run each workload in a child process of its own; the exit code is
    the worst child's."""
    code, results = 0, []
    for name in names:
        out = os.path.join(workloads.work_dir(), f"{name}.json")
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", out]
        if args.smoke:
            cmd.append("--smoke")
        if args.record_expected:
            cmd.append("--record-expected")
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
        if os.path.exists(out):
            with open(out) as fh:
                results.extend(json.load(fh)["workloads"].values())
    if args.out:
        write_report(args.out, args, results)
    return code


def stop_resource_tracker() -> None:
    """Stop the helper process the ``spawn`` start method launched, so
    nothing this benchmark started outlives it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS),
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measurement budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="test-scale inputs, one unit, one set-up")
    parser.add_argument("--out", help="also write a JSON report here")
    parser.add_argument("--record-expected", action="store_true",
                        help="store this seed's output digests in "
                             "expected.json")
    args = parser.parse_args(argv)
    if args.record_expected and args.smoke:
        parser.error("--record-expected records full-size outputs only")
    names = args.workload or list(workloads.WORKLOADS)
    try:
        if len(names) > 1:
            return run_each(names, args)
        work = workloads.work_dir()
        os.environ["TMPDIR"] = work
        tempfile.tempdir = work
        try:
            result = run_workload(names[0], args.seed, args.seconds,
                                  bool(args.trace), args.smoke)
        finally:
            stop_resource_tracker()
        print_result(result)
        if args.out:
            write_report(args.out, args, [result])
        if args.record_expected:
            record_expected(result, args.seed)
        return 0 if result["correct"] else 1
    finally:
        workloads.remove_work_dir()


if __name__ == "__main__":
    sys.exit(main())
