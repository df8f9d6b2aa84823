"""Compare two sets of benchmark reports, metric by metric.

    python3 perf/compare.py parent1.json parent2.json ... -- change1.json ...
    python3 perf/compare.py runs*.json            # one set: spreads only
    python3 perf/compare.py --json rows.json a*.json -- b*.json

Inputs are ``run.py --out`` reports; options go before the first set,
and runs pair up by their order on the command line.  For every
(metric, workload) row the tool prints each side's median and quartile
spread, the median change in the metric's worse direction, how many
paired runs the second set won, and a verdict against the bound
``BENCHMARK.json`` fixes:

- ``regressed``: the second median is worse than the first by more than
  the bound;
- ``improved``: the second set wins at least nine tenths of the pairs
  and the medians differ by more than the first set's quartile spread;
- ``unresolved``: a set's quartile spread is wider than the bound, and
  not every run of one set reads better than every run of the other;
- ``within``: none of the above.

Per-layer metrics have no bound and get no verdict.  Exit code 1 when
any row regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_declared() -> Dict[str, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def collect(paths: Sequence[str]) -> Dict[tuple, List[float]]:
    """``(metric, workload) -> values`` over a set of reports, in order."""
    out: Dict[tuple, List[float]] = {}
    for path in paths:
        with open(path) as fh:
            report = json.load(fh)
        for name, result in report["workloads"].items():
            for metric, m in result["metrics"].items():
                out.setdefault((metric, name), []).append(float(m["value"]))
    return out


def quartiles(values: List[float]) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a: List[float], b: List[float], better: str,
            bound: Optional[float]) -> dict:
    """How the second set ``b`` reads against the first set ``a``."""
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    row = {"worse": worse, "wins": wins, "pairs": len(pairs),
           "verdict": None}
    if bound is None:
        return row
    b_all_better = all(sign * (y - x) < 0 for x in a for y in b)
    b_all_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if worse > bound:
        row["verdict"] = "regressed"
    elif (pairs and wins >= 0.9 * len(pairs)
          and abs(med_b - med_a) > qa[2] - qa[0]):
        row["verdict"] = "improved"
    elif max(spread(a), spread(b)) > bound and not (b_all_better
                                                    or b_all_worse):
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "within"
    return row


def summary(values: List[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"n": len(values), "q1": q1, "median": med, "q3": q3,
            "spread": spread(values)}


def describe(paths: Sequence[str]) -> dict:
    """Seeds and run length of a set, and the host and commit its first
    report was measured on."""
    reports = []
    for path in paths:
        with open(path) as fh:
            reports.append(json.load(fh))
    return {"reports": len(reports),
            "seeds": sorted({r["seed"] for r in reports}),
            "seconds": sorted({r["seconds"] for r in reports}),
            "environment": reports[0].get("environment")}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    second: List[str] = []
    if "--" in argv:
        cut = argv.index("--")
        argv, second = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reports", nargs="+", help="the first set")
    parser.add_argument("--json", help="also write the rows here")
    opts = parser.parse_args(argv)
    declared = load_declared()
    a = collect(opts.reports)
    b = collect(second) if second else {}
    rows = []
    for key in sorted(a):
        m = declared.get(key[0], {"better": "lower"})
        row = {"metric": key[0], "workload": key[1],
               "bound": m.get("bound"), "a": summary(a[key])}
        if second:
            if key not in b:
                continue
            row["b"] = summary(b[key])
            row.update(verdict(a[key], b[key], m["better"], m.get("bound")))
        rows.append(row)
    if second:
        print(f"{'metric':<34} {'workload':<22} {'A median':>11} "
              f"{'spread':>6} {'B median':>11} {'spread':>6} {'worse':>7} "
              f"{'wins':>6} verdict")
        for r in rows:
            print(f"{r['metric']:<34} {r['workload']:<22} "
                  f"{r['a']['median']:>11.6g} {r['a']['spread']:>6.3f} "
                  f"{r['b']['median']:>11.6g} {r['b']['spread']:>6.3f} "
                  f"{100 * r['worse']:>+6.1f}% {r['wins']:>2}/{r['pairs']:<3} "
                  f"{r['verdict'] or '-'}")
    else:
        print(f"{'metric':<34} {'workload':<22} {'n':>3} {'median':>12} "
              f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for r in rows:
            s, bound = r["a"], r["bound"]
            flag = "  OVER" if bound is not None and s["spread"] > bound \
                else ""
            print(f"{r['metric']:<34} {r['workload']:<22} {s['n']:>3} "
                  f"{s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
                  f"{s['spread']:>7.3f} "
                  f"{'-' if bound is None else format(bound, '.2f'):>6}{flag}")
    if opts.json:
        sets = [opts.reports] + ([second] if second else [])
        with open(opts.json, "w") as fh:
            json.dump({"sets": [describe(paths) for paths in sets],
                       "rows": rows}, fh, indent=1)
            fh.write("\n")
    return 1 if any(r.get("verdict") == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
