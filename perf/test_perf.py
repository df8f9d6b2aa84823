"""Tests of the benchmark itself.

Run with ``PYTHONPATH=src python -m pytest perf -q``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import compare
import layers
import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

PKG = os.path.join(os.sep, "x", "src", "repro")


def src(rel: str, line: int, name: str) -> tuple:
    return (os.path.join(PKG, *rel.split("/")), line, name)


def edge(tt: float, ct: float = None, nc: int = 1) -> tuple:
    return (nc, nc, tt, tt if ct is None else ct)


def synthetic_stats() -> dict:
    engine = src("sim/engine.py", 1, "run")
    body = src("apps/uts.py", 5, "body")
    heappush = ("/usr/lib/python3.11/heapq.py", 10, "heappush")
    c_heap = ("~", 0, "<built-in method _heapq.heappush>")
    length = ("~", 0, "<built-in method builtins.len>")
    stray = ("/elsewhere/tool.py", 1, "main")
    sleep = ("~", 0, "<built-in method time.sleep>")
    return {
        engine: (1, 1, 1.0, 5.0, {}),
        body: (1, 1, 2.0, 2.4, {engine: edge(2.0, 2.4)}),
        length: (3, 3, 0.6, 0.6, {engine: edge(0.2), body: edge(0.4)}),
        heappush: (1, 1, 0.3, 0.4, {engine: edge(0.3, 0.4)}),
        c_heap: (1, 1, 0.1, 0.1, {heappush: edge(0.1)}),
        stray: (1, 1, 0.5, 0.5, {}),
        sleep: (1, 1, 5.0, 5.0, {engine: edge(5.0)}),
    }


class TestFold:
    def test_builtin_and_stdlib_time_goes_to_the_caller(self):
        self_s = layers.fold(synthetic_stats(), PKG)
        # engine 1.0 + len via engine 0.2 + heappush 0.3 + its C call 0.1
        assert self_s["sim"] == pytest.approx(1.6)
        assert self_s["apps"] == pytest.approx(2.4)

    def test_unknown_paths_go_to_other_and_waits_to_idle(self):
        self_s = layers.fold(synthetic_stats(), PKG)
        assert self_s["other"] == pytest.approx(0.5)
        assert self_s[layers.IDLE] == pytest.approx(5.0)

    def test_shares_sum_to_one_without_idle(self):
        share = layers.shares(layers.fold(synthetic_stats(), PKG))
        assert sum(share.values()) == pytest.approx(1.0)
        assert share["apps"] == pytest.approx(2.4 / 4.5)

    def test_foreign_caller_chain_blends_by_time(self):
        a = src("sched/distws.py", 1, "steal")
        b = src("cluster/cache.py", 1, "touch")
        helper = ("/usr/lib/python3.11/random.py", 3, "choice")
        builtin = ("~", 0, "<method 'random' of '_random.Random' objects>")
        stats = {
            a: (1, 1, 0.0, 3.0, {}),
            b: (1, 1, 0.0, 1.0, {}),
            helper: (2, 2, 0.0, 4.0, {a: edge(0.0, 3.0), b: edge(0.0, 1.0)}),
            builtin: (2, 2, 2.0, 2.0, {helper: edge(2.0)}),
        }
        self_s = layers.fold(stats, PKG)
        assert self_s["sched"] == pytest.approx(1.5)
        assert self_s["cluster"] == pytest.approx(0.5)

    def test_module_layers(self):
        assert layers.module_layer(os.path.join(PKG, "serve", "protocol.py"),
                                   PKG) == "serve.protocol"
        assert layers.module_layer(os.path.join(PKG, "serve", "traffic.py"),
                                   PKG) == "serve.service"
        assert layers.module_layer(os.path.join(PKG, "errors.py"),
                                   PKG) == "other"
        assert layers.module_layer("/x/perf/run.py", PKG) is None


class TestDeclaration:
    def bench(self) -> dict:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            return json.load(fh)

    def test_contract_shape(self):
        bench = self.bench()
        assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
        assert [w["name"] for w in bench["workloads"]] \
            == list(workloads.WORKLOADS)
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        assert len(names) == len(set(names))
        for m in bench["end_to_end"] + bench["per_layer"]:
            assert NAME.match(m["name"]), m
            assert UNIT.match(m["unit"]), m
            assert m["better"] in ("lower", "higher")
        for m in bench["end_to_end"]:
            assert 0 < m["bound"] <= 0.25
        setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
        assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])

    def test_layer_metrics_are_declared(self):
        declared = {m["name"] for m in self.bench()["per_layer"]}
        assert {f"{name}.share" for name in layers.LAYERS} <= declared

    def test_no_time_metric_can_read_a_constant_zero(self):
        # Every workload reports every metric; a time that does not
        # apply to a workload would read 0 on every run.
        times = {"s", "ms", "us"}
        per_layer = [m["name"] for m in self.bench()["per_layer"]
                     if m["unit"] in times]
        assert per_layer == ["trace.busy_s"]


class TestServeChecks:
    def rec(self, outcome="ok", flexible=False, home=0, place=0, done=True):
        future = SimpleNamespace(done=lambda: done)
        return SimpleNamespace(outcome=outcome, place=place, future=future,
                               task={"flexible": flexible, "home": home})

    def test_sticky_must_run_at_home(self):
        assert not workloads.request_failed(self.rec())
        assert workloads.request_failed(self.rec(place=1))
        assert not workloads.request_failed(self.rec(flexible=True, place=1))

    def test_every_request_needs_an_ok_outcome(self):
        assert workloads.request_failed(self.rec(outcome="shed"))
        assert workloads.request_failed(self.rec(outcome=None, done=False))

    def snapshot(self, executed=(60, 40), **router) -> dict:
        return {"router": {"offered": 100, **router},
                "places": {str(p): {"executed": n}
                           for p, n in enumerate(executed)}}

    def test_every_request_runs_exactly_once(self):
        assert workloads.ledger_errors(self.snapshot()) == []
        # A request run twice: its second response is dropped by the
        # router, so only the places' count shows it.
        assert len(workloads.ledger_errors(self.snapshot((61, 40)))) == 1
        assert len(workloads.ledger_errors(self.snapshot((60, 39)))) == 1
        assert len(workloads.ledger_errors(
            self.snapshot(duplicate_responses=1, redispatched=2))) == 2


class TestCapacityRule:
    def test_rung_passes_at_or_under_the_p99_limit(self):
        under = [10.0] * 99 + [100.0]
        assert workloads.rung_verdict(under, 0, 5.0, 5.2) == (True, 10.0)
        # 98 fast requests and 2 slow ones: the 99th percentile is slow.
        over = [10.0] * 98 + [101.0] * 2
        assert workloads.rung_verdict(over, 0, 5.0, 5.2) == (False, 101.0)

    def test_rung_fails_on_a_failed_request_or_a_growing_backlog(self):
        fast = [10.0] * 100
        assert not workloads.rung_verdict(fast, 1, 5.0, 5.2)[0]
        assert not workloads.rung_verdict(fast, 0, 5.0, 6.5)[0]
        assert not workloads.rung_verdict([], 0, 5.0, 5.0)[0]

    def model(self, p99_by_rate):
        ran = []

        def run_rung(rate):
            ran.append(rate)
            p99 = p99_by_rate[rate]
            return p99 <= workloads.CAPACITY_P99_MS, p99

        return run_rung, ran

    def test_ladder_climbs_while_rungs_pass(self):
        run_rung, ran = self.model({260: 50.0, 280: 90.0, 300: 130.0})
        assert workloads.climb(260, run_rung) == pytest.approx(285.0)
        assert ran == [260, 280, 300]

    def test_ladder_descends_while_rungs_fail(self):
        run_rung, ran = self.model({260: 50.0, 280: 90.0, 300: 130.0})
        assert workloads.climb(300, run_rung) == pytest.approx(285.0)
        assert ran == [300, 280]

    def test_ladder_ends(self):
        run_rung, ran = self.model({r: 10.0 for r in range(0, 400, 20)})
        assert workloads.climb(200, run_rung, max_rungs=3) == 240
        run_rung, ran = self.model({r: 500.0 for r in range(20, 400, 20)})
        assert workloads.climb(60, run_rung) == 0.0
        assert ran == [60, 40, 20]


class TestCompare:
    def test_verdicts(self):
        base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8]
        assert compare.verdict(base, [12.0] * 6, "lower", 0.1)["verdict"] \
            == "regressed"
        assert compare.verdict(base, [9.0] * 6, "lower", 0.1)["verdict"] \
            == "improved"
        assert compare.verdict(base, list(base), "lower", 0.1)["verdict"] \
            == "within"
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 10.0]
        assert compare.verdict(base, noisy, "lower", 0.1)["verdict"] \
            == "unresolved"
        assert compare.verdict(base, [8.5] * 6, "higher", 0.1)["verdict"] \
            == "regressed"
        assert compare.verdict(base, base, "lower", None)["verdict"] is None

    def test_every_metric_gets_a_row(self, tmp_path):
        def report(path, wall, tasks):
            metrics = {"wall_s": {"value": wall, "unit": "s"},
                       "runtime.tasks": {"value": tasks, "unit": "count"}}
            path.write_text(json.dumps(
                {"seed": 1, "seconds": 1, "workloads":
                 {"steal-storm": {"metrics": metrics}}}))
            return str(path)

        a = report(tmp_path / "a.json", 1.0, 5)
        b = report(tmp_path / "b.json", 1.0, 6)
        out = tmp_path / "rows.json"
        assert compare.main(["--json", str(out), a, "--", b]) == 0
        rows = {r["metric"]: r for r in json.loads(out.read_text())["rows"]}
        assert rows["wall_s"]["verdict"] == "within"
        assert rows["runtime.tasks"]["verdict"] is None


def run_smoke(tmp_path, trace: int) -> dict:
    out = tmp_path / f"smoke{trace}.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    with open(out) as fh:
        return json.load(fh)


def test_smoke_runs_every_workload_and_emits_exactly_the_declared(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    t0 = time.perf_counter()
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        report = run_smoke(tmp_path, trace)
        declared = [m["name"] for m in bench[kind]]
        assert sorted(report["workloads"]) == sorted(workloads.WORKLOADS)
        for name, result in report["workloads"].items():
            assert result["correct"], (name, result["errors"])
            assert sorted(result["metrics"]) == sorted(declared), name
            if trace:
                share = sum(result["metrics"][f"{layer}.share"]["value"]
                            for layer in layers.LAYERS)
                assert share == pytest.approx(1.0, abs=0.01), name
    assert time.perf_counter() - t0 < 60
