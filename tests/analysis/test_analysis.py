"""Tests for trace recording, critical-path analysis, and exports."""

from __future__ import annotations

import json

import pytest

from repro import ClusterSpec, DistWS, SimRuntime
from repro.analysis import (
    TraceRecorder,
    critical_path,
    experiment_to_json,
    place_timeline,
    steal_flow,
    trace_to_json,
)
from repro.apgas import Apgas
from repro.errors import ConfigError
from repro.obs import EventBus


def traced_run(n_leaves=12, work=1_000_000, flexible=True):
    spec = ClusterSpec(n_places=2, workers_per_place=2, max_threads=4)
    rt = SimRuntime(spec, DistWS(), seed=1)
    bus = EventBus()
    rec = bus.subscribe(TraceRecorder())
    bus.attach(rt)

    def program(rt):
        ap = Apgas(rt)

        def driver(ctx):
            for i in range(n_leaves):
                ctx.spawn(None, place=0, work=work,
                          flexible=flexible, label="leaf")

        ap.async_at(0, driver, work=10_000, label="driver")

    stats = rt.run(program)
    return rec.finalize(), stats


class TestTraceRecorder:
    def test_records_every_task(self):
        trace, stats = traced_run()
        assert len(trace.tasks) == stats.tasks_executed == 13
        assert trace.makespan == stats.makespan_cycles

    def test_attach_after_run_rejected(self):
        spec = ClusterSpec(n_places=1, workers_per_place=1, max_threads=2)
        rt = SimRuntime(spec, DistWS(), seed=1)

        def program(rt):
            Apgas(rt).async_at(0, None, work=100, label="t")

        rt.run(program)
        bus = EventBus()
        bus.subscribe(TraceRecorder())
        with pytest.raises(ConfigError):
            bus.attach(rt)

    def test_parent_edges(self):
        trace, _ = traced_run()
        by_label = {}
        for t in trace.tasks:
            by_label.setdefault(t.label, []).append(t)
        driver = by_label["driver"][0]
        assert driver.parent_id is None
        for leaf in by_label["leaf"]:
            assert leaf.parent_id == driver.task_id
            assert leaf.spawn_time >= driver.start_time
            assert leaf.start_time >= leaf.spawn_time

    def test_busy_profile_bounds(self):
        trace, _ = traced_run()
        profile = trace.place_busy_profile(buckets=10)
        assert len(profile) == 2
        for row in profile:
            assert len(row) == 10
            assert all(0.0 <= v <= 1.0 for v in row)


class TestCriticalPath:
    def test_work_and_span(self):
        trace, stats = traced_run()
        cp = critical_path(trace)
        assert cp.total_work == pytest.approx(
            sum(t.duration for t in trace.tasks))
        assert cp.span <= cp.total_work
        # Makespan can never beat the span.
        assert trace.makespan >= cp.span * 0.999
        assert cp.parallelism >= 1.0
        assert 0 < cp.schedule_efficiency <= 1.0

    def test_chain_is_connected(self):
        trace, _ = traced_run()
        cp = critical_path(trace)
        for parent, child in zip(cp.chain, cp.chain[1:]):
            assert child.parent_id == parent.task_id

    def test_describe_renders(self):
        trace, _ = traced_run()
        text = critical_path(trace).describe()
        assert "parallelism" in text
        assert "critical chain" in text


class TestRenderers:
    def test_place_timeline(self):
        trace, _ = traced_run()
        art = place_timeline(trace, width=30, title="t")
        assert art.count("|") == 4  # two places, two bars each
        with pytest.raises(ConfigError):
            place_timeline(trace, width=2)

    def test_steal_flow_counts_remote(self):
        trace, stats = traced_run(n_leaves=24, work=2_000_000)
        art = steal_flow(trace)
        assert str(stats.tasks_executed_remote) in art


class TestEmptyTraceHardening:
    """Empty traces and zero-makespan runs degrade cleanly (no ZeroDivision)."""

    @staticmethod
    def empty_trace(n_places=2, workers=2):
        from repro.analysis import Trace
        return Trace(n_places=n_places, workers_per_place=workers)

    def test_place_timeline_empty_stub(self):
        assert place_timeline(self.empty_trace()) == "(empty trace)"
        from repro.analysis import Trace
        assert place_timeline(Trace()) == "(empty trace)"

    def test_place_timeline_bad_clock_rejected(self):
        trace, _ = traced_run()
        trace.cycles_per_ms = 0.0
        with pytest.raises(ConfigError):
            place_timeline(trace)

    def test_steal_flow_empty_stub(self):
        from repro.analysis import Trace
        assert steal_flow(Trace()) == "(empty trace)"
        # Zero makespan but places known: still renders an all-zero matrix.
        assert "total tasks" in steal_flow(self.empty_trace())

    def test_critical_path_empty_rejected(self):
        with pytest.raises(ConfigError):
            critical_path(self.empty_trace())

    def test_busy_profile_degenerate_workers(self):
        trace = self.empty_trace(workers=0)
        trace.makespan = 100.0
        profile = trace.place_busy_profile(buckets=5)
        assert profile == [[0.0] * 5, [0.0] * 5]


class TestTraceClock:
    def test_trace_carries_cost_model_clock(self):
        trace, _ = traced_run()
        assert trace.cycles_per_ms == 2_000_000.0

    def test_timeline_axis_uses_trace_clock(self):
        trace, _ = traced_run()
        trace.cycles_per_ms = trace.makespan  # 1 "ms" == the whole run
        art = place_timeline(trace, width=30)
        assert "1.00 ms" in art

    def test_trace_json_includes_clock(self):
        trace, _ = traced_run()
        data = json.loads(trace_to_json(trace))
        assert data["cycles_per_ms"] == 2_000_000.0


class TestExports:
    def test_trace_json(self):
        trace, _ = traced_run()
        data = json.loads(trace_to_json(trace))
        assert len(data["tasks"]) == 13
        assert data["n_places"] == 2

    def test_experiment_exports(self):
        from repro.harness.paper import ExperimentOutput
        out = ExperimentOutput("x", ["a", "b"], [[1, 2], [3, 4]], "r")
        assert json.loads(experiment_to_json(out))["rows"] == [[1, 2],
                                                               [3, 4]]
