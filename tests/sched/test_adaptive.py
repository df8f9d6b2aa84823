"""Tests for the annotation-free adaptive classifier (§II extension)."""

from __future__ import annotations

import pytest

from repro import ClusterSpec, SimRuntime
from repro.apps import make_app
from repro.cluster.memory import DataBlock
from repro.runtime.task import FLEXIBLE, SENSITIVE, Task
from repro.sched import AdaptiveDistWS, DistWS, X10WS


def fresh_rt(**kw):
    spec = ClusterSpec(n_places=4, workers_per_place=2, max_threads=4)
    return SimRuntime(spec, AdaptiveDistWS(**kw), seed=0)


class TestClassifier:
    def test_large_self_contained_task_is_flexible(self):
        rt = fresh_rt()
        t = Task(None, 0, work=2_000_000, closure_bytes=256)
        assert rt.scheduler.classify_flexible(t)

    def test_tiny_task_is_sensitive(self):
        rt = fresh_rt()
        t = Task(None, 0, work=10_000)
        assert not rt.scheduler.classify_flexible(t)

    def test_copy_back_pins_task(self, memory):
        rt = fresh_rt()
        b = memory.allocate(0, 64)
        t = Task(None, 0, work=2_000_000, copy_back=[b])
        assert not rt.scheduler.classify_flexible(t)

    def test_data_heavy_task_is_sensitive(self, memory):
        rt = fresh_rt()
        big = memory.allocate(0, 10_000_000)  # 10 MB for 2M cycles
        t = Task(None, 0, work=2_000_000, reads=[big])
        assert not rt.scheduler.classify_flexible(t)

    def test_annotation_is_ignored(self):
        rt = fresh_rt()
        # Annotated flexible but tiny: classified sensitive anyway.
        t = Task(None, 0, work=1_000, locality=FLEXIBLE)
        assert not rt.scheduler.classify_flexible(t)
        # Annotated sensitive but big and light: classified flexible.
        t2 = Task(None, 0, work=5_000_000, locality=SENSITIVE)
        assert rt.scheduler.classify_flexible(t2)

    def test_counters_track_decisions(self):
        rt = fresh_rt()
        rt.scheduler.map_task(Task(None, 0, work=5_000_000))
        rt.scheduler.map_task(Task(None, 0, work=100))
        assert rt.scheduler.classified_flexible == 1
        assert rt.scheduler.classified_sensitive == 1

    def test_lifo_shared_ablation_is_honoured(self):
        """``shared_fifo=False`` reaches the adaptive flexible branch: on a
        saturated place the task goes to the shared deque's steal end."""
        rt = fresh_rt(shared_fifo=False)
        place = rt.places[0]
        costs = rt.costs
        while len(place.shared) == 0:
            rt.scheduler.map_task(Task(None, 0, work=5_000_000))
        t = Task(None, 0, work=5_000_000)
        cost = rt.scheduler.map_task(t)
        assert place.shared.take_oldest(remote=False) is t
        assert cost == costs.locality_mapping_overhead + costs.shared_deque_op

    def test_map_task_returns_placement_cost(self):
        rt = fresh_rt()
        costs = rt.costs
        # Classifying a task consults the status object either way.
        assert rt.scheduler.map_task(Task(None, 0, work=100)) \
            == costs.locality_mapping_overhead + costs.private_deque_op
        assert rt.scheduler.map_task(Task(None, 0, work=5_000_000)) \
            == costs.locality_mapping_overhead + costs.private_deque_op

    def test_counters_reset_on_rebind(self):
        rt = fresh_rt()
        rt.scheduler.map_task(Task(None, 0, work=5_000_000))
        rt.scheduler.map_task(Task(None, 0, work=100))
        rt.scheduler.bind(rt)
        assert rt.scheduler.classified_flexible == 0
        assert rt.scheduler.classified_sensitive == 0


class TestEndToEnd:
    def test_runs_paper_app_correctly(self):
        app = make_app("turing", scale="test", seed=5)
        spec = ClusterSpec(n_places=4, workers_per_place=2, max_threads=4)
        rt = SimRuntime(spec, AdaptiveDistWS(), seed=1)
        stats = app.run(rt)  # oracle validation
        assert stats.tasks_executed > 0

    def test_recovers_distributed_balancing(self):
        """Annotation-free classification still distributes an imbalanced
        coarse workload across places."""
        from repro.apgas import Apgas

        spec = ClusterSpec(n_places=4, workers_per_place=2, max_threads=4)
        rt = SimRuntime(spec, AdaptiveDistWS(), seed=1)
        places = set()

        def program(rt):
            ap = Apgas(rt)

            def driver(ctx):
                for i in range(48):
                    def body(c):
                        places.add(c.place)
                    ctx.spawn(body, place=0, work=2_000_000,
                              label="leaf")

            ap.async_at(0, driver, work=10_000, label="driver")

        rt.run(program)
        assert len(places) > 1
