"""Unit tests for the DistWS policy (Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.apgas import Apgas
from repro.cluster.topology import ClusterSpec
from repro.errors import ConfigError
from repro.runtime.runtime import SimRuntime
from repro.runtime.task import FLEXIBLE, SENSITIVE, Task
from repro.sched import DistWS


def fresh_rt(n_places=2, workers=2, max_threads=4, **sched_kwargs):
    spec = ClusterSpec(n_places=n_places, workers_per_place=workers,
                       max_threads=max_threads)
    rt = SimRuntime(spec, DistWS(**sched_kwargs), seed=0)
    return rt


class TestMapping:
    def test_sensitive_goes_private(self):
        rt = fresh_rt()
        t = Task(None, 0, locality=SENSITIVE)
        rt.scheduler.map_task(t)
        assert rt.places[0].queued_private() == 1
        assert len(rt.places[0].shared) == 0

    def test_flexible_fills_spare_workers_first(self):
        rt = fresh_rt(workers=2, max_threads=2)
        for _ in range(2):
            rt.scheduler.map_task(Task(None, 0, locality=FLEXIBLE))
        # Two idle workers: both redirected to private deques.
        assert rt.places[0].queued_private() == 2
        assert len(rt.places[0].shared) == 0

    def test_flexible_overflows_to_shared_when_saturated(self):
        rt = fresh_rt(workers=2, max_threads=2)
        for _ in range(5):
            rt.scheduler.map_task(Task(None, 0, locality=FLEXIBLE))
        # max_threads=2: once two are queued, the rest must go shared.
        assert rt.places[0].queued_private() == 2
        assert len(rt.places[0].shared) == 3

    def test_under_utilized_place_keeps_tasks_private(self):
        rt = fresh_rt(workers=2, max_threads=6)
        for w in rt.places[0].workers:
            w.executing = True  # no spares
        rt.places[0].running_activities = 2
        for _ in range(3):
            rt.scheduler.map_task(Task(None, 0, locality=FLEXIBLE))
        # size() = 2 running + queued; stays < 6 until 4 queued.
        assert rt.places[0].queued_private() == 3
        assert len(rt.places[0].shared) == 0

    def test_inactive_place_keeps_tasks_private(self):
        rt = fresh_rt(workers=2, max_threads=2)
        place = rt.places[0]
        for w in place.workers:
            w.executing = True
            w.deque.push(Task(None, 0))  # kill both spare slots
        place.running_activities = 2
        place.active = False
        rt.scheduler.map_task(Task(None, 0, locality=FLEXIBLE))
        # Despite saturation, inactivity redirects to a private deque.
        assert len(place.shared) == 0

    def test_mapping_cost_sensitive_cheaper_than_flexible(self):
        """``map_task`` returns the cycles its placement cost: a
        sensitive task skips the place-status consultation."""
        rt = fresh_rt()
        costs = rt.costs
        s = rt.scheduler.map_task(Task(None, 0, locality=SENSITIVE))
        f = rt.scheduler.map_task(Task(None, 0, locality=FLEXIBLE))
        assert s == costs.private_deque_op
        assert f >= costs.locality_mapping_overhead
        assert s < f


class TestChunking:
    def test_default_chunk_is_two(self):
        assert DistWS().remote_chunk_size == 2

    def test_chunk_extras_land_in_thief_mailbox(self):
        spec = ClusterSpec(n_places=2, workers_per_place=1, max_threads=1)
        rt = SimRuntime(spec, DistWS(remote_chunk_size=2), seed=0)
        executed = []

        def program(rt):
            ap = Apgas(rt)

            def leaf(i):
                def body(ctx):
                    executed.append((i, ctx.place))
                return body

            # Eight flexible tasks at place 0; place 1 idle.
            for i in range(8):
                ap.async_at(0, leaf(i), work=4_000_000, flexible=True,
                            label="leaf")

        stats = rt.run(program)
        assert stats.steals.remote_hits > 0
        # Chunked steals deliver at least as many tasks as hit count.
        assert (stats.steals.remote_tasks_received
                >= stats.steals.remote_hits)

    def test_chunk_one_never_overfetches(self):
        spec = ClusterSpec(n_places=2, workers_per_place=1, max_threads=1)
        rt = SimRuntime(spec, DistWS(remote_chunk_size=1), seed=0)

        def program(rt):
            ap = Apgas(rt)
            for i in range(8):
                ap.async_at(0, None, work=4_000_000, flexible=True,
                            label="leaf")

        stats = rt.run(program)
        assert (stats.steals.remote_tasks_received
                == stats.steals.remote_hits)


class TestVictimOrder:
    def test_invalid_order_rejected(self):
        with pytest.raises(ConfigError, match="not one of"):
            DistWS(victim_order="alphabetical")

    def test_nearest_order_on_ring(self):
        """With nearest-first on a ring, thieves prefer adjacent places."""
        spec = ClusterSpec(n_places=6, workers_per_place=1, max_threads=1,
                           topology="ring")
        rt = SimRuntime(spec, DistWS(victim_order="nearest"), seed=0)
        shipped = []
        orig = rt.network.send

        def send(src, dst, nbytes, kind="task_ship"):
            if kind == "task_ship" and src != dst:
                shipped.append((src, dst))
            return orig(src, dst, nbytes, kind)

        rt.network.send = send

        def program(rt):
            ap = Apgas(rt)
            def driver(ctx):
                for i in range(12):
                    ctx.spawn(None, place=3, work=4_000_000,
                              flexible=True, label="leaf")
            ap.async_at(3, driver, work=1_000, label="driver")

        rt.run(program)
        assert shipped, "expected cross-place task shipping"
        # All steals originate from place 3; nearest thieves (2 and 4)
        # get first pick, so they appear among the receivers.
        receivers = {dst for _src, dst in shipped}
        assert receivers & {2, 4}

    def test_nearest_completes_work(self):
        spec = ClusterSpec(n_places=4, workers_per_place=2, max_threads=4,
                           topology="ring")
        rt = SimRuntime(spec, DistWS(victim_order="nearest"), seed=0)

        def program(rt):
            ap = Apgas(rt)
            for i in range(24):
                ap.async_at(0, None, work=2_000_000, flexible=True,
                            label="leaf")

        stats = rt.run(program)
        assert stats.tasks_executed == 24


class TestStealOrderPreference:
    def test_local_work_preferred_over_remote(self):
        """With work available locally, no remote steal request is sent."""
        spec = ClusterSpec(n_places=2, workers_per_place=2, max_threads=2)
        rt = SimRuntime(spec, DistWS(), seed=0)

        def program(rt):
            ap = Apgas(rt)
            # Evenly loaded places: everything can be satisfied locally.
            for p in (0, 1):
                for i in range(4):
                    ap.async_at(p, None, work=100_000, label="leaf")

        stats = rt.run(program)
        assert stats.steals.remote_hits == 0

    def test_single_place_never_attempts_remote(self):
        spec = ClusterSpec(n_places=1, workers_per_place=4, max_threads=4)
        rt = SimRuntime(spec, DistWS(), seed=0)

        def program(rt):
            ap = Apgas(rt)
            for i in range(16):
                ap.async_at(0, None, work=500_000, flexible=True,
                            label="leaf")

        stats = rt.run(program)
        assert stats.steals.remote_attempts == 0
        assert stats.messages == 0
