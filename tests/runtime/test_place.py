"""Unit tests for Place load-status bookkeeping."""

from __future__ import annotations

from repro.cluster.topology import ClusterSpec
from repro.runtime.place import Place
from repro.runtime.runtime import SimRuntime
from repro.runtime.task import Task
from repro.sched import DistWS
from repro.sim.engine import (CAUSE_BOARD, CAUSE_WORK, PARK_PARKED,
                              PARK_WAKING, ParkRecord)


def make_place(env, n_workers=2, max_threads=4):
    spec = ClusterSpec(n_places=1, workers_per_place=n_workers,
                       max_threads=max_threads)
    rt = SimRuntime(spec, DistWS(), seed=0)
    return rt.places[0]


class TestStatusFlags:
    def test_fresh_place_is_idle_and_under_utilized(self, env):
        p = make_place(env)
        assert p.running_activities == 0
        assert p.is_under_utilized()
        assert p.spares() == p.n_workers

    def test_failed_steals_deactivate_after_n(self, env):
        p = make_place(env, n_workers=2)
        p.note_failed_steal()
        assert p.active
        p.note_failed_steal()
        assert not p.active

    def test_assignment_reactivates(self, env):
        p = make_place(env, n_workers=2)
        p.note_failed_steal()
        p.note_failed_steal()
        p.note_assignment()
        assert p.active
        assert p.failed_steals == 0

    def test_size_counts_running_and_queued(self, env):
        p = make_place(env)
        p.workers[0].deque.push(Task(None, 0))
        p.shared.push(Task(None, 0))
        p.running_activities = 1
        assert p.size() == 3
        assert p.queued_private() == 1
        assert p.queued_total() == 2

    def test_under_utilized_threshold(self, env):
        p = make_place(env, n_workers=2, max_threads=3)
        for _ in range(3):
            p.shared.push(Task(None, 0))
        assert not p.is_under_utilized()

    def test_spares_excludes_workers_with_queued_tasks(self, env):
        p = make_place(env, n_workers=2)
        p.workers[0].deque.push(Task(None, 0))
        assert p.spares() == 1

    def test_spares_excludes_executing_workers(self, env):
        p = make_place(env, n_workers=2)
        p.workers[0].executing = True
        assert p.spares() == 1


class TestDequeSelection:
    def test_prefers_idle_empty_worker(self, env):
        p = make_place(env, n_workers=2)
        p.workers[0].executing = True
        d = p.pick_private_deque()
        assert d is p.workers[1].deque

    def test_round_robin_when_all_busy(self, env):
        p = make_place(env, n_workers=2)
        for w in p.workers:
            w.executing = True
        first = p.pick_private_deque()
        second = p.pick_private_deque()
        assert first is not second

    def test_least_loaded(self, env):
        p = make_place(env, n_workers=3)
        p.workers[0].deque.push(Task(None, 0))
        p.workers[1].deque.push(Task(None, 0))
        # Every worker is idle, so the shortest deque gets the task.
        assert p.pick_private_deque() is p.workers[2].deque


def parked(env, delay=50.0):
    """A park record armed for one idle round (no process resumes it:
    the tests read its state and cause)."""
    return ParkRecord(env, None).begin(delay, False)


class TestWorkNotify:
    def test_notify_wakes_waiters(self, env):
        p = make_place(env)
        park = parked(p.env)
        p.add_park_waiter(park)
        assert park.state == PARK_PARKED
        p.notify_work()
        assert park.state == PARK_WAKING
        assert park.cause is CAUSE_WORK

    def test_notify_skips_already_triggered(self, env):
        p = make_place(env)
        park = parked(p.env)
        p.add_park_waiter(park)
        park._fire(CAUSE_BOARD)  # woke some other way (the status board)
        p.notify_work()  # must not re-fire
        assert park.cause is CAUSE_BOARD

    def test_notify_skips_stale_round(self, env):
        p = make_place(env)
        park = parked(p.env)
        p.add_park_waiter(park)
        park.begin(50.0, False)  # a new round, not registered here
        p.notify_work()
        assert park.state == PARK_PARKED

    def test_waiter_list_cleared(self, env):
        p = make_place(env)
        p.add_park_waiter(parked(p.env))
        p.notify_work()
        assert p._work_waiters == []

    def test_compaction_keeps_only_live_entries(self, env):
        p = make_place(env)
        park = parked(p.env)
        for _ in range(16):
            p.add_park_waiter(park)
            park.begin(50.0, False)
        # The 17th append crosses the threshold: every earlier round's
        # entry is swept, only the one for the current round is left.
        p.add_park_waiter(park)
        assert p._work_waiters == [(park, park.round)]
