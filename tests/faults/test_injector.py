"""Behavioural tests for the fault injector against small runs."""

from __future__ import annotations

import pytest

from repro.cluster.topology import ClusterSpec
from repro.errors import ConfigError, PlaceFailedError
from repro.faults import FaultInjector, FaultPlan
from repro.runtime.runtime import SimRuntime
from repro.sched import DistWS

from tests.faults.conftest import fanout_program

N_PLACES = 4
N_TASKS = 32
WORK = 1_000_000


def spec():
    return ClusterSpec(n_places=N_PLACES, workers_per_place=2, max_threads=4)


def fault_free_makespan():
    rt = SimRuntime(spec(), DistWS(), seed=1)
    stats = rt.run(fanout_program(N_TASKS, work=WORK, n_places=N_PLACES))
    return stats.makespan_cycles


class TestAttachment:
    def test_empty_plan_attach_is_noop(self):
        rt = SimRuntime(spec(), DistWS(), seed=1)
        FaultInjector(FaultPlan()).attach(rt)
        assert rt.faults is None
        assert rt.network.faults is None

    def test_unresolved_fractional_plan_rejected(self):
        rt = SimRuntime(spec(), DistWS(), seed=1)
        with pytest.raises(ConfigError):
            FaultInjector(FaultPlan.parse("crash:p1@0.5")).attach(rt)

    def test_double_attach_rejected(self):
        rt = SimRuntime(spec(), DistWS(), seed=1)
        plan = FaultPlan.parse("crash:p1@5e6")
        FaultInjector(plan).attach(rt)
        with pytest.raises(ConfigError):
            FaultInjector(plan).attach(rt)

    def test_attach_after_start_rejected(self):
        rt = SimRuntime(spec(), DistWS(), seed=1)
        rt.run(fanout_program(4, work=1000, n_places=N_PLACES))
        with pytest.raises(ConfigError):
            FaultInjector(FaultPlan.parse("crash:p1@5e6")).attach(rt)


class TestCrashRecovery:
    def test_flexible_tasks_reexecuted_exactly_once(self):
        horizon = fault_free_makespan()
        plan = FaultPlan.parse("crash:p2@0.5").resolved(horizon)
        rt = SimRuntime(spec(), DistWS(), seed=1)
        inj = FaultInjector(plan).attach(rt)
        executed = []
        stats = rt.run(fanout_program(N_TASKS, work=WORK,
                                      n_places=N_PLACES, executed=executed))
        # Every leaf body ran exactly once, by value.
        assert sorted(executed) == list(range(N_TASKS))
        assert stats.tasks_executed == stats.tasks_spawned
        inj.ledger.assert_work_conserved()
        assert stats.faults is not None
        assert stats.faults.places_crashed == [2]
        # The crash actually cost something: tasks were lost and re-run,
        # or finished in flight at the crash instant.
        assert (stats.faults.tasks_lost + stats.faults.committed_at_crash) > 0
        assert stats.faults.tasks_reexecuted == stats.faults.tasks_lost

    def test_dead_place_never_executes_after_crash(self):
        horizon = fault_free_makespan()
        plan = FaultPlan.parse("crash:p2@0.4").resolved(horizon)
        rt = SimRuntime(spec(), DistWS(), seed=1)
        FaultInjector(plan).attach(rt)
        rt.run(fanout_program(N_TASKS, work=WORK, n_places=N_PLACES))
        crash_at = plan.crashes[0].at
        place = rt.places[2]
        assert place.dead
        for w in place.workers:
            assert not w.executing
        # No task *finished* at p2 after the crash instant.
        for p in rt.places:
            for w in p.workers:
                assert w.current_task is None

    def test_sensitive_fail_fast_raises(self):
        plan = FaultPlan.parse("crash:p2@5e5")  # early absolute crash
        rt = SimRuntime(spec(), DistWS(), seed=1)
        FaultInjector(plan).attach(rt)
        with pytest.raises(PlaceFailedError):
            rt.run(fanout_program(N_TASKS, work=WORK, n_places=N_PLACES,
                                  flexible=False))

    def test_sensitive_relax_degrades_and_completes(self):
        plan = FaultPlan.parse("crash:p2@5e5,policy:relax")
        rt = SimRuntime(spec(), DistWS(), seed=1)
        executed = []
        stats_inj = FaultInjector(plan).attach(rt)
        stats = rt.run(fanout_program(N_TASKS, work=WORK, n_places=N_PLACES,
                                      flexible=False, executed=executed))
        assert sorted(executed) == list(range(N_TASKS))
        assert stats.faults.sensitive_degraded > 0
        stats_inj.ledger.assert_work_conserved()


class TestCrashDuringStealWindows:
    """Crashes timed into the thief-side steal machinery.

    With every task homed at p0, places 1-3 bootstrap purely through
    distributed steals, so early crash times land while p1's thieves are
    queued on p0's shared-deque lock or holding a stolen chunk in flight
    — tasks that are neither queued nor anyone's ``current_task``.  Work
    conservation must hold regardless (this sweep hangs at ``max_cycles``
    if an in-transit chunk is dropped or a dead waiter strands the lock).
    """

    def test_crash_sweep_over_steal_storm(self):
        for at in range(10_000, 110_000, 10_000):
            plan = FaultPlan.parse(f"crash:p1@{at}")
            rt = SimRuntime(spec(), DistWS(), seed=1)
            inj = FaultInjector(plan).attach(rt)
            executed = []
            stats = rt.run(fanout_program(N_TASKS, work=WORK, n_places=1,
                                          executed=executed),
                           max_cycles=1e9)
            assert sorted(executed) == list(range(N_TASKS)), f"crash@{at}"
            inj.ledger.assert_work_conserved()
            assert stats.tasks_executed == stats.tasks_spawned
        # After every run, no worker still holds an in-transit chunk.
        for p in rt.places:
            for w in p.workers:
                assert w.pending_chunk == []

    def test_crash_during_colocated_steal_stall_keeps_task(self):
        # p3 crashes inside a worker's 250-cycle local_steal_success stall:
        # the stolen task has left the victim's deque but is not yet the
        # thief's current_task.  It must be relocated, not dropped (the
        # run then never terminates: "1 tasks still pending").  A crash
        # ~1100 cycles earlier misses the window.
        from repro.apps import make_app

        plan = FaultPlan.parse("crash:p3@4761102")
        rt = SimRuntime(spec(), DistWS(), seed=1)
        inj = FaultInjector(plan).attach(rt)
        app = make_app("uts", scale="test", seed=12345)
        stats = app.run(rt, validate=True, max_cycles=1e8)
        inj.ledger.assert_work_conserved()
        assert stats.tasks_executed == stats.tasks_spawned
        assert stats.faults.tasks_reexecuted == stats.faults.tasks_lost

    def test_task_lost_twice_is_relocated_again(self):
        # p2, a survivor of the first crash, crashes while tasks
        # relocated from p1 are still queued there: those tasks are lost
        # a second time and must move again, not abort the run.
        plan = FaultPlan.parse("crash:p1@4e5,crash:p2@5e5")
        rt = SimRuntime(spec(), DistWS(), seed=1)
        inj = FaultInjector(plan).attach(rt)
        executed = []
        stats = rt.run(fanout_program(N_TASKS, work=WORK,
                                      n_places=N_PLACES, executed=executed))
        assert sorted(executed) == list(range(N_TASKS))
        inj.ledger.assert_work_conserved()
        assert stats.faults.places_crashed == [1, 2]
        # At least one task was caught by both crashes.
        assert inj.ledger.loss_events > inj.ledger.lost_count
        # Every loss event was answered by exactly one relocation.
        assert stats.faults.tasks_reexecuted == stats.faults.tasks_lost


class TestOtherFaults:
    def test_straggler_slows_the_run(self):
        base = fault_free_makespan()
        plan = FaultPlan.parse("straggle:p1x8")
        rt = SimRuntime(spec(), DistWS(), seed=1)
        FaultInjector(plan).attach(rt)
        stats = rt.run(fanout_program(N_TASKS, work=WORK, n_places=N_PLACES))
        assert stats.makespan_cycles > base

    def test_message_loss_counted_and_work_conserved(self):
        plan = FaultPlan.parse("loss:all=0.2,seed:3")
        rt = SimRuntime(spec(), DistWS(), seed=1)
        inj = FaultInjector(plan).attach(rt)
        executed = []
        # All homes at p0: the other three places must steal remotely,
        # so the lossy interconnect actually carries traffic.
        stats = rt.run(fanout_program(N_TASKS, work=WORK,
                                      n_places=1, executed=executed))
        assert sorted(executed) == list(range(N_TASKS))
        assert stats.faults.dropped_total > 0
        # Every reliable-transport drop was paid for with a retransmit;
        # steal requests/replies instead cost timeouts at the thief.
        drops = stats.faults.messages_dropped
        protocol_drops = (drops.get("steal_request", 0)
                          + drops.get("steal_reply", 0))
        assert (stats.faults.retransmits + stats.faults.steal_timeouts
                >= stats.faults.dropped_total - protocol_drops)
        inj.ledger.assert_work_conserved()

    def test_harness_run_once_accepts_fault_plan(self):
        from repro.harness.experiment import run_once
        plan = FaultPlan.parse("straggle:p1x2")
        res = run_once("dmg", "DistWS", spec=spec(), scale="test",
                       fault_plan=plan)
        assert res.stats.faults is not None
        assert res.stats.faults.snapshot()["tasks_lost"] == 0

    def test_latency_spike_stretches_makespan(self):
        base = fault_free_makespan()
        plan = FaultPlan.parse("spike:@0.0+1.0x64").resolved(base * 4)
        rt = SimRuntime(spec(), DistWS(), seed=1)
        FaultInjector(plan).attach(rt)
        stats = rt.run(fanout_program(N_TASKS, work=WORK, n_places=N_PLACES))
        assert stats.makespan_cycles >= base
