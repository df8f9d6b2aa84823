"""Integration matrix: every paper app completes and validates under
every scheduler (test scale, small cluster)."""

from __future__ import annotations

from collections import Counter

import pytest

from repro import ClusterSpec, SimRuntime, make_scheduler
from repro.apps import APP_REGISTRY, PAPER_APPS, make_app
from repro.obs import EventBus, InMemorySink
from repro.runtime.task import _reset_task_ids

SCHEDULERS = ("X10WS", "DistWS", "DistWS-NS", "RandomWS", "Lifeline")


@pytest.mark.parametrize("app_name", PAPER_APPS)
@pytest.mark.parametrize("sched_name", SCHEDULERS)
def test_app_completes_and_validates(app_name, sched_name):
    spec = ClusterSpec(n_places=2, workers_per_place=2, max_threads=4)
    app = make_app(app_name, scale="test", seed=11)
    rt = SimRuntime(spec, make_scheduler(sched_name), seed=2)
    stats = app.run(rt)  # validates internally
    assert stats.tasks_executed == stats.tasks_spawned
    assert stats.makespan_cycles > 0


@pytest.mark.parametrize("app_name", PAPER_APPS)
def test_single_worker_equals_work_sum(app_name):
    """On one worker the makespan is within overhead of the pure work."""
    spec = ClusterSpec(n_places=1, workers_per_place=1, max_threads=2)
    app = make_app(app_name, scale="test", seed=11)
    rt = SimRuntime(spec, make_scheduler("X10WS"), seed=2)
    stats = app.run(rt)
    assert stats.makespan_cycles >= stats.work_sum_cycles
    assert stats.makespan_cycles <= stats.work_sum_cycles * 1.3


class _TaskEnds(InMemorySink):
    consumes = frozenset(("task_end",))


def _task_program(app_name: str, sched_name: str, seed: int) -> Counter:
    """The multiset of (label, work) of the tasks one 8x4 run commits."""
    _reset_task_ids()
    spec = ClusterSpec(n_places=8, workers_per_place=4, max_threads=6)
    rt = SimRuntime(spec, make_scheduler(sched_name), seed=seed)
    bus = EventBus()
    ends = bus.subscribe(_TaskEnds())
    bus.attach(rt)
    make_app(app_name, scale="test", seed=12345).run(rt)
    return Counter((ev.fields["label"], ev.fields["work"])
                   for ev in ends.events)


#: DMR is exempt: which bad triangles a refinement meets depends on the
#: order cavities are re-triangulated, so its task count is
#: schedule-dependent, as in Lonestar.
_SAME_PROGRAM_APPS = [
    pytest.param("nbody", marks=pytest.mark.xfail(
        strict=True, reason="force_phase draws every group's cost-estimate "
        "sample from one per-step rng in the order the drivers run, so a "
        "force task's work depends on the schedule"))
    if name == "nbody" else name
    for name in APP_REGISTRY if name != "dmr"]


@pytest.mark.parametrize("app_name", _SAME_PROGRAM_APPS)
def test_every_scheduler_runs_the_same_task_program(app_name):
    """The schedulers are compared on one program: the tasks committed,
    with their simulated work, do not depend on the policy or its seed."""
    first = _task_program(app_name, "X10WS", 1)
    for sched_name in ("X10WS", "DistWS-NS", "DistWS"):
        for seed in (1, 2):
            if (sched_name, seed) != ("X10WS", 1):
                assert _task_program(app_name, sched_name, seed) == first, (
                    sched_name, seed)
