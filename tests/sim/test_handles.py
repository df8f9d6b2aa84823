"""Handle lifecycle and reference-kernel equivalence for the kernel.

The struct-of-arrays kernel keys every schedulable entity — process
resumes, events, park hops, backoff probes, kernel-resident steal scans —
by a small-integer handle recycled through a free-list.  These tests pin
the lifecycle invariants:

- free-list exhaustion grows every column geometrically (never a cap);
- a finished process's handle is recycled LIFO, but a *dirty* handle
  (an interrupt left a stale armed entry in the heap) is retired forever
  — a stale pop must never fire a handle's new owner;
- spinners whose sleeps share every due time count exactly one
  dispatch per resume through the same-cycle batch drain;
- arbitrary arm/cancel/fire interleavings (hypothesis-driven) produce
  the same timeline, causes, and ``events_processed`` accounting as the
  object-record kernel kept in ``tests/sim/reference_kernel.py``.

- full simulations agree byte for byte, *including* ``events_processed``,
  between the batched run loop and a one-pop-per-step loop over
  ``Environment.step`` — the batched same-cycle dispatch counts every
  dispatched entry exactly as the unbatched loop does.

The golden cells in ``tests/sim/test_kernel_fastpath.py`` additionally
pin each cell's snapshot, ``events_processed`` and observer-stream hash.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import make_app
from repro.cluster.topology import ClusterSpec
from repro.runtime.runtime import SimRuntime
from repro.runtime.task import _reset_task_ids
from repro.sched import make_scheduler
from repro.sim import engine as flat_engine
from repro.sim.engine import (Environment, Interrupt, ParkRecord,
                              _INITIAL_CAPACITY)
from tests.sim import reference_kernel


# -- free-list growth --------------------------------------------------------

def test_free_list_exhaustion_grows_geometrically():
    env = Environment()
    assert env._cap == _INITIAL_CAPACITY

    def sleeper():
        yield env.sleep(1.0)

    procs = [env.process(sleeper()) for _ in range(3 * _INITIAL_CAPACITY)]
    # 192 handles force two doublings: 64 -> 128 -> 256.
    assert env._cap == 4 * _INITIAL_CAPACITY
    for col in (env._kind, env._pstate, env._pcause, env._arm, env._obj):
        assert len(col) == env._cap
    env.run()
    assert all(p.triggered for p in procs)
    # Every handle returned: no leak, no double-free.
    assert len(env._free) == env._cap
    assert sorted(env._free) == list(range(env._cap))


def test_growth_keeps_armed_entries_valid():
    """Entries armed before a growth fire correctly after it."""
    env = Environment()
    fired = []

    def early():
        yield env.sleep(5.0)
        fired.append(env.now)

    env.process(early())

    def burst():
        yield env.sleep(1.0)

    for _ in range(2 * _INITIAL_CAPACITY):  # force _grow() mid-flight
        env.process(burst())
    env.run()
    assert fired == [5.0]


# -- handle recycling --------------------------------------------------------

def test_finished_process_handle_recycled_lifo():
    env = Environment()

    def quick():
        yield env.sleep(1.0)

    p1 = env.process(quick())
    h1 = p1._h
    env.run()
    p2 = env.process(quick())
    assert p2._h == h1
    env.run()
    assert p2.triggered


def test_stale_entry_never_fires_old_or_new_owner():
    """An interrupt strands an armed sleep entry; it must pop as a no-op.

    The interrupted process's handle is *dirty*: recycling it could route
    the stale pop at t=100 to an unrelated new owner, so it is retired
    (cleared, never returned to the free-list).
    """
    env = Environment()
    log = []

    def victim_body():
        try:
            yield env.sleep(100.0)
            log.append("old-owner-resumed")  # must never happen
        except Interrupt:
            log.append("interrupted")

    victim = env.process(victim_body())

    def script():
        yield env.timeout(10.0)
        victim.interrupt("test")

    env.process(script())
    env.run()
    assert log == ["interrupted"]
    assert victim._dirty
    assert victim._h not in env._free
    # The stale entry drained as a no-op and advanced the clock.
    assert env.now == 100.0
    resumed = []

    def fresh():
        yield env.sleep(1.0)
        resumed.append(env.now)

    p2 = env.process(fresh())
    assert p2._h != victim._h
    env.run()
    assert resumed == [101.0]
    assert log == ["interrupted"]


def test_clean_interrupt_of_parked_process_recycles_handle():
    """A park cancel disarms in place: the handle stays clean."""
    env = Environment()

    def parker():
        proc = env._current
        park = ParkRecord(env, proc)
        try:
            park.begin(50.0, False)
            yield park
        except Interrupt:
            return

    p = env.process(parker())

    def script():
        yield env.timeout(5.0)
        p.interrupt("shutdown")

    env.process(script())
    env.run()
    assert p.triggered
    assert not p._dirty
    assert p._h in env._free


def test_spinners_sharing_due_times_count_every_resume():
    """Sleep-resume spinners that share every due time: the run loop's
    same-cycle batch drain dispatches each resume exactly once.  Each
    spinner costs one start, one resume per sleep and one exit."""
    env = Environment()
    n_spinners, per = 4, 500

    def spinner():
        for _ in range(per):
            yield env.sleep(1.0)

    for _ in range(n_spinners):
        env.process(spinner())
    env.run()
    assert env.events_processed == n_spinners * (per + 2)
    assert env.now == per


# -- hypothesis: interleavings match the reference kernel --------------------

def _cause_label(mod, cause):
    for name in ("CAUSE_DONE", "CAUSE_WORK", "CAUSE_TIMEOUT", "CAUSE_BOARD"):
        if cause is getattr(mod, name):
            return name
    return repr(cause)


def _park_trace(mod, ops):
    """One parker vs a scripted waker; returns the full wake timeline."""
    env = mod.Environment()
    trace = []
    park_box = []

    def parker():
        proc = env._current if hasattr(env, "_current") else None
        park = mod.ParkRecord(env, proc if proc is not None else env._current)
        park_box.append(park)
        for backoff in (3.0, 5.0, 7.0) * (len(ops) + 1):
            park.begin(backoff, False)
            cause = yield park
            trace.append((env.now, _cause_label(mod, cause)))

    def waker():
        for dt, act in ops:
            yield env.timeout(float(dt))
            park = park_box[0]
            if act == 0:
                park._fire(mod.CAUSE_WORK)
            elif act == 1:
                park._fire(mod.CAUSE_BOARD)
            # act == 2: let the backoff deadline win this window.

    env.process(parker())
    env.process(waker())
    env.run(until=float(sum(dt for dt, _ in ops) + 40))
    return trace, env.events_processed, env.now


@settings(deadline=None, max_examples=40)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 2)),
                min_size=1, max_size=20))
def test_park_interleavings_match_object_kernel(ops):
    """Same wakes, same causes, same event accounting, any interleaving.

    ``dt=0`` steps make wake sources race the backoff deadline at one
    timestamp — exactly the races the arm/seq guards must resolve the
    way the reference kernel's AnyOf pop order did.
    """
    flat = _park_trace(flat_engine, ops)
    reference = _park_trace(reference_kernel, ops)
    assert flat == reference


def _interrupt_trace(mod, plan):
    """Sleepers interrupted at scripted times; timeline + accounting."""
    env = mod.Environment()
    trace = []

    def sleeper(idx, dur):
        try:
            yield env.timeout(0.0)
            yield env.sleep(float(dur))
            trace.append(("slept", idx, env.now))
        except mod.Interrupt:
            trace.append(("interrupted", idx, env.now))

    procs = [env.process(sleeper(i, dur)) for i, (dur, _) in enumerate(plan)]

    def cutter(i, at):
        yield env.timeout(float(at))
        if procs[i].is_alive:
            procs[i].interrupt("cut")

    for i, (_, cut) in enumerate(plan):
        if cut is not None:
            env.process(cutter(i, cut))
    env.run()
    trace.sort()
    return trace, env.events_processed, env.now


@settings(deadline=None, max_examples=40)
@given(st.lists(
    st.tuples(st.integers(1, 12),
              st.one_of(st.none(), st.integers(0, 12))),
    min_size=1, max_size=12))
def test_sleep_interrupt_interleavings_match_object_kernel(plan):
    """Arm/cancel/fire races on plain sleeps agree across kernels.

    ``cut == dur`` makes the interrupt land exactly when the sleep would
    fire; ``cut > dur`` interrupts a process that already moved on.
    """
    flat = _interrupt_trace(flat_engine, plan)
    reference = _interrupt_trace(reference_kernel, plan)
    assert flat == reference


# -- full simulation: batched run loop vs one-pop-per-step dispatch ----------

def _stepped_run(self, until=None):
    """``Environment.run(until=event)`` as a loop over :meth:`step`.

    Every entry goes through the cold ``_dispatch`` copy one heap pop at
    a time: no batch drain, no inlined column lookups.
    """
    while self._queue:
        if until.callbacks is None:
            return until.value
        self.step()
    assert until.processed
    return until.value


def _run_cell(app: str, sched: str) -> str:
    _reset_task_ids()
    spec = ClusterSpec(n_places=4, workers_per_place=2, max_threads=6)
    rt = SimRuntime(spec, make_scheduler(sched), seed=1)
    stats = make_app(app, scale="test", seed=12345).run(rt, validate=False)
    return json.dumps({"events_processed": rt.env.events_processed,
                       "snapshot": stats.snapshot()}, sort_keys=True)


@pytest.mark.parametrize("app,sched", [
    ("uts", "DistWS"),     # scan + policy tail (shared deque, remote tier)
    ("uts", "X10WS"),      # scan only: a miss is a failed round (no tail)
    ("turing", "X10WS"),   # barrier phases: heavy park/wake churn
])
def test_full_run_identical_across_kernels_including_event_count(
        app, sched, monkeypatch):
    """Snapshots AND ``events_processed`` agree byte for byte.

    The batched run loop and the one-pop-per-step ``_dispatch`` path must
    count every logical dispatch the same — a diverging event count means
    the batch drain or a collapsed round skipped or double-counted an
    entry even if the physics happen to match.
    """
    batched = _run_cell(app, sched)
    monkeypatch.setattr(Environment, "run", _stepped_run)
    stepped = _run_cell(app, sched)
    assert json.loads(batched)["events_processed"] > 0
    assert batched == stepped
