"""Differential and bounded-memory guards for the kernel fast path.

``tests/sim/golden_kernel_snapshots.json`` was captured from the tree
*before* the fast-path rewrite (resume records, cancellable parks,
inlined run loop).  Every cell re-runs here on the current tree and must
match on three counts:

- the serialized ``RunStats.snapshot()`` of a bare run, byte for byte:
  simulated physics — makespan, steal counts, per-place utilization,
  every RNG draw — must be untouched by engine-only changes;
- that run's ``events_processed``: a diverging count means a heap entry
  was skipped or double-counted even if the physics happen to match;
- the SHA-256 of the ``JsonlSink`` stream of the same cell observed with
  ``EventBus(sample_interval=100_000)`` + ``MetricsRegistry``: the
  observed run must emit the same events, in the same order, with the
  same payloads and queue-depth samples.

The event counts and stream hashes were added while the object kernel
and the generator steal-round prefix still existed and agreed with the
flat kernel's kernel-resident scan on every cell, so they carry that
cross-implementation verdict forward.  The faulted cells (a crash plan
after the last ``|``) pin the kernel-resident scan under fault plans.

The bounded-memory tests pin down the other half of the contract: the
old kernel leaked one waiter ``Event`` per failed round per worker into
the done gate / place / board waiter lists and the event heap, growing
without bound on idle-heavy runs.  With the reusable park records both
must stay O(workers) no matter how many park/wake rounds elapse.
"""

from __future__ import annotations

import hashlib
import io
import json
import os

import pytest

from repro.apps import make_app
from repro.cluster.topology import ClusterSpec
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs import EventBus, JsonlSink, MetricsRegistry
from repro.runtime.runtime import SimRuntime
from repro.runtime.task import _reset_task_ids
from repro.sched import make_scheduler
from repro.sim.engine import CAUSE_TIMEOUT, CAUSE_WORK, Environment, ParkRecord

GOLDEN = os.path.join(os.path.dirname(__file__),
                      "golden_kernel_snapshots.json")

with open(GOLDEN) as _fh:
    _GOLDEN_CELLS = json.load(_fh)


def _run_cell(key: str, stream: "io.StringIO | None" = None):
    """Run one golden cell; observed when ``stream`` is given."""
    parts = key.split("|")
    _reset_task_ids()
    spec = ClusterSpec(n_places=4, workers_per_place=2, max_threads=4)
    rt = SimRuntime(spec, make_scheduler(parts[0]), seed=int(parts[2]))
    if len(parts) > 3:  # faulted cell, e.g. "crash:p2@600000,seed:3"
        FaultInjector(FaultPlan.parse(parts[3])).attach(rt)
    if stream is not None:
        bus = EventBus(sample_interval=100_000)
        bus.subscribe(MetricsRegistry())
        bus.subscribe(JsonlSink(stream=stream))
        bus.attach(rt)
    app = make_app(parts[1], scale="test", seed=12345)
    stats = app.run(rt)
    return stats.snapshot(), rt.env.events_processed


def cell_record(key: str) -> dict:
    """Bare snapshot + event count, and the observed run's stream hash."""
    snapshot, events = _run_cell(key)
    stream = io.StringIO()
    _run_cell(key, stream)
    return {
        "snapshot": snapshot,
        "events_processed": events,
        "stream_sha256": hashlib.sha256(
            stream.getvalue().encode()).hexdigest(),
    }


@pytest.mark.parametrize("key", sorted(_GOLDEN_CELLS))
def test_fastpath_matches_pre_rewrite_golden(key):
    expected = _GOLDEN_CELLS[key]
    got = cell_record(key)
    assert (json.dumps(got["snapshot"], sort_keys=True, indent=1)
            == json.dumps(expected["snapshot"], sort_keys=True, indent=1))
    assert got["events_processed"] == expected["events_processed"]
    assert got["stream_sha256"] == expected["stream_sha256"]


# -- bounded memory ---------------------------------------------------------

IDLE_ROUNDS = 10_000


def test_heap_and_gate_bounded_under_idle_churn():
    """Heap entries and gate waiters stay O(workers) over 10k rounds."""
    from repro.sim.resources import Gate

    env = Environment()
    gate = Gate(env)
    n_workers = 4
    peak_heap = 0

    def idler():
        proc = env._current
        park = ParkRecord(env, proc)
        gate.register_park(park)
        for _ in range(IDLE_ROUNDS):
            park.begin(5.0, gate.is_open)
            cause = yield park
            assert cause is CAUSE_TIMEOUT

    def driver():
        nonlocal peak_heap
        for _ in range(IDLE_ROUNDS):
            yield env.timeout(5.0)
            peak_heap = max(peak_heap, len(env._queue))

    def boot():
        # env._current is only set inside a running process, so the
        # idlers grab their own proc handles from there.
        for _ in range(n_workers):
            env.process(idler())
        yield env.timeout(0)

    env.process(boot())
    env.process(driver())
    env.run()
    # Each parked worker owns at most a wake hop + one deadline probe in
    # the heap; the driver adds one timeout.  Nothing accumulates.
    assert peak_heap <= 3 * n_workers + 2
    assert len(gate._waiters) == n_workers
    assert len(env._queue) == 0


def test_place_waiter_list_bounded_under_idle_churn():
    """``Place._work_waiters`` compaction keeps the list O(workers)."""
    env = Environment()
    spec = ClusterSpec(n_places=2, workers_per_place=4, max_threads=8)
    from repro.runtime.place import Place

    place = Place(env, 0, spec)
    n_workers = 4
    peak = 0

    def idler():
        proc = env._current
        park = ParkRecord(env, proc)
        for _ in range(IDLE_ROUNDS // 10):
            park.begin(50.0, False)
            place.add_park_waiter(park)
            cause = yield park
            assert cause is CAUSE_WORK

    def waker():
        nonlocal peak
        for _ in range(IDLE_ROUNDS // 10):
            yield env.timeout(1.0)
            peak = max(peak, len(place._work_waiters))
            place.notify_work()

    def boot():
        for _ in range(n_workers):
            env.process(idler())
        yield env.timeout(0)

    env.process(boot())
    env.process(waker())
    env.run()
    # The compaction threshold starts at 16 and tracks the live count,
    # so the list never grows past a small multiple of the worker count.
    assert peak <= 2 * n_workers + 16


def test_board_waiter_list_bounded_under_idle_churn():
    """``StatusBoard._waiters`` stays bounded across advertise churn."""
    from repro.runtime.status import StatusBoard

    env = Environment()
    board = StatusBoard(env)
    n_workers = 4
    peak = 0

    def idler():
        proc = env._current
        park = ParkRecord(env, proc)
        for _ in range(IDLE_ROUNDS // 10):
            park.begin(50.0, False)
            board.add_park_waiter(park)
            yield park

    def advertiser():
        nonlocal peak
        for i in range(IDLE_ROUNDS // 10):
            yield env.timeout(1.0)
            peak = max(peak, len(board._waiters))
            board.advertise(i % 2)
            board.retract(i % 2)

    def boot():
        for _ in range(n_workers):
            env.process(idler())
        yield env.timeout(0)

    env.process(boot())
    env.process(advertiser())
    env.run()
    assert peak <= 2 * n_workers + 16


# -- satellite regressions --------------------------------------------------

def test_mailbox_put_skips_abandoned_getters():
    """A crash while blocked on ``get`` must not swallow later items.

    Regression: ``Mailbox.put`` used to hand the item to the oldest
    getter unconditionally; if that getter's process had been
    interrupted (its place crashed mid-``get``), the item was delivered
    to a dead process and silently lost.
    """
    from repro.sim.engine import Interrupt
    from repro.sim.resources import Mailbox

    env = Environment()
    box = Mailbox(env)
    received = []

    def doomed():
        try:
            yield box.get()
            raise AssertionError("doomed getter should never receive")
        except Interrupt:
            return  # crashed while blocked on get

    def survivor():
        item = yield box.get()
        received.append(item)

    doomed_proc = env.process(doomed())

    def script():
        yield env.timeout(1)
        doomed_proc.interrupt("place-crash")
        yield env.timeout(1)
        env.process(survivor())
        yield env.timeout(1)
        box.put("task-42")

    env.process(script())
    env.run()
    assert received == ["task-42"]


def test_lock_queue_length_excludes_abandoned_waiters():
    """Crashed waiters no longer inflate ``SimLock.queue_length``."""
    from repro.sim.engine import Interrupt
    from repro.sim.resources import SimLock

    env = Environment()
    lock = SimLock(env)

    def holder():
        yield lock.acquire()
        yield env.timeout(100)
        lock.release()

    def doomed():
        try:
            yield lock.acquire()
            raise AssertionError("doomed waiter should never acquire")
        except Interrupt:
            return

    def live_waiter():
        yield lock.acquire()
        lock.release()

    env.process(holder())
    doomed_proc = env.process(doomed())
    env.process(live_waiter())

    def script():
        yield env.timeout(10)
        assert lock.queue_length == 2
        doomed_proc.interrupt("place-crash")
        yield env.timeout(0)
        # The abandoned waiter is still queued internally but is no
        # longer demand: release() will skip it.
        assert lock.queue_length == 1

    env.process(script())
    env.run()
    assert not lock.locked
