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
from collections import Counter

import pytest

from repro.apps import make_app
from repro.cluster.topology import ClusterSpec
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs import (ChromeTraceSink, EventBus, InMemorySink, JsonlSink,
                       MetricsRegistry)
from repro.obs.bus import _STEAL_LIFECYCLE
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


#: Observed replay cells: ``sched[@topology]|app|seed[|fault plan]`` and
#: the policy's knobs.  LocalizedWS with ``radius_strikes=1`` runs a
#: fallback round every other failed round, so collapsed rounds must
#: replay its ``radius_fallback`` events; MultiStealWS keeps DistWS's
#: hooks.  The faulted cells run the collapse beside crashes (a heap
#: entry the quiescence guard must not cross), steal-message loss and
#: the victim blacklist.
_REPLAY_CELLS = [
    ("DistWS|uts|1", {}),
    ("X10WS|turing|1", {}),
    ("LocalizedWS|uts|1", {"radius_strikes": 1}),
    ("MultiStealWS|uts|1", {"steal_width": 3}),
    ("X10WS|turing|1|crash:p2@1500000,policy:relax,seed:3", {}),
    ("DistWS|turing|1|crash:p2@1500000,policy:relax,loss:steal=0.1,seed:3",
     {}),
    ("LocalizedWS|uts|1|crash:p1@600000,loss:steal=0.1,seed:3",
     {"radius_strikes": 1}),
    ("MultiStealWS|uts|1|crash:p2@600000,loss:steal=0.1,seed:3",
     {"steal_width": 3}),
    # Half the steal messages lost: victims get blacklisted mid-run.
    ("DistWS|uts|1|crash:p2@600000,loss:steal=0.5,seed:3", {}),
    # The crash lands inside a co-located probe and the stop cuts another
    # worker's round short: both hold attempts the scan has not tallied.
    ("DistWS|uts|1|crash:p2@489027,seed:3", {}),
    # DistWS's ablation knobs: nearest-first victims on a ring (a victim
    # order that draws no RNG) and a LIFO shared deque.
    ("DistWS@ring|uts|1", {"victim_order": "nearest"}),
    ("DistWS|turing|1", {"shared_fifo": False}),
]


def _cell_runtime(key: str, knobs: dict, shape=(4, 2, 4)):
    """A runtime for ``key`` on ``shape`` = (places, workers a place,
    threads a place), its fault plan attached, and the name of the app
    to run on it."""
    sched, app, seed, *plan = key.split("|")
    sched, _, topology = sched.partition("@")
    places, workers, threads = shape
    _reset_task_ids()
    spec = ClusterSpec(n_places=places, workers_per_place=workers,
                       max_threads=threads, topology=topology or "full")
    rt = SimRuntime(spec, make_scheduler(sched, **knobs), seed=int(seed))
    if plan:
        FaultInjector(FaultPlan.parse(plan[0])).attach(rt)
    return rt, app


def _observed_cell(key: str, knobs: dict, sample_interval: float):
    """Golden-spec run of ``key`` under MetricsRegistry + JsonlSink."""
    rt, app = _cell_runtime(key, knobs)
    bus = EventBus(sample_interval=sample_interval)
    bus.subscribe(MetricsRegistry())
    stream = io.StringIO()
    bus.subscribe(JsonlSink(stream=stream))
    bus.attach(rt)
    stats = make_app(app, scale="test", seed=12345).run(rt)
    return (stream.getvalue(), json.dumps(stats.snapshot(), sort_keys=True),
            rt.env.events_processed)


@pytest.mark.parametrize("interval", [100_000, 7_919])
@pytest.mark.parametrize("key,knobs", _REPLAY_CELLS,
                         ids=[key for key, _ in _REPLAY_CELLS])
def test_collapsed_round_replays_observed_stream_exactly(key, knobs, interval,
                                                         monkeypatch):
    """The collapsed failed round runs under an observer, with or
    without a fault plan, and replays the per-probe round's events:
    stream, snapshot (obs and fault blocks included) and
    ``events_processed`` equal a run with the collapse turned off.  The
    7_919-cycle sampler fires samples from inside replays."""
    policy = type(make_scheduler(key.split("|")[0].partition("@")[0],
                                 **knobs))
    collapsed = []
    fast_round = policy.fast_round

    def counting_fast_round(self, worker):
        due = fast_round(self, worker)
        if due is not None:
            collapsed.append(due)
        return due

    monkeypatch.setattr(policy, "fast_round", counting_fast_round)
    fast = _observed_cell(key, knobs, interval)
    assert collapsed, "no round collapsed"
    monkeypatch.setattr(policy, "fast_round", lambda self, worker: None)
    per_probe = _observed_cell(key, knobs, interval)
    assert fast[0] == per_probe[0]
    assert fast[1] == per_probe[1]
    assert fast[2] == per_probe[2]


#: The replay cells, plus two with four workers a place: with a single
#: co-located peer the steal scan never advances past its first probe.
#: The last two run on 8 places x 4 workers (8 threads a place) with a
#: ChromeTraceSink beside the registry, the full stack a traced run
#: attaches; X10WS on turing collapses most of its failed rounds.
_TALLY_CELLS = ([(key, knobs, (4, 2, 4), False)
                 for key, knobs in _REPLAY_CELLS]
                + [("DistWS|uts|1", {}, (4, 4, 6), False),
                   ("X10WS|turing|1", {}, (4, 4, 6), False),
                   ("DistWS|dmg|1", {}, (8, 4, 8), True),
                   ("X10WS|turing|1", {}, (8, 4, 8), True)])


def _tally_id(key: str, shape, trace: bool) -> str:
    if shape == (4, 2, 4):
        return key
    return f"{key}@{shape[0]}x{shape[1]}" + ("+chrome" if trace else "")


def _tally_cell(key: str, knobs: dict, shape, trace: "str | None",
                sample_interval, everything: bool, monkeypatch):
    """Run ``key`` on ``shape``, observed by MetricsRegistry (plus a
    ChromeTraceSink writing to ``trace``, when given), plus a
    consume-everything sink when ``everything``.  Returns the snapshot's
    ``obs`` and ``steals`` blocks and the events that reached
    :meth:`EventBus.emit_at`, counted by kind."""
    emit_at = EventBus.emit_at
    dispatched = Counter()

    def counting_emit_at(self, t, kind, fields):
        dispatched[kind] += 1
        emit_at(self, t, kind, fields)

    monkeypatch.setattr(EventBus, "emit_at", counting_emit_at)
    rt, app = _cell_runtime(key, knobs, shape)
    bus = EventBus(sample_interval=sample_interval)
    bus.subscribe(MetricsRegistry())
    if trace:
        bus.subscribe(ChromeTraceSink(trace))
    if everything:
        bus.subscribe(InMemorySink())
    bus.attach(rt)
    snap = make_app(app, scale="test", seed=12345).run(rt).snapshot()
    monkeypatch.undo()
    return snap["obs"], snap["steals"], dispatched


@pytest.mark.parametrize("interval", [None, 100_000, 7_919])
@pytest.mark.parametrize("key,knobs,shape,chrome", _TALLY_CELLS,
                         ids=[_tally_id(key, shape, chrome)
                              for key, _, shape, chrome in _TALLY_CELLS])
def test_tallied_attempts_match_dispatched_attempts(key, knobs, shape, chrome,
                                                    interval, monkeypatch,
                                                    tmp_path):
    """Every emission site counts an event no sink reads instead of
    dispatching it: the event counts and the metrics block equal a run
    whose consume-everything sink forces per-event dispatch of every
    kind.  The 7_919-cycle sampler falls due inside rounds, where events
    must be dispatched one by one."""
    trace = str(tmp_path / "trace.json") if chrome else None
    tallied, steals, dispatched = _tally_cell(
        key, knobs, shape, trace, interval, False, monkeypatch)
    everything, _, all_dispatched = _tally_cell(
        key, knobs, shape, trace, interval, True, monkeypatch)
    assert tallied == everything
    assert all_dispatched == Counter(everything["events"])
    if interval is None:
        # Not vacuous: with no sampler, exactly the kinds a sink reads
        # and the steal-lifecycle kinds reach emit_at, each every time.
        read = MetricsRegistry.consumes | _STEAL_LIFECYCLE
        if chrome:
            read |= ChromeTraceSink.consumes
        assert dispatched == Counter({k: n for k, n in
                                      tallied["events"].items()
                                      if k in read})
        assert set(tallied["events"]) - read >= {
            "steal_attempt", "task_start", "worker_park"}
        assert tallied["events"]["steal_attempt"] == (
            steals["local_attempts"] + steals["shared_local_attempts"])


#: Bare cells on 8 places x 4 workers (8 threads a place), each pinned
#: on ``(makespan_cycles, tasks_executed, total_steals,
#: events_processed)``: steal-heavy trees under board-driven and lifeline
#: stealing, and barrier-phased ring exchange with heavy park/wake churn.
#: A kernel change that moves any of them skipped or double-counted a
#: heap entry, or changed the physics.
_GRID_CELLS = {
    "DistWS|uts|1": (1632789.6, 948, 875, 8237),
    "DistWS|turing|1": (21912986.93296049, 416, 220, 17258),
    "Lifeline|uts|1": (1714169.9999999986, 948, 791, 8367),
}


@pytest.mark.parametrize("key", sorted(_GRID_CELLS))
def test_grid_cell_observables_pinned(key):
    rt, app = _cell_runtime(key, {}, (8, 4, 8))
    stats = make_app(app, scale="test", seed=12345).run(rt)
    assert (stats.makespan_cycles, stats.tasks_executed,
            stats.steals.total_steals,
            rt.env.events_processed) == _GRID_CELLS[key]


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
