"""Event-bus wiring: attach semantics, schema validation, counts."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.apps import make_app
from repro.cluster.topology import ClusterSpec
from repro.errors import ConfigError
from repro.obs import (EVENT_SCHEMA, ChromeTraceSink, EventBus, InMemorySink,
                       MetricsRegistry)
from repro.runtime.runtime import SimRuntime
from repro.runtime.task import _reset_task_ids
from repro.sched import make_scheduler

from tests.faults.conftest import fanout_program


def make_rt(n_places=4, workers=2, seed=7):
    spec = ClusterSpec(n_places=n_places, workers_per_place=workers,
                       max_threads=workers + 2)
    return SimRuntime(spec, make_scheduler("DistWS"), seed=seed)


def observed_run(sample_interval=None, n_places=4):
    rt = make_rt(n_places=n_places)
    bus = EventBus(sample_interval=sample_interval)
    sink = bus.subscribe(InMemorySink())
    bus.attach(rt)
    stats = rt.run(fanout_program(24, work=500_000, n_places=n_places))
    return bus, sink, stats


class TestAttach:
    def test_no_sinks_attach_is_noop(self):
        rt = make_rt()
        bus = EventBus()
        bus.attach(rt)
        assert rt.obs is None
        assert rt.network.obs is None
        assert not bus.active

    def test_attach_installs_bus_and_opens_sinks(self):
        rt = make_rt()
        bus = EventBus()
        bus.subscribe(InMemorySink())
        bus.attach(rt)
        assert rt.obs is bus
        assert rt.network.obs is bus
        assert bus.active

    def test_attach_after_start_rejected(self):
        rt = make_rt(n_places=2)
        rt.run(fanout_program(4, work=100_000, n_places=2))
        bus = EventBus()
        bus.subscribe(InMemorySink())
        with pytest.raises(ConfigError):
            bus.attach(rt)

    def test_double_attach_rejected(self):
        rt = make_rt()
        bus = EventBus()
        bus.subscribe(InMemorySink())
        bus.attach(rt)
        other = EventBus()
        other.subscribe(InMemorySink())
        with pytest.raises(ConfigError):
            other.attach(rt)
        with pytest.raises(ConfigError):
            bus.attach(make_rt())

    def test_bad_sample_interval_rejected(self):
        with pytest.raises(ConfigError):
            EventBus(sample_interval=0)
        with pytest.raises(ConfigError):
            EventBus(sample_interval=-5)

    def test_standalone_bus_cannot_sample(self):
        """The sampler reads a runtime's places; a clock-only bus has
        none, so it is refused up front instead of crashing on the first
        emit."""
        bus = EventBus(sample_interval=10)
        bus.subscribe(InMemorySink())
        with pytest.raises(ConfigError, match="sample_interval"):
            bus.attach_clock(lambda: 0.0)


class TestEmit:
    def test_unknown_kind_rejected(self):
        bus, _, _ = observed_run()
        with pytest.raises(ConfigError):
            bus.emit_at(0.0, "nosuch_event", {"foo": 1})

    def test_wrong_fields_rejected(self):
        rt = make_rt()
        bus = EventBus()
        bus.subscribe(InMemorySink())
        bus.attach(rt)
        with pytest.raises(ConfigError):
            bus.emit_at(0.0, "task_start", {"task": 1})  # missing place/worker
        with pytest.raises(ConfigError):
            bus.emit_at(0.0, "task_start",
                        {"task": 1, "place": 0, "worker": 0, "extra": 9})

    def test_counts_match_sink(self):
        bus, sink, _ = observed_run()
        assert sum(bus.counts.values()) == len(sink.events)
        for kind in sink.kinds():
            assert bus.counts[kind] == sum(
                1 for ev in sink.events if ev.kind == kind)

    def test_events_cover_core_kinds(self):
        _, sink, stats = observed_run()
        kinds = set(sink.kinds())
        assert {"task_spawn", "task_start", "task_end"} <= kinds
        ends = [ev for ev in sink.events if ev.kind == "task_end"]
        assert len(ends) == stats.tasks_executed
        spawns = [ev for ev in sink.events if ev.kind == "task_spawn"]
        assert len(spawns) == stats.tasks_spawned

    def test_every_event_matches_schema(self):
        _, sink, _ = observed_run(sample_interval=50_000)
        for ev in sink.events:
            schema = EVENT_SCHEMA[ev.kind]
            assert tuple(sorted(ev.fields)) == tuple(sorted(schema))

    def test_timestamps_monotone(self):
        _, sink, stats = observed_run()
        times = [ev.t for ev in sink.events]
        assert times == sorted(times)
        assert times[-1] <= stats.makespan_cycles


class TestSnapshot:
    def test_obs_key_present_with_sinks(self):
        _, _, stats = observed_run()
        snap = stats.snapshot()
        assert "obs" in snap
        assert snap["obs"]["events"]["task_end"] == stats.tasks_executed

    def test_sampler_emits_per_place(self):
        bus, sink, _ = observed_run(sample_interval=100_000, n_places=3)
        samples = [ev for ev in sink.events if ev.kind == "sample"]
        assert samples, "sampler produced no events"
        assert len(samples) % 3 == 0  # one per place per trigger
        for ev in samples:
            assert ev.fields["private"] >= 0
            assert ev.fields["shared"] >= 0
            assert ev.fields["mailbox"] >= 0
            assert ev.fields["outstanding"] >= 0

    def test_no_sampler_no_samples(self):
        bus, sink, _ = observed_run(sample_interval=None)
        assert "sample" not in sink.kinds()


class TestSimulatedScheduleUnchanged:
    """Sinks observe; they never perturb the simulated run."""

    def test_snapshot_identical_modulo_obs_key(self):
        rt = make_rt()
        plain = rt.run(fanout_program(24, work=500_000, n_places=4))
        bus, _, observed = observed_run()
        a = plain.snapshot()
        b = observed.snapshot()
        assert "obs" not in a
        b.pop("obs")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    @pytest.mark.parametrize("sched,app", [("DistWS", "dmg"),
                                           ("X10WS", "turing")])
    def test_app_run_identical_modulo_obs_key(self, sched, app, tmp_path):
        """The full stack a traced run attaches (registry, Chrome trace,
        100_000-cycle sampler) on an 8x4 app run: X10WS on turing
        collapses most failed rounds and replays their events."""
        trace = str(tmp_path / "trace.json")

        def run(observed):
            _reset_task_ids()
            spec = ClusterSpec(n_places=8, workers_per_place=4,
                               max_threads=8)
            rt = SimRuntime(spec, make_scheduler(sched), seed=1)
            if observed:
                bus = EventBus(sample_interval=100_000)
                bus.subscribe(MetricsRegistry())
                bus.subscribe(ChromeTraceSink(trace))
                bus.attach(rt)
            return make_app(app, scale="test", seed=12345).run(rt).snapshot()

        bare = run(observed=False)
        observed = run(observed=True)
        assert "obs" not in bare
        assert observed.pop("obs")["events"]
        assert (json.dumps(bare, sort_keys=True)
                == json.dumps(observed, sort_keys=True))
        with open(trace) as fh:
            assert json.load(fh)["traceEvents"]


class _KindsSink(InMemorySink):
    """Records the events of a narrow set of kinds."""

    consumes = frozenset(("task_end", "steal_hit", "sample"))


class TestRouting:
    """Each event reaches only the sinks whose ``consumes`` names it."""

    def test_narrow_sink_gets_only_its_kinds_in_order(self):
        rt = make_rt()
        bus = EventBus(sample_interval=50_000)
        everything = bus.subscribe(InMemorySink())
        narrow = bus.subscribe(_KindsSink())
        bus.attach(rt)
        rt.run(fanout_program(24, work=500_000))
        want = [ev for ev in everything.events
                if ev.kind in _KindsSink.consumes]
        assert {ev.kind for ev in want} == _KindsSink.consumes
        assert narrow.events == want

    def test_unrouted_kinds_are_still_counted(self):
        rt = make_rt()
        bus = EventBus(sample_interval=50_000)
        bus.subscribe(_KindsSink())
        bus.attach(rt)
        rt.run(fanout_program(24, work=500_000))
        _, everything, _ = observed_run(sample_interval=50_000)
        assert bus.counts == Counter(ev.kind for ev in everything.events)
        assert set(bus.counts) > _KindsSink.consumes

    def test_sink_subscribed_after_attach_is_routed(self):
        rt = make_rt()
        bus = EventBus(sample_interval=50_000)
        everything = bus.subscribe(InMemorySink())
        bus.attach(rt)
        narrow = bus.subscribe(_KindsSink())
        rt.run(fanout_program(24, work=500_000))
        assert narrow.events == [ev for ev in everything.events
                                 if ev.kind in _KindsSink.consumes]


def _tally_bus(sample_interval=None, sink=None):
    """A bus attached to an unstarted runtime, read by ``sink`` (by
    default one that reads no steal event)."""
    bus = EventBus(sample_interval=sample_interval)
    bus.subscribe(sink if sink is not None else _KindsSink())
    bus.attach(make_rt())
    return bus


class TestTally:
    """``tally`` counts count-only events and rejects the rest (returns
    False, counts nothing), leaving them to per-event dispatch."""

    def test_counts_the_batch(self):
        bus = _tally_bus()
        assert bus.tally("steal_attempt", 1_000.0, 7)
        assert bus.tally("steal_attempt", 2_000.0)
        assert bus.counts == Counter(steal_attempt=8)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            _tally_bus().tally("nosuch_event", 0.0, 3)

    def test_lifecycle_kind_rejected(self):
        bus = _tally_bus()
        assert not bus.tally("steal_request", 0.0)
        assert not bus.counts

    def test_consumed_kind_rejected(self):
        bus = _tally_bus(sink=InMemorySink())
        assert not bus.tally("steal_attempt", 0.0, 3)
        assert not bus.counts

    def test_batch_reaching_a_due_sample_rejected(self):
        bus = _tally_bus(sample_interval=1_000)
        bus.emit_at(500.0, "task_start", {"task": 1, "place": 0,
                                          "worker": 0})
        assert bus.counts["sample"] == 4  # next sample due at 1_500
        assert bus.tally("steal_attempt", 1_499.0, 2)
        for t_last in (1_500.0, 9_000.0):
            assert not bus.tally("steal_attempt", t_last, 2)
        assert bus.counts["steal_attempt"] == 2


def test_every_kind_is_dispatched_under_a_consume_all_sink(tmp_path):
    """A count-only event skips ``emit_at``'s schema check, so a producer
    with wrong fields would only fail under a sink that reads its kind.
    With a sink that reads every kind, these cells and the store's
    standalone bus dispatch — and so schema-check — every kind."""
    from repro.apps import make_app
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.runtime.task import _reset_task_ids
    from repro.tune.controllers import AIMDChunkController
    from tests.harness.test_db import FakeClock, grid_specs, make_store

    cells = [
        ("DistWS", {"controller": AIMDChunkController()},
         "crash:p2@600000,loss:steal=0.05,seed:3", 50_000),
        ("LocalizedWS", {"radius_strikes": 1}, None, None),
        ("Lifeline", {}, None, None),
        ("MultiStealWS", {"steal_width": 3}, None, None),
    ]
    dispatched = Counter()
    for name, knobs, plan, interval in cells:
        _reset_task_ids()
        spec = ClusterSpec(n_places=4, workers_per_place=2, max_threads=4)
        rt = SimRuntime(spec, make_scheduler(name, **knobs), seed=7)
        if plan is not None:
            FaultInjector(FaultPlan.parse(plan)).attach(rt)
        bus = EventBus(sample_interval=interval)
        sink = bus.subscribe(InMemorySink())
        bus.attach(rt)
        make_app("uts", scale="test", seed=12345).run(rt)
        seen = Counter(ev.kind for ev in sink.events)
        assert seen == bus.counts  # nothing was tallied
        dispatched += seen

    clock = FakeClock()
    bus = EventBus()
    sink = bus.subscribe(InMemorySink())
    bus.attach_clock(clock)
    store = make_store(tmp_path, clock=clock, bus=bus, max_attempts=2)
    store.add_specs(grid_specs()[:1])
    for owner in ("w1", "w2"):   # reclaimed, then quarantined
        store.claim(owner, 5.0)
        clock.advance(6.0)
        store.reap()
    seen = Counter(ev.kind for ev in sink.events)
    assert seen == bus.counts
    dispatched += seen
    assert set(dispatched) == set(EVENT_SCHEMA)


def _routed_run(metrics_cls, chrome_cls, recorder_cls, trace_path):
    """A run that emits every kind a shipped sink reads (faults, a knob
    controller and the sampler included), observed by one sink of each
    class on one bus.  Returns the bus, the metrics snapshot, the Chrome
    trace file's bytes and the recorded ``Trace``."""
    from repro.apps import make_app
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.runtime.task import _reset_task_ids
    from repro.tune.controllers import AIMDChunkController

    _reset_task_ids()
    spec = ClusterSpec(n_places=4, workers_per_place=2, max_threads=4)
    rt = SimRuntime(spec, make_scheduler(
        "DistWS", controller=AIMDChunkController()), seed=7)
    FaultInjector(FaultPlan.parse(
        "crash:p2@600000,loss:steal=0.05,seed:3")).attach(rt)
    bus = EventBus(sample_interval=50_000)
    metrics = bus.subscribe(metrics_cls())
    bus.subscribe(chrome_cls(str(trace_path)))
    recorder = bus.subscribe(recorder_cls())
    bus.attach(rt)
    make_app("uts", scale="test", seed=12345).run(rt)
    return (bus, metrics.snapshot(), trace_path.read_bytes(),
            recorder.finalize())


def test_shipped_sinks_unchanged_by_their_routing(tmp_path):
    """A kind a shipped sink reads but left out of its ``consumes`` would
    show here: each must produce what it produces when fed every kind."""
    from repro.analysis.trace import TraceRecorder

    class AllMetrics(MetricsRegistry):
        consumes = None

    class AllChrome(ChromeTraceSink):
        consumes = None

    class AllRecorder(TraceRecorder):
        consumes = None

    bus, metrics, chrome, trace = _routed_run(
        MetricsRegistry, ChromeTraceSink, TraceRecorder,
        tmp_path / "routed.json")
    read = (MetricsRegistry.consumes | ChromeTraceSink.consumes
            | TraceRecorder.consumes)
    assert read <= set(bus.counts)
    _, all_metrics, all_chrome, all_trace = _routed_run(
        AllMetrics, AllChrome, AllRecorder, tmp_path / "all.json")
    assert metrics == all_metrics
    assert chrome == all_chrome
    assert trace == all_trace
    assert trace.tasks and trace.fault_events


def test_sampled_outstanding_counts_every_concurrent_request():
    """MultiStealWS keeps several requests in flight per worker: the
    sampler's ``outstanding`` must count each ``(worker, victim)`` until
    its miss, cancel or chunk arrival."""
    from repro.apps import make_app

    spec = ClusterSpec(n_places=8, workers_per_place=2, max_threads=4)
    rt = SimRuntime(spec, make_scheduler("MultiStealWS", steal_width=3),
                    seed=1)
    bus = EventBus(sample_interval=50_000)
    sink = bus.subscribe(InMemorySink())
    bus.attach(rt)
    make_app("uts", scale="test", seed=12345).run(rt)
    assert bus.counts["steal_cancel"] > 0
    pending = {}
    wrong = samples = 0
    for ev in sink.events:
        f = ev.fields
        key = (f.get("worker"), f.get("victim"))
        if ev.kind == "steal_request":
            pending.setdefault(f["place"], set()).add(key)
        elif ev.kind in ("steal_miss", "steal_cancel", "chunk_arrive"):
            pending.get(f["place"], set()).discard(key)
        elif ev.kind == "sample":
            samples += 1
            wrong += f["outstanding"] != len(pending.get(f["place"], ()))
    assert samples > 0
    assert wrong == 0
