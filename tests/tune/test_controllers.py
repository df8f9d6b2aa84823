"""Online controllers: AIMD convergence, spike adaptation, idle control."""

from __future__ import annotations

import pytest

from repro.apps import make_app
from repro.cluster.topology import ClusterSpec
from repro.errors import ConfigError
from repro.faults import FaultInjector
from repro.faults.plan import FaultPlan, LatencySpike
from repro.obs.events import ObsEvent
from repro.obs.metrics import MetricsRegistry
from repro.runtime.runtime import SimRuntime
from repro.runtime.task import _reset_task_ids
from repro.sched import SCHEDULERS, make_scheduler
from repro.sched.base import REMOTE_CHUNK_SIZE
from repro.tune import (
    CONTROLLERS,
    AIMDChunkController,
    IdleThresholdController,
    make_controller,
)


# -- synthetic-signal harness (no simulation) -------------------------------
class _DummyScheduler:
    name = "dummy"
    knobs = (REMOTE_CHUNK_SIZE,)
    remote_chunk_size = 2


class _DummyPlace:
    def __init__(self, place_id: int, n_workers: int = 4) -> None:
        self.place_id = place_id
        self.n_workers = n_workers
        self.idle_threshold = None

    def idle_round_threshold(self) -> int:
        if self.idle_threshold is not None:
            return max(1, self.idle_threshold)
        return max(1, self.n_workers)


class _DummyWorker:
    def __init__(self, place: _DummyPlace) -> None:
        self.place = place


class _DummyEnv:
    now = 0.0


class _DummyRuntime:
    def __init__(self, places=(), obs=None) -> None:
        self.places = list(places)
        self.obs = obs
        self.env = _DummyEnv()


class _RecordingBus:
    """Reads every kind: ``tally`` counts nothing, so each event is
    dispatched to ``emit_at``."""

    def __init__(self) -> None:
        self.events = []

    def tally(self, kind, t_last, n=1):
        return False

    def emit_at(self, t, kind, fields):
        self.events.append((kind, fields))


def _aimd(**kwargs) -> AIMDChunkController:
    """An AIMD controller bound to dummies, adjusting on every result."""
    kwargs.setdefault("settle_every", 1)
    kwargs.setdefault("target_latency_per_task", 1_000.0)
    ctrl = AIMDChunkController(**kwargs)
    ctrl.bind(_DummyRuntime(), _DummyScheduler())
    return ctrl


class TestAIMDSynthetic:
    def test_high_latency_grows_chunk_additively(self):
        ctrl = _aimd(max_chunk=8)
        worker = _DummyWorker(_DummyPlace(0))
        for _ in range(10):
            ctrl.on_steal_result(worker, True, 5_000.0, 1)
        # 2 -> 8 in +1 steps, then pinned at max_chunk.
        assert ctrl.chunk == 8
        assert ctrl.adjustments == [3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        assert ctrl.sched.remote_chunk_size == 8

    def test_cheap_steals_leave_chunk_alone(self):
        ctrl = _aimd()
        worker = _DummyWorker(_DummyPlace(0))
        for _ in range(10):
            ctrl.on_steal_result(worker, True, 500.0, 1)
        assert ctrl.chunk == 2
        assert ctrl.adjustments == []

    def test_miss_streak_shrinks_chunk_multiplicatively(self):
        ctrl = _aimd(success_floor=0.5, ewma_alpha=0.5)
        worker = _DummyWorker(_DummyPlace(0))
        ctrl.chunk = ctrl.sched.remote_chunk_size = 8
        for _ in range(10):
            ctrl.on_steal_result(worker, False, 0.0, 0)
        assert ctrl.chunk == 1
        # Halving steps, never below min_chunk.
        assert ctrl.adjustments[:3] == [4.0, 2.0, 1.0]
        assert ctrl.success_rate < 0.01

    def test_latency_amortised_per_task(self):
        # Total latency over target, per-task latency under it: a large
        # chunk already amortises the fixed cost, so no growth.
        ctrl = _aimd()
        worker = _DummyWorker(_DummyPlace(0))
        for _ in range(10):
            ctrl.on_steal_result(worker, True, 4_000.0, 8)
        assert ctrl.chunk == 2

    def test_settle_every_batches_adjustments(self):
        ctrl = _aimd(settle_every=4)
        worker = _DummyWorker(_DummyPlace(0))
        for _ in range(8):
            ctrl.on_steal_result(worker, True, 5_000.0, 1)
        # Only every 4th result may adjust: two adjustments total.
        assert ctrl.adjustments == [3.0, 4.0]

    def test_knob_update_emitted_on_adjustment(self):
        bus = _RecordingBus()
        ctrl = AIMDChunkController(settle_every=1,
                                   target_latency_per_task=1_000.0)
        ctrl.bind(_DummyRuntime(obs=bus), _DummyScheduler())
        ctrl.on_steal_result(_DummyWorker(_DummyPlace(0)), True,
                             5_000.0, 1)
        assert bus.events == [
            ("knob_update",
             {"name": "remote_chunk_size", "place": -1, "value": 3.0})]

    def test_snapshot_is_json_safe_and_deterministic(self):
        import json
        ctrl = _aimd()
        worker = _DummyWorker(_DummyPlace(0))
        for _ in range(4):
            ctrl.on_steal_result(worker, True, 5_000.0, 1)
        snap = ctrl.snapshot()
        assert snap["kind"] == "aimd_chunk"
        assert snap["chunk"] == ctrl.chunk
        assert json.dumps(snap, sort_keys=True)  # JSON-safe

    def test_constructor_validation(self):
        with pytest.raises(ConfigError):
            AIMDChunkController(min_chunk=4, max_chunk=2)
        with pytest.raises(ConfigError):
            AIMDChunkController(decrease=1.0)
        with pytest.raises(ConfigError):
            AIMDChunkController(ewma_alpha=0.0)
        with pytest.raises(ConfigError):
            AIMDChunkController(settle_every=0)


class TestIdleThresholdSynthetic:
    def test_long_failed_streak_halves_threshold(self):
        ctrl = IdleThresholdController(streak_factor=2)
        place = _DummyPlace(0, n_workers=4)
        ctrl.bind(_DummyRuntime(places=[place]), _DummyScheduler())
        worker = _DummyWorker(place)
        for _ in range(7):
            ctrl.on_failed_round(worker)
        assert place.idle_round_threshold() == 4
        ctrl.on_failed_round(worker)  # streak hits 2 * threshold
        assert place.idle_round_threshold() == 2

    def test_hit_restores_threshold_toward_default(self):
        ctrl = IdleThresholdController(streak_factor=2)
        place = _DummyPlace(0, n_workers=4)
        ctrl.bind(_DummyRuntime(places=[place]), _DummyScheduler())
        worker = _DummyWorker(place)
        place.idle_threshold = 2
        ctrl.on_steal_result(worker, True, 100.0, 1)
        assert place.idle_round_threshold() == 3
        ctrl.on_steal_result(worker, True, 100.0, 1)
        assert place.idle_round_threshold() == 4
        # Never past the static default.
        ctrl.on_steal_result(worker, True, 100.0, 1)
        assert place.idle_round_threshold() == 4

    def test_never_below_min_threshold(self):
        ctrl = IdleThresholdController(min_threshold=2, streak_factor=1)
        place = _DummyPlace(0, n_workers=4)
        ctrl.bind(_DummyRuntime(places=[place]), _DummyScheduler())
        worker = _DummyWorker(place)
        for _ in range(100):
            ctrl.on_failed_round(worker)
        assert place.idle_round_threshold() == 2

    def test_misses_do_not_reset_streak(self):
        ctrl = IdleThresholdController()
        place = _DummyPlace(0)
        ctrl.bind(_DummyRuntime(places=[place]), _DummyScheduler())
        worker = _DummyWorker(place)
        ctrl.on_failed_round(worker)
        ctrl.on_steal_result(worker, False, 0.0, 0)
        assert ctrl.streaks[0] == 1


class TestFactory:
    def test_known_names(self):
        assert set(CONTROLLERS) == {"aimd-chunk", "idle-threshold"}
        assert isinstance(make_controller("aimd-chunk"),
                          AIMDChunkController)
        assert isinstance(make_controller("idle-threshold"),
                          IdleThresholdController)
        # A RunSpec carries the controller by name; make_scheduler makes it.
        assert isinstance(make_scheduler(
            "DistWS", controller="aimd-chunk").controller, AIMDChunkController)

    def test_unknown_name_is_configerror(self):
        with pytest.raises(ConfigError, match="unknown controller"):
            make_controller("pid")

    @pytest.mark.parametrize("name", sorted(SCHEDULERS))
    def test_aimd_binds_only_where_the_chunk_is_a_knob(self, name):
        """A policy that fixes its chunk (RandomWS's 1, X10WS with no
        remote tier) rejects the chunk controller instead of having its
        ``remote_chunk_size`` rewritten behind its back."""
        sched = make_scheduler(name, controller=AIMDChunkController())
        spec = ClusterSpec(n_places=2, workers_per_place=2, max_threads=4)
        if name in ("X10WS", "RandomWS", "Lifeline", "StealHalfWS"):
            with pytest.raises(ConfigError, match="remote_chunk_size"):
                SimRuntime(spec, sched, seed=1)
        else:
            SimRuntime(spec, sched, seed=1)
            assert sched.controller.chunk == REMOTE_CHUNK_SIZE.default


class TestMetricsIntegration:
    def test_knob_update_becomes_time_series(self):
        reg = MetricsRegistry()
        reg.on_event(ObsEvent(10.0, "knob_update", {
            "name": "remote_chunk_size", "place": -1, "value": 3.0}))
        reg.on_event(ObsEvent(20.0, "knob_update", {
            "name": "idle_threshold", "place": 2, "value": 2.0}))
        snap = reg.snapshot()
        assert snap["series"]["knob.remote_chunk_size"] == [[10.0, 3.0]]
        assert snap["series"]["knob.idle_threshold.p2"] == [[20.0, 2.0]]


# -- full-run adaptation (the acceptance assertion) -------------------------
def _run_uts_with_aimd(spike_factor=None):
    _reset_task_ids()
    spec = ClusterSpec(n_places=4, workers_per_place=2, max_threads=4)
    ctrl = AIMDChunkController()
    rt = SimRuntime(spec, make_scheduler("DistWS", controller=ctrl),
                    seed=7)
    if spike_factor is not None:
        plan = FaultPlan(spikes=(
            LatencySpike(start=0.0, duration=1e12, factor=spike_factor),))
        FaultInjector(plan).attach(rt)
    app = make_app("uts", scale="test", seed=12345)
    stats = app.run(rt)
    return ctrl, stats


class TestFullRunAdaptation:
    def test_latency_spike_settles_on_larger_chunk(self):
        """ISSUE acceptance: under a latency-spike FaultPlan the AIMD
        controller settles on a larger chunk than in a fault-free run."""
        free, _ = _run_uts_with_aimd()
        spiked, _ = _run_uts_with_aimd(spike_factor=10.0)
        assert free.adjustments, "controller never engaged fault-free"
        assert spiked.chunk > free.chunk, \
            f"spiked chunk {spiked.chunk} <= fault-free {free.chunk}"
        assert spiked.latency_per_task.mean > free.latency_per_task.mean

    def test_controller_observes_hits_and_misses(self):
        ctrl, stats = _run_uts_with_aimd()
        assert ctrl._results > 0
        assert ctrl.latency_per_task.count > 0
        assert 0.0 <= ctrl.success_rate <= 1.0
        assert stats.tasks_executed > 0
        assert stats.snapshot()["controller"] == ctrl.snapshot()
