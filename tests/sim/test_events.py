"""Unit tests for the event primitives."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Environment
from repro.sim.events import AnyOf, Event, Timeout


class TestEvent:
    def test_starts_pending(self, env):
        ev = Event(env)
        assert not ev.triggered
        assert not ev.processed

    def test_value_unavailable_while_pending(self, env):
        ev = Event(env)
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_succeed_carries_value(self, env):
        ev = Event(env)
        ev.succeed(42)
        assert ev.triggered
        assert ev._ok
        assert ev.value == 42

    def test_double_trigger_rejected(self, env):
        ev = Event(env)
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("x"))

    def test_fail_requires_exception(self, env):
        ev = Event(env)
        with pytest.raises(TypeError):
            ev.fail("not an exception")  # type: ignore[arg-type]

    def test_fail_carries_exception(self, env):
        ev = Event(env)
        exc = ValueError("boom")
        ev.fail(exc)
        assert ev.triggered
        assert not ev._ok
        assert ev.value is exc

    def test_callbacks_run_on_processing(self, env):
        ev = Event(env)
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        ev.succeed("x")
        assert seen == []  # triggered but not yet processed
        env.run()
        assert seen == ["x"]

    def test_callback_after_processing_rejected(self, env):
        ev = Event(env)
        ev.succeed()
        env.run()
        with pytest.raises(SimulationError):
            ev.add_callback(lambda e: None)


class TestTimeout:
    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1)

    def test_fires_at_due_time(self, env):
        times = []
        ev = env.timeout(25)
        ev.add_callback(lambda e: times.append(env.now))
        env.run()
        assert times == [25.0]

    def test_timeout_is_triggered_but_not_processed_at_birth(self, env):
        ev = env.timeout(10)
        assert ev.triggered      # value pre-set
        assert not ev.processed  # has not *occurred*

    def test_zero_delay_fires_now(self, env):
        ev = env.timeout(0, value="v")
        env.run()
        assert ev.processed
        assert ev.value == "v"


class TestAnyOf:
    def test_empty_rejected(self, env):
        with pytest.raises(SimulationError):
            env.any_of([])

    def test_first_occurrence_wins(self, env):
        slow = env.timeout(100, value="slow")
        fast = env.timeout(10, value="fast")
        combo = env.any_of([slow, fast])
        env.run()
        assert combo.processed
        assert combo.value is fast

    def test_pre_scheduled_timeout_does_not_win_immediately(self, env):
        # Regression: a Timeout is 'triggered' from birth; AnyOf must wait
        # for it to be *processed*.
        gate_ev = Event(env)
        guard = env.timeout(1000)
        combo = env.any_of([gate_ev, guard])
        assert not combo.triggered
        gate_ev.succeed("gate")
        env.run(until=combo)
        assert combo.value is gate_ev
        assert env.now == 0.0

    def test_already_processed_child_fires_composite(self, env):
        ev = env.timeout(5)
        env.run()
        combo = env.any_of([ev, Event(env)])
        env.run()
        assert combo.processed
        assert combo.value is ev

    def test_failure_propagates(self, env):
        bad = Event(env)
        combo = env.any_of([bad, Event(env)])
        bad.fail(RuntimeError("x"))
        env.run()
        assert combo.triggered
        assert not combo._ok
