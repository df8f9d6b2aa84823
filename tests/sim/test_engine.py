"""Unit and property tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import Environment, Interrupt
from repro.sim.events import Event


class TestClock:
    def test_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_custom_initial_time(self):
        assert Environment(5.0).now == 5.0

    def test_run_until_past_time_rejected(self):
        env = Environment(10.0)
        with pytest.raises(SimulationError):
            env.run(until=5.0)

    def test_run_until_time_stops_clock_there(self, env):
        env.timeout(100)
        env.run(until=60.0)
        assert env.now == 60.0

    def test_peek(self, env):
        assert env.peek() == float("inf")
        env.timeout(7)
        assert env.peek() == 7.0


class TestProcess:
    def test_process_requires_generator(self, env):
        with pytest.raises(SimulationError):
            env.process(lambda: None)  # type: ignore[arg-type]

    def test_sequential_timeouts(self, env):
        trace = []

        def proc():
            yield env.timeout(5)
            trace.append(env.now)
            yield env.timeout(5)
            trace.append(env.now)

        env.process(proc())
        env.run()
        assert trace == [5.0, 10.0]

    def test_process_return_value(self, env):
        def proc():
            yield env.timeout(1)
            return "result"

        p = env.process(proc())
        env.run()
        assert p.processed
        assert p.value == "result"

    def test_process_waits_on_process(self, env):
        def child():
            yield env.timeout(30)
            return 99

        def parent():
            result = yield env.process(child())
            return result + 1

        p = env.process(parent())
        env.run()
        assert p.value == 100
        assert env.now == 30.0

    def test_exception_fails_process_event(self, env):
        def proc():
            yield env.timeout(1)
            raise RuntimeError("inside")

        p = env.process(proc())
        env.run()
        assert p.triggered
        assert not p._ok
        assert isinstance(p.value, RuntimeError)

    def test_failed_event_raises_inside_process(self, env):
        bad = Event(env)
        caught = []

        def proc():
            try:
                yield bad
            except ValueError as exc:
                caught.append(str(exc))

        env.process(proc())
        bad.fail(ValueError("delivered"))
        env.run()
        assert caught == ["delivered"]

    def test_yielding_non_event_fails_process(self, env):
        def proc():
            yield 42  # type: ignore[misc]

        p = env.process(proc())
        env.run()
        assert not p._ok
        assert isinstance(p.value, SimulationError)

    def test_keyboard_interrupt_aborts_the_run(self, env):
        """A host-level interrupt (ctrl-C / SIGTERM handler) raised
        mid-step must unwind out of `env.run`, not be recorded as a
        simulated process death."""
        import pytest

        def proc():
            yield env.timeout(1)
            raise KeyboardInterrupt

        p = env.process(proc())
        with pytest.raises(KeyboardInterrupt):
            env.run()
        assert not p.triggered  # not converted into a failed event

    def test_keyboard_interrupt_via_throw_aborts_the_run(self, env):
        import pytest

        bad = Event(env)

        def proc():
            try:
                yield bad
            except ValueError:
                raise KeyboardInterrupt

        env.process(proc())
        bad.fail(ValueError("delivered"))
        with pytest.raises(KeyboardInterrupt):
            env.run()

    def test_interrupt_wakes_process(self, env):
        trace = []

        def sleeper():
            try:
                yield env.timeout(1000)
            except Interrupt as i:
                trace.append((env.now, i.cause))

        p = env.process(sleeper())

        def interrupter():
            yield env.timeout(10)
            p.interrupt("wake up")

        env.process(interrupter())
        env.run()
        assert trace == [(10.0, "wake up")]

    def test_interrupt_finished_process_rejected(self, env):
        def quick():
            yield env.timeout(1)

        p = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_run_until_event(self, env):
        def proc():
            yield env.timeout(42)
            return "done"

        p = env.process(proc())
        value = env.run(until=p)
        assert value == "done"
        assert env.now == 42.0

    def test_deadlock_detected(self, env):
        never = Event(env)

        def waiter():
            yield never

        env.process(waiter())
        target = Event(env)
        with pytest.raises(DeadlockError):
            env.run(until=target)


class TestDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(delays=st.lists(st.integers(min_value=0, max_value=100),
                           min_size=1, max_size=20))
    def test_same_delays_same_trace(self, delays):
        def trace_of():
            env = Environment()
            trace = []

            def proc(i, d):
                yield env.timeout(d)
                trace.append((env.now, i))

            for i, d in enumerate(delays):
                env.process(proc(i, d))
            env.run()
            return trace

        assert trace_of() == trace_of()

    @settings(max_examples=25, deadline=None)
    @given(delays=st.lists(st.integers(min_value=0, max_value=100),
                           min_size=1, max_size=20))
    def test_events_processed_in_time_order(self, delays):
        env = Environment()
        trace = []

        def proc(d):
            yield env.timeout(d)
            trace.append(env.now)

        for d in delays:
            env.process(proc(d))
        env.run()
        assert trace == sorted(trace)

    def test_fifo_tie_break_at_equal_times(self, env):
        order = []

        def proc(i):
            yield env.timeout(10)
            order.append(i)

        for i in range(5):
            env.process(proc(i))
        env.run()
        assert order == [0, 1, 2, 3, 4]
