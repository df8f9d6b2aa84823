"""Unit tests for simulated locks, gates, and mailboxes."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.resources import Gate, Mailbox, SimLock


class TestSimLock:
    def test_uncontended_acquire_is_immediate(self, env):
        lock = SimLock(env)
        trace = []

        def proc():
            yield lock.acquire()
            trace.append(env.now)
            lock.release()

        env.process(proc())
        env.run()
        assert trace == [0.0]
        assert not lock.locked

    def test_fifo_handover(self, env):
        lock = SimLock(env)
        order = []

        def proc(i, hold):
            yield lock.acquire()
            order.append(("got", i, env.now))
            yield env.timeout(hold)
            lock.release()

        for i in range(3):
            env.process(proc(i, hold=10))
        env.run()
        assert order == [("got", 0, 0.0), ("got", 1, 10.0), ("got", 2, 20.0)]

    def test_contention_counted(self, env):
        lock = SimLock(env)

        def proc(hold):
            yield lock.acquire()
            yield env.timeout(hold)
            lock.release()

        env.process(proc(5))
        env.process(proc(5))
        env.run()
        assert lock.total_acquires == 2
        assert lock.contended_acquires == 1

    def test_release_unheld_rejected(self, env):
        lock = SimLock(env)
        with pytest.raises(SimulationError):
            lock.release()

    def test_try_acquire(self, env):
        lock = SimLock(env)
        assert lock.try_acquire()
        assert not lock.try_acquire()
        lock.release()
        assert lock.try_acquire()

    def test_try_acquire_fails_when_waiters_queued(self, env):
        lock = SimLock(env)

        def holder():
            yield lock.acquire()
            yield env.timeout(100)
            lock.release()

        def waiter():
            yield lock.acquire()
            lock.release()

        env.process(holder())
        env.process(waiter())
        env.run(until=50.0)
        # Held, one waiter queued: try_acquire must not jump the queue.
        assert not lock.try_acquire()

    def test_interrupted_waiter_skipped_on_release(self, env):
        """A waiter whose process died must not be handed the lock."""
        lock = SimLock(env)
        got = []

        def holder():
            yield lock.acquire()
            yield env.timeout(100)
            lock.release()

        def waiter(name):
            yield lock.acquire()
            got.append((name, env.now))
            lock.release()

        env.process(holder())
        doomed = env.process(waiter("doomed"))
        env.process(waiter("survivor"))

        def killer():
            yield env.timeout(50)
            doomed.interrupt("crash")

        env.process(killer())
        env.run()
        # Ownership skipped the dead waiter and reached the live one.
        assert got == [("survivor", 100.0)]
        assert not lock.locked

    def test_release_with_only_dead_waiters_unlocks(self, env):
        lock = SimLock(env)
        got = []

        def holder():
            yield lock.acquire()
            yield env.timeout(100)
            lock.release()

        def waiter():
            yield lock.acquire()
            got.append(env.now)
            lock.release()

        env.process(holder())
        doomed = env.process(waiter())

        def killer():
            yield env.timeout(50)
            doomed.interrupt("crash")

        env.process(killer())

        def late_acquirer():
            yield env.timeout(200)
            assert lock.try_acquire()
            lock.release()

        env.process(late_acquirer())
        env.run()
        assert got == []
        assert not lock.locked


class TestGate:
    def test_wait_blocks_until_open(self, env):
        gate = Gate(env)
        times = []

        def proc():
            yield gate.wait()
            times.append(env.now)

        env.process(proc())

        def opener():
            yield env.timeout(33)
            gate.open()

        env.process(opener())
        env.run()
        assert times == [33.0]

    def test_wait_on_open_gate_immediate(self, env):
        gate = Gate(env)
        gate.open()
        ev = gate.wait()
        assert ev.triggered

    def test_open_is_idempotent(self, env):
        gate = Gate(env)
        gate.open()
        gate.open()
        assert gate.is_open


class TestMailbox:
    def test_put_then_try_get(self, env):
        box = Mailbox(env)
        assert box.try_get() is None
        box.put("a")
        box.put("b")
        assert len(box) == 2
        assert box.try_get() == "a"
        assert box.try_get() == "b"
        assert box.try_get() is None
