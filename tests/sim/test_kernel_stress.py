"""Stress and soak tests for the discrete-event kernel."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Environment
from repro.sim.resources import Gate, Mailbox, SimLock


class TestManyProcesses:
    def test_thousand_processes_complete(self, env):
        done = []

        def proc(i):
            yield env.timeout(i % 17)
            done.append(i)

        for i in range(1000):
            env.process(proc(i))
        env.run()
        assert len(done) == 1000

    def test_deep_process_chains(self, env):
        """Processes waiting on processes, 200 deep."""
        def leaf():
            yield env.timeout(1)
            return 0

        def chain(depth):
            if depth == 0:
                result = yield env.process(leaf())
            else:
                result = yield env.process(chain(depth - 1))
            return result + 1

        p = env.process(chain(200))
        env.run()
        assert p.value == 201

    def test_lock_convoy(self, env):
        """500 processes through one lock: strict FIFO, full mutual
        exclusion."""
        lock = SimLock(env)
        active = [0]
        peak = [0]
        order = []

        def proc(i):
            yield lock.acquire()
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            order.append(i)
            yield env.timeout(3)
            active[0] -= 1
            lock.release()

        for i in range(500):
            env.process(proc(i))
        env.run()
        assert peak[0] == 1
        assert order == list(range(500))
        assert env.now == 1500.0

    def test_producer_consumer_pipeline(self, env):
        box_a = Mailbox(env)
        box_b = Mailbox(env)
        sink = []

        def producer():
            for i in range(100):
                yield env.timeout(2)
                box_a.put(i)

        def transformer():
            for _ in range(100):
                while (item := box_a.try_get()) is None:
                    yield env.timeout(1)
                yield env.timeout(1)
                box_b.put(item * 2)

        def consumer():
            for _ in range(100):
                while (item := box_b.try_get()) is None:
                    yield env.timeout(1)
                sink.append(item)

        env.process(producer())
        env.process(transformer())
        env.process(consumer())
        env.run()
        assert sink == [2 * i for i in range(100)]

    @settings(max_examples=20, deadline=None)
    @given(seeds=st.lists(st.integers(0, 100), min_size=2, max_size=30))
    def test_gate_broadcast_wakes_everyone(self, seeds):
        env = Environment()
        gate = Gate(env)
        woke = []

        def waiter(i, d):
            yield env.timeout(d)
            yield gate.wait()
            woke.append(i)

        for i, d in enumerate(seeds):
            env.process(waiter(i, d))

        def opener():
            yield env.timeout(max(seeds) + 1)
            gate.open()

        env.process(opener())
        env.run()
        assert sorted(woke) == list(range(len(seeds)))
