"""Unit and property tests for work deques."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.deques import PrivateDeque, SharedDeque
from repro.runtime.task import Task
from repro.sim.engine import Environment


def make_tasks(n):
    return [Task(None, 0, label=f"t{i}") for i in range(n)]


class TestPrivateDeque:
    def test_owner_is_lifo(self):
        d = PrivateDeque(0, 0)
        a, b, c = make_tasks(3)
        for t in (a, b, c):
            d.push(t)
        assert d.pop() is c
        assert d.pop() is b
        assert d.pop() is a
        assert d.pop() is None

    def test_thief_takes_oldest(self):
        d = PrivateDeque(0, 0)
        a, b, c = make_tasks(3)
        for t in (a, b, c):
            d.push(t)
        assert d.steal() is a
        assert d.pop() is c

    def test_steal_marks_task(self):
        d = PrivateDeque(0, 0)
        t = make_tasks(1)[0]
        d.push(t)
        stolen = d.steal()
        assert stolen.stolen_locally
        assert not stolen.stolen_remotely

    def test_counters(self):
        d = PrivateDeque(0, 0)
        for t in make_tasks(4):
            d.push(t)
        d.pop()
        d.steal()
        assert d.pushes == 4
        assert d.owner_pops == 1
        assert d.thief_takes == 1

    @settings(max_examples=50, deadline=None)
    @given(ops=st.lists(st.sampled_from(["push", "pop", "steal"]),
                        max_size=100))
    def test_owner_and_thief_never_get_same_task(self, ops):
        d = PrivateDeque(0, 0)
        pushed, taken = [], []
        for op in ops:
            if op == "push":
                t = Task(None, 0)
                pushed.append(t)
                d.push(t)
            elif op == "pop":
                t = d.pop()
                if t is not None:
                    taken.append(t)
            else:
                t = d.steal()
                if t is not None:
                    taken.append(t)
        ids = [t.task_id for t in taken]
        assert len(ids) == len(set(ids))            # no duplicates
        assert len(taken) + len(d) == len(pushed)   # conservation


class TestSharedDeque:
    def test_fifo_for_all_consumers(self, env):
        d = SharedDeque(env, 0)
        a, b, c = make_tasks(3)
        for t in (a, b, c):
            d.push(t)
        assert d.take_oldest(remote=False) is a
        assert d.take_oldest(remote=True) is b
        assert d.take_oldest(remote=False) is c
        assert d.take_oldest(remote=False) is None

    def test_remote_take_marks_task(self, env):
        d = SharedDeque(env, 0)
        t = make_tasks(1)[0]
        d.push(t)
        out = d.take_oldest(remote=True)
        assert out.stolen_remotely

    def test_chunk_takes_oldest_first(self, env):
        d = SharedDeque(env, 0)
        tasks = make_tasks(5)
        for t in tasks:
            d.push(t)
        chunk = d.take_chunk(2, remote=True)
        assert chunk == tasks[:2]
        assert len(d) == 3

    def test_chunk_handles_short_deque(self, env):
        d = SharedDeque(env, 0)
        tasks = make_tasks(1)
        d.push(tasks[0])
        assert d.take_chunk(4, remote=True) == tasks
        assert d.take_chunk(4, remote=True) == []

    def test_chunk_of_zero_or_negative(self, env):
        d = SharedDeque(env, 0)
        d.push(make_tasks(1)[0])
        assert d.take_chunk(0, remote=False) == []
        assert d.take_chunk(-3, remote=False) == []

    def test_counters_split_local_remote(self, env):
        d = SharedDeque(env, 0)
        for t in make_tasks(4):
            d.push(t)
        d.take_oldest(remote=False)
        d.take_chunk(2, remote=True)
        assert d.pushes == 4
        assert d.local_takes == 1
        assert d.remote_takes == 2

    def test_push_front_jumps_the_fifo(self, env):
        d = SharedDeque(env, 0)
        a, b = make_tasks(2)
        d.push(a)
        d.push_front(b)
        assert d.take_oldest(remote=False) is b
        assert d.pushes == 2

    def test_lock_is_a_simlock(self, env):
        d = SharedDeque(env, 3)
        assert d.lock.name == "shared-deque-p3"
        assert not d.lock.locked
