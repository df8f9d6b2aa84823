"""One-pop-per-step dispatch over the kernel's own columns, kept for tests.

:meth:`repro.sim.engine.Environment.run` is the kernel's only dispatch
loop: it hoists the column lookups and drains every entry sharing one due
time as a batch under a single clock store.  This module is the plain
form of the same loop: pop one ``(due, seq, handle)`` entry, set the
clock, count it, dispatch it by ``_kind[handle]``, repeat.  The library
never imports it.

``tests/sim/test_handles.py`` replays whole simulations through
:func:`stepped_run` and requires the snapshot and ``events_processed`` to
match the batched loop byte for byte, so a batch drain that skips,
repeats or miscounts an entry cannot hide behind matching physics.
"""

from __future__ import annotations

import heapq
from typing import Any

from repro.sim.engine import (_CAUSES, K_EVENT, K_FREE, K_HOP, K_PROBE,
                              K_RESUME, PARK_IDLE, PARK_RESUMING,
                              PARK_WAKING, Environment)
from repro.sim.events import Event


def step(env: Environment) -> None:
    """Pop and dispatch the single next heap entry of ``env``."""
    due, seq, h = heapq.heappop(env._queue)
    env._now = due
    env.events_processed += 1
    kind = env._kind[h]
    if kind == K_RESUME:
        if env._arm[h] == seq:
            env._arm[h] = -1
            proc = env._obj[h]
            proc._waiting_on = None
            proc._step_send(None)
    elif kind == K_EVENT:
        if env._arm[h] == seq:
            event = env._obj[h]
            env._kind[h] = K_FREE
            env._obj[h] = None
            env._arm[h] = -1
            env._free.append(h)
            callbacks = event.callbacks
            event.callbacks = None
            for callback in callbacks:
                callback(event)
    elif kind == K_HOP:
        if env._arm[h] == seq:
            state = env._pstate[h]
            if state == PARK_WAKING:
                # Hop 1 popped: push hop 2 at the same due time.
                env._pstate[h] = PARK_RESUMING
                env._seq += 1
                env._arm[h] = env._seq
                heapq.heappush(env._queue, (due, env._seq, h))
            elif state == PARK_RESUMING:
                env._pstate[h] = PARK_IDLE
                env._arm[h] = -1
                proc = env._obj[h].process
                proc._waiting_on = None
                proc._step_send(_CAUSES[env._pcause[h]])
    elif kind == K_PROBE:
        env._obj[h]._probe_pop(seq)
    # K_FREE: a stale entry for a recycled handle; skip it.


def stepped_run(env: Environment, until: Event) -> Any:
    """``env.run(until=event)`` as a loop over :func:`step`.

    Shaped as a method so a test can monkeypatch it over
    ``Environment.run``; only the ``until=event`` form the runtime uses is
    supported.
    """
    while env._queue:
        if until.callbacks is None:
            return until.value
        step(env)
    assert until.processed
    return until.value
