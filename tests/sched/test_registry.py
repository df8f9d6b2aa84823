"""Contracts every registered scheduler keeps.

- One steal-round tail: every policy with tiers past the co-located scan
  runs :meth:`Scheduler.find_work_tail` itself and states its victim
  choice only through the remote-tier hooks, so the collapsed round
  (which calls the same hooks) cannot drift from it.  X10WS has no tail.
- :meth:`Scheduler.bind` starts a run afresh: an instance bound to a
  second runtime behaves exactly like a new one.
- One rule for names: :func:`resolve_scheduler` matches any case and
  rejects an unknown name with a :class:`ConfigError` listing the
  known ones; :func:`make_scheduler` goes through it.
"""

from __future__ import annotations

import json

import pytest

from repro.apps import make_app
from repro.cluster.topology import ClusterSpec
from repro.runtime.runtime import SimRuntime
from repro.runtime.task import _reset_task_ids
from repro.errors import ConfigError
from repro.sched import SCHEDULERS, X10WS, make_scheduler, resolve_scheduler
from repro.sched.base import Scheduler


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_every_policy_runs_the_one_tail(name):
    sched = make_scheduler(name)
    if type(sched) is X10WS:
        assert type(sched).find_work_tail is None
    else:
        assert type(sched).find_work_tail is Scheduler.find_work_tail


def _uts_snapshot(sched: Scheduler) -> str:
    _reset_task_ids()
    spec = ClusterSpec(n_places=4, workers_per_place=2, max_threads=4)
    rt = SimRuntime(spec, sched, seed=1)
    stats = make_app("uts", scale="test", seed=12345).run(rt)
    return json.dumps(stats.snapshot(), sort_keys=True)


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_rebound_scheduler_runs_like_a_fresh_one(name):
    """A scheduler's per-run state (DistWS-NS's round-robin cursor, the
    victim blacklist, LocalizedWS's strikes, lifeline registrations)
    resets on bind: its second run gives the fresh instance's bytes."""
    reused = make_scheduler(name)
    _uts_snapshot(reused)
    assert _uts_snapshot(reused) == _uts_snapshot(make_scheduler(name))


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_names_resolve_in_any_case(name):
    assert resolve_scheduler(name) == name
    assert resolve_scheduler(name.lower()) == name
    assert resolve_scheduler(name.upper()) == name
    assert type(make_scheduler(name.swapcase())) is SCHEDULERS[name]


def test_unknown_name_is_a_config_error_listing_the_known_ones():
    for resolve in (resolve_scheduler, make_scheduler):
        with pytest.raises(ConfigError) as err:
            resolve("TurboWS")
        assert str(err.value) == (
            f"unknown scheduler 'TurboWS'; known: {sorted(SCHEDULERS)}")
