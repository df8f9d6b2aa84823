"""Tests for the cluster-wide load-status board (§VI-B objects)."""

from __future__ import annotations

from repro.runtime.status import StatusBoard
from repro.sim.engine import CAUSE_BOARD, CAUSE_WORK, PARK_PARKED, PARK_WAKING

from tests.runtime.test_place import parked


class TestStatusBoard:
    def test_advertise_and_retract(self, env):
        board = StatusBoard(env)
        assert not board.has_surplus(3)
        board.advertise(3)
        assert board.has_surplus(3)
        board.retract(3)
        assert not board.has_surplus(3)
        board.retract(3)  # idempotent

    def test_has_surplus_other_excludes_the_asker(self, env):
        board = StatusBoard(env)
        assert not board.has_surplus_other(exclude=3)
        board.advertise(3)
        assert not board.has_surplus_other(exclude=3)
        assert board.has_surplus_other(exclude=9)
        board.advertise(5)
        assert board.has_surplus_other(exclude=3)

    def test_advertise_wakes_parked_waiter(self, env):
        board = StatusBoard(env)
        park = parked(env)
        board.add_park_waiter(park)
        assert park.state == PARK_PARKED
        board.advertise(2)
        assert park.state == PARK_WAKING
        assert park.cause is CAUSE_BOARD
        assert board._waiters == []

    def test_re_advertising_does_not_double_fire(self, env):
        board = StatusBoard(env)
        board.advertise(1)
        park = parked(env)
        board.add_park_waiter(park)
        board.advertise(1)  # already advertised: no wake
        assert park.state == PARK_PARKED
        board.retract(1)
        board.advertise(1)  # fresh advertisement wakes
        assert park.cause is CAUSE_BOARD

    def test_already_triggered_waiters_skipped(self, env):
        board = StatusBoard(env)
        park = parked(env)
        board.add_park_waiter(park)
        park._fire(CAUSE_WORK)  # woke some other way (work arrived)
        board.advertise(0)  # must not re-fire
        assert park.cause is CAUSE_WORK

    def test_stale_round_skipped(self, env):
        board = StatusBoard(env)
        park = parked(env)
        board.add_park_waiter(park)
        park.begin(50.0, False)  # a new round, not registered here
        board.advertise(0)
        assert park.state == PARK_PARKED

    def test_compaction_keeps_only_live_entries(self, env):
        board = StatusBoard(env)
        park = parked(env)
        for _ in range(16):
            board.add_park_waiter(park)
            park.begin(50.0, False)
        board.add_park_waiter(park)  # crosses the threshold: swept
        assert board._waiters == [(park, park.round)]


class TestBoardIntegration:
    def test_distws_only_probes_advertising_places(self):
        """With the board, a starving cluster sends no steal requests."""
        from repro import ClusterSpec, DistWS, SimRuntime
        from repro.apgas import Apgas

        spec = ClusterSpec(n_places=4, workers_per_place=2, max_threads=4)
        rt = SimRuntime(spec, DistWS(), seed=0)

        def program(rt):
            ap = Apgas(rt)
            # Sensitive-only workload at place 0: nothing is stealable,
            # so no place ever advertises and no requests are sent.
            for i in range(12):
                ap.async_at(0, None, work=1_000_000, flexible=False,
                            label="t")

        stats = rt.run(program)
        assert stats.steals.remote_attempts == 0
        assert stats.messages == 0

    def test_blind_random_does_probe(self):
        from repro import ClusterSpec, RandomWS, SimRuntime
        from repro.apgas import Apgas

        spec = ClusterSpec(n_places=4, workers_per_place=2, max_threads=4)
        rt = SimRuntime(spec, RandomWS(), seed=0)

        def program(rt):
            ap = Apgas(rt)
            for i in range(12):
                ap.async_at(0, None, work=1_000_000, flexible=False,
                            label="t")

        stats = rt.run(program)
        # Blind random stealing pays failed round trips.
        assert stats.steals.remote_attempts > 0
