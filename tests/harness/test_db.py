"""Tests for the crash-resilient experiment store (`repro.harness.db`).

The load-bearing guarantees:

- **exactly-once results** — a ``done`` row is written once, by the
  worker that still holds the lease; late writers (reaped under them)
  are fenced out and a resumed sweep never re-simulates a done cell;
- **zero lost cells** — every enqueued row ends ``done`` or ``failed``
  no matter which worker (or the coordinator) dies when;
- **graceful degradation** — a poison cell quarantines with its
  traceback after ``max_attempts`` instead of wedging the queue.
"""

from __future__ import annotations

import json
import os
import signal
import threading

import pytest

from repro.cluster.topology import ClusterSpec
from repro.errors import ConfigError
from repro.harness.db import (
    ClaimedRow,
    ExperimentStore,
    QuarantinedError,
    StoreError,
    default_owner,
    drain,
    graceful_signals,
    run_claimed,
)
from repro.harness.parallel import ExecutionContext, RunSpec, execution


class FakeClock:
    """A manually-advanced wall clock for deterministic lease expiry."""

    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def tiny_spec():
    return ClusterSpec(n_places=2, workers_per_place=2, max_threads=4)


def grid_specs(n_seeds: int = 2):
    return [RunSpec.build(app, sched, tiny_spec(), sched_seed=s,
                          scale="test")
            for app in ("uts",)
            for sched in ("DistWS", "RandomWS")
            for s in range(1, n_seeds + 1)]


def poison_spec(tag: int = 1):
    """A spec whose simulation reliably raises (bad app override)."""
    return RunSpec.build("uts", "DistWS", tiny_spec(), sched_seed=tag,
                         scale="test",
                         app_overrides={"no_such_parameter": tag})


def make_store(tmp_path, **kwargs) -> ExperimentStore:
    return ExperimentStore(str(tmp_path / "store.sqlite"), **kwargs)


def snapshot_bytes(results) -> bytes:
    return json.dumps([json.dumps(r.stats.snapshot(), sort_keys=True)
                       for r in results]).encode()


class TestLeaseLifecycle:
    def test_claim_lease_complete(self, tmp_path):
        clock = FakeClock()
        store = make_store(tmp_path, clock=clock)
        specs = grid_specs()
        assert store.add_specs(specs) == len(specs)
        assert store.counts()["pending"] == len(specs)

        row = store.claim("w1", lease_seconds=10.0)
        assert isinstance(row, ClaimedRow)
        assert row.attempt == 1
        assert store.counts()["leased"] == 1

        assert store.complete(row.key, "w1", "result-blob")
        assert store.counts()["done"] == 1
        assert store.get_result(row.key) == "result-blob"

    def test_claim_is_exclusive(self, tmp_path):
        store = make_store(tmp_path, clock=FakeClock())
        store.add_specs(grid_specs()[:1])
        first = store.claim("w1", 10.0)
        assert first is not None
        assert store.claim("w2", 10.0) is None  # nothing pending left

    def test_claim_empty_store(self, tmp_path):
        store = make_store(tmp_path)
        assert store.claim("w1", 10.0) is None

    def test_heartbeat_extends_lease(self, tmp_path):
        clock = FakeClock()
        store = make_store(tmp_path, clock=clock)
        store.add_specs(grid_specs()[:1])
        row = store.claim("w1", 5.0)
        clock.advance(4.0)
        assert store.heartbeat(row.key, "w1", 5.0)
        clock.advance(4.0)  # past the original deadline, not the new one
        assert store.reap() == []
        assert store.counts()["leased"] == 1

    def test_heartbeat_wrong_owner_fails(self, tmp_path):
        store = make_store(tmp_path, clock=FakeClock())
        store.add_specs(grid_specs()[:1])
        row = store.claim("w1", 5.0)
        assert not store.heartbeat(row.key, "w2", 5.0)

    def test_release_refunds_the_attempt(self, tmp_path):
        store = make_store(tmp_path, clock=FakeClock())
        store.add_specs(grid_specs()[:1])
        row = store.claim("w1", 5.0)
        assert store.release(row.key, "w1")
        assert store.counts()["pending"] == 1
        again = store.claim("w2", 5.0)
        assert again.key == row.key
        assert again.attempt == 1  # interrupt was not a strike

    def test_add_specs_is_idempotent_and_keeps_done_rows(self, tmp_path):
        store = make_store(tmp_path, clock=FakeClock())
        specs = grid_specs()
        store.add_specs(specs)
        row = store.claim("w1", 10.0)
        store.complete(row.key, "w1", "kept")
        assert store.add_specs(specs) == 0
        assert store.get_result(row.key) == "kept"
        assert store.counts()["done"] == 1


class TestReaper:
    def test_expired_lease_is_reclaimed(self, tmp_path):
        clock = FakeClock()
        store = make_store(tmp_path, clock=clock)
        store.add_specs(grid_specs()[:1])
        row = store.claim("w1", 5.0)
        clock.advance(5.1)
        assert store.reap() == [row.key]
        assert store.counts()["pending"] == 1
        again = store.claim("w2", 5.0)
        assert again.key == row.key
        assert again.attempt == 2

    def test_unexpired_lease_is_left_alone(self, tmp_path):
        clock = FakeClock()
        store = make_store(tmp_path, clock=clock)
        store.add_specs(grid_specs()[:1])
        store.claim("w1", 5.0)
        clock.advance(4.9)
        assert store.reap() == []

    def test_fenced_writer_loses_after_reclaim(self, tmp_path):
        """The exactly-once fence: a reaped worker's late result and
        heartbeats are discarded."""
        clock = FakeClock()
        store = make_store(tmp_path, clock=clock)
        store.add_specs(grid_specs()[:1])
        row = store.claim("w1", 5.0)
        clock.advance(6.0)
        store.reap()
        row2 = store.claim("w2", 5.0)
        assert row2.key == row.key
        # w1 wakes up from its GC pause and tries to finish:
        assert not store.heartbeat(row.key, "w1", 5.0)
        assert not store.complete(row.key, "w1", "stale")
        assert store.complete(row2.key, "w2", "fresh")
        assert store.get_result(row.key) == "fresh"

    def test_poison_cell_quarantined_by_reaper(self, tmp_path):
        clock = FakeClock()
        store = make_store(tmp_path, clock=clock, max_attempts=2)
        store.add_specs(grid_specs()[:1])
        for attempt in (1, 2):
            row = store.claim(f"w{attempt}", 5.0)
            assert row.attempt == attempt
            clock.advance(6.0)
            reclaimed = store.reap()
            if attempt < 2:
                assert reclaimed == [row.key]
        assert reclaimed == []  # final expiry quarantines instead
        counts = store.counts()
        assert counts["failed"] == 1 and counts["pending"] == 0
        assert "presumed dead" in store.get_error(row.key)

    def test_worker_error_retries_then_quarantines(self, tmp_path):
        clock = FakeClock()
        store = make_store(tmp_path, clock=clock, max_attempts=3)
        store.add_specs(grid_specs()[:1])
        for attempt in (1, 2, 3):
            row = store.claim("w1", 5.0)
            status = store.fail(row.key, "w1",
                                f"Traceback ...\nBoom {attempt}")
            assert status == ("failed" if attempt == 3 else "pending")
        assert store.counts()["failed"] == 1
        assert "Boom 3" in store.get_error(row.key)

    def test_fail_after_reclaim_is_lost(self, tmp_path):
        clock = FakeClock()
        store = make_store(tmp_path, clock=clock)
        store.add_specs(grid_specs()[:1])
        row = store.claim("w1", 5.0)
        clock.advance(6.0)
        store.reap()
        assert store.fail(row.key, "w1", "late traceback") == "lost"
        assert store.counts()["pending"] == 1


class TestPersistence:
    def test_survives_close_and_reopen(self, tmp_path):
        """Coordinator restart: state is all on disk."""
        clock = FakeClock()
        path = str(tmp_path / "store.sqlite")
        store = ExperimentStore(path, clock=clock)
        specs = grid_specs()
        store.add_specs(specs)
        row = store.claim("w1", 5.0)
        store.complete(row.key, "w1", "persisted")
        store.claim("w1", 5.0)  # leave one leased (simulated crash)
        store.close()

        clock.advance(10.0)  # the held lease expires while "down"
        reopened = ExperimentStore(path, clock=clock)
        counts = reopened.counts()
        assert counts["done"] == 1 and counts["leased"] == 1
        assert reopened.reap() != []
        assert reopened.get_result(row.key) == "persisted"
        reopened.close()

    def test_schema_version_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        store = ExperimentStore(path)
        with store._lock:
            store._conn.execute(
                "UPDATE meta SET value = '999' "
                "WHERE key = 'schema_version'")
        store.close()
        with pytest.raises(StoreError):
            ExperimentStore(path)

    def test_max_attempts_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            make_store(tmp_path, max_attempts=0)


class _FlakyCommitConn:
    """Delegating wrapper whose COMMIT raises `database is locked` the
    first ``failures`` times without committing (the transaction stays
    open on the real connection, as with genuine cross-process busy)."""

    def __init__(self, conn, failures: int) -> None:
        self._real = conn
        self.failures = failures

    def execute(self, sql, *args):
        if sql == "COMMIT" and self.failures > 0:
            self.failures -= 1
            import sqlite3
            raise sqlite3.OperationalError("database is locked")
        return self._real.execute(sql, *args)

    def __getattr__(self, name):
        return getattr(self._real, name)


class TestBusyRetry:
    def test_commit_failure_is_rolled_back_and_retried(self, tmp_path):
        """A busy error out of COMMIT itself must not strand the
        connection inside the open transaction — the retry's BEGIN
        IMMEDIATE would die with 'cannot start a transaction within a
        transaction' instead of retrying."""
        store = make_store(tmp_path, busy_base_sleep=0.001)
        store._conn = _FlakyCommitConn(store._conn, failures=2)
        specs = grid_specs()
        assert store.add_specs(specs) == len(specs)
        assert store._conn.failures == 0
        assert store.counts()["pending"] == len(specs)
        store.close()

    def test_commit_failure_budget_exhausted_raises_locked(self, tmp_path):
        """Even when retries run out, the surfaced error is the busy
        one, not a transaction-nesting artifact."""
        import sqlite3

        store = make_store(tmp_path, busy_retries=1,
                           busy_base_sleep=0.001)
        store._conn = _FlakyCommitConn(store._conn, failures=99)
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            store.add_specs(grid_specs())
        # The failed transaction was reset: plain reads still work.
        assert store.counts()["pending"] == 0
        store.close()


class TestDrain:
    def test_drain_matches_serial_bytes(self, tmp_path):
        specs = grid_specs()
        serial = ExecutionContext().run_specs(specs)
        store = make_store(tmp_path)
        store.add_specs(specs)
        completed = drain(store, heartbeat_seconds=0.2)
        assert completed == len(specs)
        drained = [store.get_result(s.cache_key()) for s in specs]
        assert snapshot_bytes(drained) == snapshot_bytes(serial)

    def test_resumed_drain_simulates_nothing(self, tmp_path):
        specs = grid_specs()
        store = make_store(tmp_path)
        store.add_specs(specs)
        assert drain(store) == len(specs)
        # restart: re-enqueue + drain again — zero re-simulated cells
        assert store.add_specs(specs) == 0
        assert drain(store) == 0

    def test_drain_rejects_lease_shorter_than_heartbeat(self, tmp_path):
        store = make_store(tmp_path)
        with pytest.raises(ConfigError):
            drain(store, heartbeat_seconds=2.0, lease_seconds=1.0)

    def test_run_claimed_records_traceback_on_crash(self, tmp_path):
        store = make_store(tmp_path, max_attempts=1)
        store.add_specs([poison_spec()])
        owner = default_owner()
        row = store.claim(owner, 10.0)
        assert not run_claimed(store, row, owner,
                               heartbeat_seconds=0.2, lease_seconds=10.0)
        assert store.counts()["failed"] == 1
        error = store.get_error(row.key)
        assert "Traceback" in error and "no_such_parameter" in error

    def test_drain_quarantines_poison_and_finishes_rest(self, tmp_path):
        specs = grid_specs() + [poison_spec()]
        store = make_store(tmp_path, max_attempts=2)
        store.add_specs(specs)
        drain(store, heartbeat_seconds=0.2)
        counts = store.counts()
        assert counts["done"] == len(specs) - 1
        assert counts["failed"] == 1
        assert counts["pending"] == counts["leased"] == 0


class TestExecutionContextStoreBackend:
    def test_store_context_matches_serial(self, tmp_path):
        specs = grid_specs()
        serial = ExecutionContext().run_specs(specs)
        store = make_store(tmp_path)
        ctx = ExecutionContext(store=store)
        assert snapshot_bytes(ctx.run_specs(specs)) \
            == snapshot_bytes(serial)
        assert ctx.simulations == len(specs)

    def test_store_context_parallel_matches_serial(self, tmp_path):
        specs = grid_specs()
        serial = ExecutionContext().run_specs(specs)
        store = make_store(tmp_path)
        ctx = ExecutionContext(parallel=2, store=store)
        assert snapshot_bytes(ctx.run_specs(specs)) \
            == snapshot_bytes(serial)

    def test_store_context_resumes_without_resimulating(self, tmp_path):
        specs = grid_specs()
        store = make_store(tmp_path)
        first = ExecutionContext(store=store)
        first.run_specs(specs)
        resumed = ExecutionContext(store=store)
        results = resumed.run_specs(specs)
        assert resumed.simulations == 0
        assert snapshot_bytes(results) \
            == snapshot_bytes(first.run_specs(specs))

    def test_store_context_raises_quarantined(self, tmp_path):
        store = make_store(tmp_path, max_attempts=1)
        ctx = ExecutionContext(store=store)
        with pytest.raises(QuarantinedError) as excinfo:
            ctx.run_specs(grid_specs()[:1] + [poison_spec()])
        assert excinfo.value.failures
        assert "no_such_parameter" in next(
            iter(excinfo.value.failures.values()))
        # the healthy cell still finished
        assert store.counts()["done"] == 1

    def test_execution_contextmanager_store_path(self, tmp_path):
        path = str(tmp_path / "ctx.sqlite")
        specs = grid_specs()[:2]
        with execution(store_path=path) as ctx:
            ctx.run_specs(specs)
        reopened = ExperimentStore(path)
        assert reopened.counts()["done"] == len(specs)
        reopened.close()


class TestQueryViews:
    def test_rows_and_status_filter(self, tmp_path):
        store = make_store(tmp_path, clock=FakeClock())
        specs = grid_specs()
        store.add_specs(specs)
        row = store.claim("w1", 10.0)
        store.complete(row.key, "w1", "r")
        all_rows = store.rows()
        assert len(all_rows) == len(specs)
        assert {r.status for r in all_rows} == {"pending", "done"}
        done = store.rows(status="done")
        assert [r.key for r in done] == [row.key]
        assert done[0].payload["app"] == "uts"
        with pytest.raises(ConfigError):
            store.rows(status="nope")

    def test_statuses_batch(self, tmp_path):
        store = make_store(tmp_path, clock=FakeClock())
        specs = grid_specs()
        store.add_specs(specs)
        keys = [s.cache_key() for s in specs]
        statuses = store.statuses(keys + ["not-a-key"])
        assert set(statuses) == set(keys)
        assert set(statuses.values()) == {"pending"}


class TestObsEvents:
    def _bus(self, clock):
        from repro.obs import EventBus, InMemorySink
        bus = EventBus()
        sink = bus.subscribe(InMemorySink())
        bus.attach_clock(clock)
        return bus, sink

    def test_lifecycle_events_published(self, tmp_path):
        clock = FakeClock()
        bus, sink = self._bus(clock)
        store = make_store(tmp_path, clock=clock, bus=bus,
                           max_attempts=2)
        store.add_specs(grid_specs()[:1])
        row = store.claim("w1", 5.0)
        clock.advance(6.0)
        store.reap()                     # miss + reclaim
        row2 = store.claim("w2", 5.0)
        clock.advance(6.0)
        store.reap()                     # miss + quarantine
        kinds = [ev.kind for ev in sink.events]
        assert kinds == ["store_lease", "store_heartbeat_miss",
                         "store_reclaim", "store_lease",
                         "store_heartbeat_miss", "store_quarantine"]
        lease = sink.events[0]
        assert lease.fields["owner"] == "w1"
        assert lease.fields["attempt"] == 1
        assert lease.t == clock.t - 12.0  # stamped by the fake clock
        reclaim = sink.events[2]
        assert reclaim.fields["owner"] == "w1"
        quarantine = sink.events[5]
        assert quarantine.fields["attempts"] == 2
        assert row.key == row2.key == quarantine.fields["key"]

    def test_standalone_bus_rejects_runtime_attach(self):
        from repro.obs import EventBus, InMemorySink
        from repro.runtime.runtime import SimRuntime
        from repro.sched import make_scheduler
        bus = EventBus()
        bus.subscribe(InMemorySink())
        bus.attach_clock(FakeClock())
        rt = SimRuntime(tiny_spec(), make_scheduler("DistWS"), seed=1)
        with pytest.raises(ConfigError):
            bus.attach(rt)


class TestGracefulSignals:
    def test_sigterm_becomes_keyboard_interrupt(self):
        with pytest.raises(KeyboardInterrupt):
            with graceful_signals():
                os.kill(os.getpid(), signal.SIGTERM)
        # handler restored afterwards
        assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL

    def test_noop_off_main_thread(self):
        seen = []

        def body():
            with graceful_signals():
                seen.append(signal.getsignal(signal.SIGTERM))

        t = threading.Thread(target=body)
        t.start()
        t.join()
        assert seen == [signal.SIG_DFL]

    def test_interrupt_mid_cell_releases_lease(self, tmp_path):
        """A worker interrupted mid-simulation returns the cell."""
        store = make_store(tmp_path)
        store.add_specs(grid_specs()[:1])
        owner = default_owner()
        row = store.claim(owner, 10.0)

        import repro.harness.parallel as parallel_mod

        def interrupted(spec):
            raise KeyboardInterrupt

        original = parallel_mod.simulate
        parallel_mod.simulate = interrupted
        try:
            with pytest.raises(KeyboardInterrupt):
                run_claimed(store, row, owner,
                            heartbeat_seconds=0.2, lease_seconds=10.0)
        finally:
            parallel_mod.simulate = original
        counts = store.counts()
        assert counts["pending"] == 1 and counts["leased"] == 0
        # and the attempt was refunded
        assert store.claim("w2", 5.0).attempt == 1

    def test_interrupt_in_complete_releases_lease(self, tmp_path):
        """An interrupt after the simulation, while ``complete`` encodes
        the result, returns the cell too."""
        store = make_store(tmp_path)
        store.add_specs(grid_specs()[:1])

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        store.complete = interrupted
        with pytest.raises(KeyboardInterrupt):
            drain(store, heartbeat_seconds=0.2)
        counts = store.counts()
        assert counts["pending"] == 1 and counts["leased"] == 0
        # and the attempt was refunded
        assert store.claim("w2", 5.0).attempt == 1

    def test_swallowed_interrupt_still_stops_the_drain(self, tmp_path,
                                                       monkeypatch):
        """A cell that swallows the SIGTERM's raise (as a Cython module
        initialising under it does) finishes, and the drain stops
        before its next claim with no row left leased."""
        import repro.harness.parallel as parallel_mod
        from repro.obs.fleet import FleetTelemetry

        store = make_store(tmp_path)
        store.add_specs(grid_specs())
        original = parallel_mod.simulate

        def swallowing(spec):
            try:
                os.kill(os.getpid(), signal.SIGTERM)
            except KeyboardInterrupt:
                pass
            return original(spec)

        monkeypatch.setattr(parallel_mod, "simulate", swallowing)
        with pytest.raises(KeyboardInterrupt):
            with graceful_signals():
                drain(store, fleet=FleetTelemetry(enabled=False))
        counts = store.counts()
        assert counts["done"] == 1 and counts["leased"] == 0
        assert counts["pending"] == len(grid_specs()) - 1
        # The flag dies with the block: a later drain runs to the end.
        monkeypatch.setattr(parallel_mod, "simulate", original)
        assert drain(store, fleet=FleetTelemetry(enabled=False)) == 3
