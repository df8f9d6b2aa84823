"""Tests for the parallel sharded executor over the experiment store.

The load-bearing guarantee is the determinism contract of
``repro.harness.parallel``: for the same seed grid, any worker count and
any store state produce ``RunStats.snapshot()`` JSON byte-identical to
serial execution.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import sys

import pytest

from repro.cluster.costmodel import DEFAULT_COST_MODEL
from repro.cluster.topology import ClusterSpec
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.faults.plan import PlaceCrash
from repro.harness.db import QuarantinedError
from repro.harness.parallel import (
    CellRequest,
    ExecutionContext,
    RunSpec,
    current_context,
    execution,
    run_cells,
)


def tiny_spec():
    return ClusterSpec(n_places=2, workers_per_place=2, max_threads=4)


def grid_requests():
    """A small fixed (app x scheduler x seed) grid."""
    return [CellRequest.build(app, sched, tiny_spec(),
                              sched_seeds=(1, 2), scale="test")
            for app in ("uts", "quicksort")
            for sched in ("DistWS", "RandomWS")]


def snapshot_bytes(cells):
    """Canonical byte string for a list of CellResults."""
    return json.dumps(
        [[json.dumps(r.stats.snapshot(), sort_keys=True) for r in c.runs]
         for c in cells]).encode()


class TestDifferential:
    def test_parallel_matches_serial_byte_for_byte(self):
        """N in {1, 2, 4} workers all reproduce the serial snapshots."""
        serial = snapshot_bytes(run_cells(grid_requests()))
        for n in (1, 2, 4):
            with execution(parallel=n):
                assert snapshot_bytes(run_cells(grid_requests())) \
                    == serial, f"parallel={n} diverged from serial"

    def test_results_return_in_input_order(self):
        specs = [RunSpec.build("uts", sched, tiny_spec(), sched_seed=s,
                               scale="test")
                 for sched in ("DistWS", "RandomWS") for s in (1, 2)]
        ctx = ExecutionContext(parallel=2)
        results = ctx.run_specs(specs)
        assert len(results) == len(specs)
        for spec, res in zip(specs, results):
            assert res.scheduler == spec.scheduler
            assert res.sched_seed == spec.sched_seed

    def test_streaming_callback_sees_every_index(self):
        specs = [RunSpec.build("uts", "DistWS", tiny_spec(), sched_seed=s,
                               scale="test") for s in (1, 2, 3)]
        seen = []
        ctx = ExecutionContext(parallel=2)
        results = ctx.run_specs(
            specs, on_result=lambda i, spec, res: seen.append((i, res)))
        assert sorted(i for i, _ in seen) == [0, 1, 2]
        for i, res in seen:
            assert results[i] is res

    def test_identical_specs_simulate_once(self):
        spec = RunSpec.build("uts", "DistWS", tiny_spec(), scale="test")
        ctx = ExecutionContext()
        a, b, c = ctx.run_specs([spec, spec, spec])
        assert ctx.simulations == 1
        assert a is b is c


class TestCacheKey:
    def base(self, **kw):
        return RunSpec.build("uts", "DistWS", tiny_spec(), scale="test",
                             **kw)

    def test_stable_under_kwargs_ordering(self):
        a = self.base(sched_kwargs={"remote_chunk_size": 4, "alpha": 1})
        b = self.base(sched_kwargs={"alpha": 1, "remote_chunk_size": 4})
        assert a.cache_key() == b.cache_key()

    def test_differs_by_every_determining_input(self):
        base = self.base()
        variants = [
            self.base(sched_seed=9),
            self.base(app_seed=999),
            self.base(validate=False),
            self.base(sched_kwargs={"remote_chunk_size": 4}),
            self.base(app_overrides={"decay": 0.5}),
            self.base(costs=dataclasses.replace(DEFAULT_COST_MODEL,
                                                closure_create=1.0)),
            self.base(fault_plan=FaultPlan(
                crashes=(PlaceCrash(1, 0.5),), seed=7)),
            RunSpec.build("uts", "RandomWS", tiny_spec(), scale="test"),
            RunSpec.build("quicksort", "DistWS", tiny_spec(),
                          scale="test"),
            RunSpec.build("uts", "DistWS", tiny_spec(), scale="bench"),
            RunSpec.build("uts", "DistWS",
                          ClusterSpec(n_places=4, workers_per_place=2,
                                      max_threads=4), scale="test"),
        ]
        keys = {base.cache_key()} | {v.cache_key() for v in variants}
        assert len(keys) == 1 + len(variants), \
            "two distinct configurations collided on one cache key"

    def test_keys_are_pinned(self):
        """Every store row already written keys on these exact bytes."""
        full = RunSpec.build(
            "dmg", "RandomWS",
            ClusterSpec(n_places=4, workers_per_place=2, max_threads=6),
            app_seed=7, sched_seed=3, scale="test", validate=False,
            sched_kwargs={"remote_chunk_size": 4},
            app_overrides={"n": 500},
            fault_plan=FaultPlan.parse(
                "crash:p2@90000,loss:steal=0.05,policy:relax"))
        assert RunSpec.build("uts", "DistWS").cache_key() == (
            "308deaddc8ab8db15b9ba59b09b87d8c"
            "14253a09e20bb18ab6c3b041feb43a0e")
        assert full.cache_key() == (
            "636a6a40e1c51b6ed78908da871f7269"
            "5f3b1733f8849de36a3b00ee422bb95f")

    def test_cell_expands_per_seed_and_validates_first(self):
        plan = FaultPlan(crashes=(PlaceCrash(1, 0.5),), seed=7)
        cell = CellRequest.build("uts", "DistWS", tiny_spec(),
                                 sched_seeds=(4, 5, 6), scale="test",
                                 fault_plan=plan)
        assert cell.to_specs() == [
            self.base(sched_seed=s, validate=s == 4, fault_plan=plan)
            for s in (4, 5, 6)]


class TestContextCaching:
    def test_warm_cache_runs_zero_simulations(self, tmp_path):
        requests = grid_requests()
        db = str(tmp_path / "sweep.db")
        with execution(store_path=db) as cold:
            first = snapshot_bytes(run_cells(requests))
            assert cold.simulations == 8
            assert cold.store.counts()["done"] == 8
        with execution(store_path=db) as warm:
            second = snapshot_bytes(run_cells(requests))
            assert warm.simulations == 0, \
                "a finished store must not simulate anything"
        assert first == second

    def test_config_change_invalidates(self, tmp_path):
        spec = RunSpec.build("uts", "DistWS", tiny_spec(), scale="test")
        changed = RunSpec.build("uts", "DistWS", tiny_spec(), scale="test",
                                sched_kwargs={"remote_chunk_size": 4})
        with execution(store_path=str(tmp_path / "sweep.db")) as ctx:
            ctx.run_specs([spec])
            ctx.run_specs([changed])
            assert ctx.simulations == 2, \
                "a changed scheduler config must re-simulate"

    def test_cached_results_match_fresh(self, tmp_path):
        spec = RunSpec.build("uts", "DistWS", tiny_spec(), scale="test")
        fresh = ExecutionContext().run_specs([spec])[0]
        db = str(tmp_path / "sweep.db")
        with execution(store_path=db):
            current_context().run_specs([spec])
        with execution(store_path=db) as ctx:
            cached = ctx.run_specs([spec])[0]
            assert ctx.simulations == 0
        assert json.dumps(cached.stats.snapshot(), sort_keys=True) \
            == json.dumps(fresh.stats.snapshot(), sort_keys=True)


class TestContextPlumbing:
    def test_rejects_nonpositive_parallel(self):
        with pytest.raises(ConfigError):
            ExecutionContext(parallel=0)

    def test_execution_restores_previous_context(self):
        outer = current_context()
        with execution(parallel=3) as ctx:
            assert current_context() is ctx
            assert ctx.parallel == 3
        assert current_context() is outer

    def test_nested_contexts_unwind_in_order(self):
        with execution(parallel=2) as a:
            with execution(parallel=4) as b:
                assert current_context() is b
            assert current_context() is a

    def test_run_spec_is_picklable(self):
        spec = RunSpec.build(
            "uts", "DistWS", tiny_spec(), scale="test",
            sched_kwargs={"remote_chunk_size": 4},
            fault_plan=FaultPlan(crashes=(PlaceCrash(1, 0.5),), seed=7))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.cache_key() == spec.cache_key()

    def test_cell_request_requires_seeds(self):
        with pytest.raises(ConfigError):
            CellRequest.build("uts", "DistWS", tiny_spec(),
                              sched_seeds=())




# ---------------------------------------------------------------------------
# Helper processes of a store drain.

class TestStoreHelpers:
    def test_helpers_capped_by_rows(self, tmp_path, monkeypatch):
        """A sweep never forks more helpers than it has rows to share:
        one row drains in the coordinator alone."""
        import multiprocessing

        started = []

        class FakeProcess:
            def __init__(self, **kwargs):
                pass

            def start(self):
                started.append(self)

            def join(self, timeout=None):
                pass

            def is_alive(self):
                return False

        class FakeContext:
            Process = FakeProcess

        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda *args: FakeContext())
        specs = [RunSpec.build("uts", "DistWS", tiny_spec(), sched_seed=s,
                               scale="test") for s in (1, 2, 3, 4, 5, 6)]
        with execution(parallel=8,
                       store_path=str(tmp_path / "sweep.db")) as ctx:
            ctx.run_specs(specs[:1])
            assert len(started) == 0
            ctx.run_specs(specs[1:3])
            assert len(started) == 1
        ExecutionContext(parallel=8).run_specs(specs[3:])
        assert len(started) == 3

    def test_interrupted_sweep_stops_its_helpers(self, tmp_path):
        """SIGTERM to a two-process ``--parallel`` sweep's coordinator
        while cells are in flight and pending: it exits with the
        interrupt code well inside the 30 s helper join, and leaves no
        helper alive and no row leased."""
        if not sys.platform.startswith("linux"):
            pytest.skip("the probe reads helper liveness from /proc")
        probe = _interrupt_smoke().interrupt_sweep(
            str(tmp_path / "sweep.db"), parallel=2)
        rows = f"rows at the signal {probe['at_signal']}, " \
               f"at exit {probe['at_exit']}"
        assert probe["exit_code"] == 130, (rows, probe["stderr"])
        assert probe["seconds"] < 5.0
        assert len(probe["helpers"]) == 1
        assert probe["alive"] == []
        assert probe["leased"] == 0, rows


def _interrupt_smoke():
    """``tools/interrupt_smoke.py``, the probe CI's parallel-smoke job
    runs, loaded as a module."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "tools" / "interrupt_smoke.py"
    spec = importlib.util.spec_from_file_location("interrupt_smoke", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Bound before any monkeypatching so the kamikaze can defer to it.
from repro.harness.parallel import simulate as _real_simulate  # noqa: E402


def _in_coordinator() -> bool:
    """True in the process that runs the sweep (not a forked helper)."""
    import multiprocessing

    return multiprocessing.parent_process() is None


def _kamikaze_simulate(spec):
    """Dies hard (like an OOM kill) in the first helper that claims a
    cell, once per flag file.  The coordinator holds its own first cell
    until that death, so a helper is sure to claim one."""
    import os
    import time

    flag = os.environ["REPRO_TEST_KAMIKAZE_FLAG"]
    if _in_coordinator():
        deadline = time.monotonic() + 30.0
        while not os.path.exists(flag) and time.monotonic() < deadline:
            time.sleep(0.01)
        return _real_simulate(spec)
    try:
        fd = os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return _real_simulate(spec)
    os.close(fd)
    os._exit(137)


def _seed_two_always_dies(spec):
    """Every attempt at the ``sched_seed=2`` cell dies: hard in a
    helper; the coordinator, which must live to report, raises."""
    import os

    if spec.sched_seed != 2:
        return _real_simulate(spec)
    if _in_coordinator():
        raise RuntimeError("simulated OOM kill")
    os._exit(137)


def _fork_only():
    import multiprocessing

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("helper-death tests monkeypatch the child via fork")


def _short_leases(monkeypatch):
    """Shrink the drain loop's lease, heartbeat and poll defaults so a
    dead helper's lease expires in half a second."""
    import inspect

    import repro.harness.db as db_mod

    short = {"heartbeat_seconds": 0.05, "lease_seconds": 0.5,
             "poll_seconds": 0.05}
    for fn in (db_mod.drain, db_mod.run_worker):
        defaults = tuple(
            short.get(name, param.default)
            for name, param in inspect.signature(fn).parameters.items()
            if param.default is not inspect.Parameter.empty)
        monkeypatch.setattr(fn, "__defaults__", defaults)


class TestPoolWorkerDeath:
    """Helper death on the private store of ``ExecutionContext(parallel=N)``."""

    def test_dead_worker_rebuilds_pool_and_recovers(
            self, tmp_path, monkeypatch):
        """A helper killed mid-cell: the reaper re-opens its row and the
        grid still matches serial byte for byte."""
        _fork_only()
        import repro.harness.parallel as parallel_mod

        specs = [RunSpec.build("uts", sched, tiny_spec(), sched_seed=s,
                               scale="test")
                 for sched in ("DistWS", "RandomWS") for s in (1, 2)]
        serial = ExecutionContext().run_specs(specs)

        _short_leases(monkeypatch)
        monkeypatch.setenv("REPRO_TEST_KAMIKAZE_FLAG",
                           str(tmp_path / "died.flag"))
        monkeypatch.setattr(parallel_mod, "simulate", _kamikaze_simulate)
        results = ExecutionContext(parallel=2).run_specs(specs)

        assert (tmp_path / "died.flag").exists()
        got = [json.dumps(r.stats.snapshot(), sort_keys=True)
               for r in results]
        want = [json.dumps(r.stats.snapshot(), sort_keys=True)
                for r in serial]
        assert got == want

    def test_repeatedly_dying_spec_gives_up_with_context(
            self, monkeypatch):
        """A cell that dies on every attempt is quarantined after
        ``max_attempts`` and reported by key; its siblings finish."""
        _fork_only()
        import repro.harness.parallel as parallel_mod

        specs = [RunSpec.build("uts", "DistWS", tiny_spec(), sched_seed=s,
                               scale="test") for s in (1, 2, 3)]
        _short_leases(monkeypatch)
        monkeypatch.setattr(parallel_mod, "simulate", _seed_two_always_dies)
        with pytest.raises(QuarantinedError) as err:
            ExecutionContext(parallel=2).run_specs(specs)
        assert set(err.value.failures) == {specs[1].cache_key()}
        assert specs[1].cache_key()[:12] in str(err.value)
