"""Tests for the experiment runner and app registry."""

from __future__ import annotations

import pytest

from repro.apps import APP_REGISTRY, PAPER_APPS, make_app
from repro.cluster.topology import ClusterSpec
from repro.errors import ConfigError
from repro.harness.experiment import run_cell
from repro.harness.parallel import RunSpec, current_context


def tiny_spec():
    return ClusterSpec(n_places=2, workers_per_place=2, max_threads=4)


def run_once(**kwargs):
    """One uts x DistWS run through the active execution context."""
    spec = RunSpec.build("uts", "DistWS", tiny_spec(), scale="test",
                         **kwargs)
    return current_context().run_specs([spec])[0]


class TestRegistry:
    def test_paper_apps_registered(self):
        for name in PAPER_APPS:
            assert name in APP_REGISTRY

    def test_make_app_scales(self):
        bench = make_app("quicksort")
        test = make_app("quicksort", scale="test")
        assert test.n < bench.n

    def test_make_app_overrides(self):
        app = make_app("uts", scale="test", decay=0.5)
        assert app.decay == 0.5

    def test_unknown_app_rejected(self):
        with pytest.raises(ConfigError):
            make_app("nosuch")

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigError):
            make_app("uts", scale="huge")


class TestRunOnce:
    def test_returns_result_with_speedup(self):
        res = run_once()
        assert res.speedup > 0
        assert res.makespan_ms > 0
        assert res.stats.tasks_executed > 0
        assert res.wall_seconds > 0

    def test_deterministic(self):
        a = run_once(sched_seed=4)
        b = run_once(sched_seed=4)
        assert a.stats.makespan_cycles == b.stats.makespan_cycles

    def test_sched_kwargs_forwarded(self):
        res = run_once(sched_kwargs={"remote_chunk_size": 4})
        assert res.stats.tasks_executed > 0


class TestRunCell:
    def test_aggregates_over_seeds(self):
        cell = run_cell("uts", "DistWS", tiny_spec(),
                        sched_seeds=(1, 2), scale="test")
        assert len(cell.runs) == 2
        speeds = [r.speedup for r in cell.runs]
        assert min(speeds) <= cell.mean_speedup <= max(speeds)

    def test_mean_helper(self):
        cell = run_cell("uts", "DistWS", tiny_spec(), sched_seeds=(1,),
                        scale="test")
        assert cell.mean(lambda r: r.stats.tasks_executed) \
            == cell.runs[0].stats.tasks_executed
