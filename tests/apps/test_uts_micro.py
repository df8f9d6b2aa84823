"""Tests for UTS and the §VIII.2 micro applications."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterSpec, DistWS, LifelineWS, RandomWS, SimRuntime
from repro.apps.micro import (
    MICRO_APPS,
    MatrixChainMicro,
    MergeSortMicro,
    MonteCarloPiMicro,
    RandomAccessMicro,
    SkylineMatMulMicro,
)
from repro.apps.uts import UTSApp, _child_count
from repro.errors import AppError


def small_cluster():
    return ClusterSpec(n_places=4, workers_per_place=2, max_threads=4)


class TestUTSTree:
    def test_child_count_deterministic(self):
        a = _child_count(1, "root.0", 3, 4, 0.8, 18)
        b = _child_count(1, "root.0", 3, 4, 0.8, 18)
        assert a == b

    def test_max_depth_cuts_tree(self):
        assert _child_count(1, "x", 18, 4, 0.8, 18) == 0

    def test_tree_is_unbalanced(self):
        """Sibling subtree sizes differ strongly (the point of UTS)."""
        app = UTSApp(decay=0.84, seed=1)

        def subtree(node_id, depth):
            count = 1
            for c in range(app._children_of(node_id, depth)):
                count += subtree(f"{node_id}.{c}", depth + 1)
            return count

        kids = app._children_of("root", 0)
        sizes = [subtree(f"root.{c}", 1) for c in range(kids)]
        assert len(sizes) >= 2
        assert max(sizes) >= 3 * max(1, min(sizes))

    def test_sequential_count_positive(self):
        assert UTSApp(decay=0.75, seed=2).sequential() > 1


class TestUTSApp:
    @pytest.mark.parametrize("sched_cls", [DistWS, RandomWS, LifelineWS])
    def test_counts_match_sequential(self, sched_cls):
        app = UTSApp(decay=0.75, seed=2)
        app.run(SimRuntime(small_cluster(), sched_cls(), seed=3))
        assert app.result() == app.sequential()

    def test_invalid_params(self):
        with pytest.raises(AppError):
            UTSApp(b0=0)
        with pytest.raises(AppError):
            UTSApp(decay=0.0)

    def test_result_before_run_rejected(self):
        with pytest.raises(AppError):
            UTSApp().result()


class TestMicroApps:
    @pytest.mark.parametrize("app_cls", MICRO_APPS)
    def test_validates_under_distws(self, app_cls):
        app = app_cls(n_tasks=40, seed=3)
        app.run(SimRuntime(small_cluster(), DistWS(), seed=1))
        # run() validates; spot-check output size too.
        assert len(app.result()) == 40

    def test_granularities_match_paper_order(self):
        """Paper §VIII.2: 0.12, 0.93, 0.005, 0.09, 0.006 ms."""
        g = [cls.granularity_ms for cls in MICRO_APPS]
        assert g == [0.12, 0.93, 0.005, 0.09, 0.006]

    def test_pi_estimate_reasonable(self):
        app = MonteCarloPiMicro(n_tasks=400, seed=3)
        app.run(SimRuntime(small_cluster(), DistWS(), seed=1))
        hits = sum(app.result().values())
        assert abs(4.0 * hits / (app.n_tasks * 64) - np.pi) < 0.15

    def test_mergesort_tasks_sorted(self):
        app = MergeSortMicro(n_tasks=10, seed=3)
        app.run(SimRuntime(small_cluster(), DistWS(), seed=1))
        for arr in app.result().values():
            assert (np.diff(arr) >= 0).all()

    def test_invalid_n_tasks(self):
        with pytest.raises(AppError):
            MergeSortMicro(n_tasks=0)

    def test_matchain_value_positive(self):
        app = MatrixChainMicro(n_tasks=5, seed=3)
        app.run(SimRuntime(small_cluster(), DistWS(), seed=1))
        assert all(v > 0 for v in app.result().values())
