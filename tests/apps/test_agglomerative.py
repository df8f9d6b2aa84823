"""Tests for agglomerative clustering."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterSpec, DistWS, SimRuntime, X10WS
from repro.apps.agglomerative import AgglomerativeApp, agglomerate
from repro.errors import AppError


def small_cluster():
    return ClusterSpec(n_places=4, workers_per_place=2, max_threads=4)


def small_app(**kw):
    defaults = dict(n=600, n_regions=24, region_clusters=6, k=4, seed=5)
    defaults.update(kw)
    return AgglomerativeApp(**defaults)


class TestAgglomerateCore:
    def test_merges_to_target_count(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(40, 2))
        c, w, merges = agglomerate(pts, np.ones(40), 5)
        assert len(c) == 5
        assert len(merges) == 35
        assert w.sum() == pytest.approx(40)

    def test_no_merge_needed(self):
        pts = np.array([[0.0, 0.0], [10.0, 10.0]])
        c, w, merges = agglomerate(pts, np.ones(2), 2)
        assert len(c) == 2
        assert merges == []

    def test_nearest_pair_merged_first(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [50.0, 50.0]])
        c, w, merges = agglomerate(pts, np.ones(3), 2)
        assert merges[0] == pytest.approx(0.1)
        # merged centroid is the midpoint of the close pair
        assert any(np.allclose(ci, [0.05, 0.0]) for ci in c)

    def test_weighted_centroid(self):
        pts = np.array([[0.0, 0.0], [3.0, 0.0]])
        c, w, _ = agglomerate(pts, np.array([2.0, 1.0]), 1)
        assert np.allclose(c[0], [1.0, 0.0])
        assert w[0] == pytest.approx(3.0)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(30, 2))
        a = agglomerate(pts, np.ones(30), 4)
        b = agglomerate(pts, np.ones(30), 4)
        assert np.array_equal(a[0], b[0])
        assert a[2] == b[2]


class TestApp:
    @pytest.mark.parametrize("sched_cls", [DistWS, X10WS])
    def test_matches_oracle(self, sched_cls):
        app = small_app()
        app.run(SimRuntime(small_cluster(), sched_cls(), seed=2))
        got_c, got_w = app.result()
        want_c, want_w = app.sequential()
        assert np.array_equal(got_c, want_c)
        assert np.array_equal(got_w, want_w)

    def test_weight_conservation(self):
        app = small_app()
        app.run(SimRuntime(small_cluster(), DistWS(), seed=2))
        _, w = app.result()
        assert w.sum() == pytest.approx(app.n)

    def test_single_region_equals_classic(self):
        app = small_app(n=80, n_regions=1, region_clusters=4, k=4)
        # With one region the regionalised algorithm degenerates to a
        # single global agglomeration pass down to region_clusters (=k).
        got_c, got_w = app.sequential()
        want_c, want_w, _ = agglomerate(app._points, np.ones(app.n), app.k)
        assert np.allclose(got_c, want_c)
        assert np.allclose(got_w, want_w)

    def test_result_before_run_rejected(self):
        with pytest.raises(AppError):
            small_app().result()

    def test_invalid_params(self):
        with pytest.raises(AppError):
            AgglomerativeApp(n=4)
        with pytest.raises(AppError):
            AgglomerativeApp(k=100, region_clusters=10)

    def test_regions_cover_all_points(self):
        app = small_app()
        covered = sorted(i for lo, hi in app._regions
                         for i in range(lo, hi))
        assert covered == list(range(app.n))
