"""Unit tests for cluster topology specs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterSpec, paper_cluster, worker_sweep
from repro.errors import ConfigError


class TestClusterSpec:
    def test_defaults_match_paper_platform(self):
        spec = ClusterSpec()
        assert spec.n_places == 16
        assert spec.workers_per_place == 8
        assert spec.total_workers == 128

    @pytest.mark.parametrize("kwargs", [
        {"n_places": 0},
        {"workers_per_place": 0},
        {"max_threads": 2, "workers_per_place": 4},
        {"topology": "torus"},
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ClusterSpec(**kwargs)

    def test_full_topology_distance(self):
        spec = ClusterSpec(n_places=5, workers_per_place=1, max_threads=1)
        assert spec.hop_distance(0, 0) == 0
        assert spec.hop_distance(0, 4) == 1
        assert spec.hop_distance(3, 1) == 1

    def test_ring_topology_distance(self):
        spec = ClusterSpec(n_places=6, workers_per_place=1, max_threads=1,
                           topology="ring")
        assert spec.hop_distance(0, 1) == 1
        assert spec.hop_distance(0, 5) == 1  # wraps around
        assert spec.hop_distance(0, 3) == 3

    def test_ring_neighbours_nearest_first(self):
        spec = ClusterSpec(n_places=6, workers_per_place=1, max_threads=1,
                           topology="ring")
        order = spec.neighbours_by_distance(0)
        assert order[0:2] == [1, 5]
        assert order[-1] == 3

    def test_out_of_range_place_rejected(self):
        spec = ClusterSpec(n_places=2, workers_per_place=1, max_threads=1)
        with pytest.raises(ConfigError):
            spec.hop_distance(0, 2)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=2, max_value=32),
           src=st.integers(min_value=0, max_value=31),
           dst=st.integers(min_value=0, max_value=31))
    def test_ring_distance_symmetric(self, n, src, dst):
        src, dst = src % n, dst % n
        spec = ClusterSpec(n_places=n, workers_per_place=1, max_threads=1,
                           topology="ring")
        assert spec.hop_distance(src, dst) == spec.hop_distance(dst, src)
        assert spec.hop_distance(src, dst) <= n // 2


class TestNeighbourMemoisation:
    """The neighbour order is computed once per (spec, src).

    Nearest-order stealers ask for it on every distributed steal round;
    re-sorting all places there put an O(P log P) step with O(P)
    ``hop_distance`` calls on the hot path.
    """

    def test_repeat_calls_do_not_recompute(self, monkeypatch):
        # A unique spec shape so earlier tests can't have warmed the cache.
        spec = ClusterSpec(n_places=23, workers_per_place=1, max_threads=1,
                           topology="ring")
        calls = []
        real = ClusterSpec.hop_distance

        def counting(self, src, dst):
            calls.append((src, dst))
            return real(self, src, dst)

        monkeypatch.setattr(ClusterSpec, "hop_distance", counting)
        first = spec.neighbours_by_distance(7)
        assert calls, "first call must compute the order"
        calls.clear()
        for _ in range(100):
            assert spec.neighbours_by_distance(7) == first
        assert calls == [], "memoised order must not re-derive distances"

    def test_equal_specs_share_the_cache(self, monkeypatch):
        a = ClusterSpec(n_places=29, workers_per_place=1, max_threads=1,
                        topology="ring")
        b = ClusterSpec(n_places=29, workers_per_place=1, max_threads=1,
                        topology="ring")
        first = a.neighbours_by_distance(3)
        calls = []
        real = ClusterSpec.hop_distance

        def counting(self, src, dst):
            calls.append((src, dst))
            return real(self, src, dst)

        monkeypatch.setattr(ClusterSpec, "hop_distance", counting)
        # Frozen dataclasses hash by value: b hits a's cache entry.
        assert b.neighbours_by_distance(3) == first
        assert calls == []

    def test_returned_list_is_a_private_copy(self):
        spec = ClusterSpec(n_places=8, workers_per_place=1, max_threads=1,
                           topology="ring")
        order = spec.neighbours_by_distance(0)
        order.append(999)
        assert 999 not in spec.neighbours_by_distance(0)


class TestFactories:
    def test_paper_cluster_is_128_workers(self):
        spec = paper_cluster()
        assert spec.total_workers == 128
        assert spec.topology == "full"

    def test_worker_sweep_matches_fig5_axis(self):
        specs = worker_sweep()
        totals = [s.total_workers for s in specs]
        assert totals == [1, 2, 4, 8, 16, 32, 64, 128]
        # <= 8 workers on one place, beyond that 8 per place
        assert all(s.n_places == 1 for s in specs[:4])
        assert [s.n_places for s in specs[4:]] == [2, 4, 8, 16]

    def test_worker_sweep_rejects_non_multiples(self):
        with pytest.raises(ConfigError):
            worker_sweep([12])

    def test_worker_sweep_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            worker_sweep([0])
