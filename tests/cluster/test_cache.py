"""Unit and property tests for the LRU L1 cache model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cache import LruCache
from repro.errors import ConfigError


class TestLruBasics:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigError):
            LruCache(0)

    def test_first_access_misses_then_hits(self):
        c = LruCache(4)
        assert not c.access(1)
        assert c.access(1)
        assert c.stats.hits == 1
        assert c.stats.misses == 1

    def test_eviction_is_lru(self):
        c = LruCache(2)
        c.access(1)
        c.access(2)
        c.access(1)      # 1 becomes most recent
        c.access(3)      # evicts 2
        assert 1 in c
        assert 3 in c
        assert 2 not in c

    def test_warm_does_not_count_access(self):
        c = LruCache(2)
        c.warm(5)
        assert c.stats.hits == c.stats.misses == 0
        assert c.access(5)  # hit thanks to the warm-up

    def test_warm_refreshes_recency(self):
        c = LruCache(2)
        c.access(1)
        c.access(2)
        c.warm(1)
        c.access(3)  # evicts 2, not 1
        assert 1 in c
        assert 2 not in c

    def test_invalidate(self):
        c = LruCache(2)
        c.access(1)
        c.invalidate(1)
        assert 1 not in c
        c.invalidate(99)  # absent: no-op

    def test_resident_blocks_lru_order(self):
        c = LruCache(3)
        for b in (1, 2, 3):
            c.access(b)
        c.access(1)
        # LRU-first order is now 2, 3, 1: each new block evicts the head.
        c.access(4)
        assert 2 not in c and 3 in c
        c.access(5)
        assert 3 not in c
        assert 1 in c and 4 in c and 5 in c


class TestLruProperties:
    @settings(max_examples=50, deadline=None)
    @given(capacity=st.integers(min_value=1, max_value=16),
           accesses=st.lists(st.integers(min_value=0, max_value=40),
                             max_size=200))
    def test_never_exceeds_capacity(self, capacity, accesses):
        c = LruCache(capacity)
        for a in accesses:
            c.access(a)
        assert len(c) <= capacity

    @settings(max_examples=50, deadline=None)
    @given(accesses=st.lists(st.integers(min_value=0, max_value=40),
                             min_size=1, max_size=200))
    def test_hits_plus_misses_equals_accesses(self, accesses):
        c = LruCache(8)
        for a in accesses:
            c.access(a)
        assert c.stats.hits + c.stats.misses == len(accesses)

    @settings(max_examples=50, deadline=None)
    @given(accesses=st.lists(st.integers(min_value=0, max_value=5),
                             min_size=1, max_size=100))
    def test_working_set_within_capacity_never_misses_twice(self, accesses):
        # If the distinct-block count fits the capacity, each block misses
        # exactly once (cold) and never again.
        c = LruCache(6)
        for a in accesses:
            c.access(a)
        assert c.stats.misses == len(set(accesses))
