"""Unit tests for the distributed memory model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cache import LruCache
from repro.cluster.memory import block_distribution
from repro.cluster.network import MSG_DATA_BLOCK, MSG_RESULT_COPYBACK
from repro.errors import PlacementError


class TestAllocation:
    def test_allocate_homes_block(self, memory):
        b = memory.allocate(2, 1024, "x")
        assert b.home_place == 2
        assert memory.replicas(b) == {2}
        assert memory.block(b.block_id) is b

    def test_unknown_block_rejected(self, memory):
        with pytest.raises(PlacementError):
            memory.block(999)

    def test_negative_size_rejected(self, memory):
        with pytest.raises(PlacementError):
            memory.allocate(0, -1)


class TestTouch:
    def test_local_touch_uses_cache(self, memory, costs):
        b = memory.allocate(1, 512)  # 512 B = 8 cache lines
        cache = LruCache(64)
        first = memory.touch(1, cache, b)
        second = memory.touch(1, cache, b)
        assert first == pytest.approx(8 * costs.l1_miss_penalty)
        assert second == 0.0
        assert memory.remote_references == 0

    def test_touch_cost_scales_with_block_size(self, memory, costs):
        small = memory.allocate(1, 64)
        big = memory.allocate(1, 64 * 100)
        cache = LruCache(1024)
        assert (memory.touch(1, cache, big)
                == pytest.approx(100 * memory.touch(1, LruCache(1024), small)))

    def test_local_touch_without_cache_free(self, memory):
        b = memory.allocate(1, 512)
        assert memory.touch(1, None, b) == 0.0

    def test_remote_touch_pays_reference(self, memory, costs):
        b = memory.allocate(0, 512)
        cost = memory.touch(3, None, b)
        assert cost >= costs.remote_access_penalty
        assert memory.remote_references == 1
        assert memory.network.stats.messages == 2  # request + reply

    def test_remote_touch_does_not_replicate(self, memory):
        b = memory.allocate(0, 512)
        memory.touch(3, None, b)
        assert memory.replicas(b) == {0}


class TestMigrate:
    def test_migrate_creates_replica(self, memory):
        b = memory.allocate(0, 4096)
        latency = memory.migrate(b, 2)
        assert latency > 0
        assert 2 in memory.replicas(b)
        assert memory.migrations == 1
        assert memory.network.stats.by_kind[MSG_DATA_BLOCK] == 1

    def test_migrate_to_holder_is_free(self, memory):
        b = memory.allocate(0, 4096)
        memory.migrate(b, 2)
        assert memory.migrate(b, 2) == 0.0
        assert memory.migrations == 1

    def test_migrate_warms_cache(self, memory):
        b = memory.allocate(0, 4096)
        cache = LruCache(4)
        memory.migrate(b, 2, warm_cache=cache)
        assert memory.touch(2, cache, b) == 0.0  # warm hit

    def test_touch_after_migration_is_local(self, memory, costs):
        b = memory.allocate(0, 4096)
        memory.migrate(b, 2)
        cost = memory.touch(2, None, b)
        assert cost == 0.0
        assert memory.remote_references == 0


class TestCopyBack:
    def test_copy_back_from_home_is_free(self, memory):
        b = memory.allocate(1, 256)
        assert memory.copy_back(b, 1) == 0.0
        assert memory.network.stats.messages == 0

    def test_copy_back_from_remote_counted(self, memory):
        b = memory.allocate(1, 256)
        cost = memory.copy_back(b, 3)
        assert cost > 0
        assert memory.network.stats.by_kind[MSG_RESULT_COPYBACK] == 1


class TestBlockDistribution:
    def test_even_split(self):
        chunks = block_distribution(8, 4)
        assert [len(c) for c in chunks] == [2, 2, 2, 2]

    def test_remainder_goes_to_early_places(self):
        chunks = block_distribution(10, 4)
        assert [len(c) for c in chunks] == [3, 3, 2, 2]

    def test_empty_array(self):
        chunks = block_distribution(0, 3)
        assert all(len(c) == 0 for c in chunks)

    def test_invalid_args_rejected(self):
        with pytest.raises(PlacementError):
            block_distribution(5, 0)
        with pytest.raises(PlacementError):
            block_distribution(-1, 2)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(min_value=0, max_value=1000),
           p=st.integers(min_value=1, max_value=32))
    def test_partition_property(self, n, p):
        chunks = block_distribution(n, p)
        assert len(chunks) == p
        covered = [i for c in chunks for i in c]
        assert covered == list(range(n))
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1
