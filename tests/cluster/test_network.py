"""Unit tests for the message-counting interconnect."""

from __future__ import annotations

import pytest

from repro.cluster.network import (
    MSG_DATA_BLOCK,
    MSG_TASK_SHIP,
    Network,
)
from repro.errors import ConfigError


class TestSend:
    def test_intra_place_is_free_and_uncounted(self, network):
        latency = network.send(1, 1, 4096)
        assert latency == 0.0
        assert network.stats.messages == 0

    def test_cross_place_counted(self, network):
        latency = network.send(0, 2, 1024, MSG_TASK_SHIP)
        assert latency > 0
        assert network.stats.messages == 1
        assert network.stats.bytes == 1024
        assert network.stats.by_kind[MSG_TASK_SHIP] == 1
        assert network.stats.by_pair[(0, 2)] == 1

    def test_latency_scales_with_bytes(self, network, costs):
        small = network.send(0, 1, 100)
        large = network.send(0, 1, 100_000)
        assert large > small
        assert small == pytest.approx(costs.transfer_cycles(100))

    def test_unknown_kind_rejected(self, network):
        with pytest.raises(ConfigError):
            network.send(0, 1, 10, "gossip")

    def test_negative_bytes_rejected(self, network):
        with pytest.raises(ConfigError):
            network.send(0, 1, -5)

    def test_ring_topology_multiplies_hops(self, costs):
        from repro.cluster.topology import ClusterSpec
        ring = Network(ClusterSpec(n_places=8, workers_per_place=1,
                                   max_threads=1, topology="ring"), costs)
        near = ring.send(0, 1, 100)
        far = ring.send(0, 4, 100)
        assert far == pytest.approx(4 * near)


class TestRoundTrip:
    """Message counters and their deterministic snapshot."""

    def test_snapshot_is_plain_data(self, network):
        network.send(0, 1, 10)
        snap = network.stats.snapshot()
        assert snap["messages"] == 1
        assert isinstance(snap["by_kind"], dict)

    def test_snapshot_by_pair_rows_sorted(self, network):
        network.send(2, 0, 10, MSG_DATA_BLOCK)
        network.send(0, 1, 10, MSG_DATA_BLOCK)
        network.send(0, 1, 10, MSG_DATA_BLOCK)
        snap = network.stats.snapshot()
        # [src, dst, packets] rows, sorted by (src, dst) so snapshots are
        # deterministic and JSON-serializable.
        assert snap["by_pair"] == [[0, 1, 2], [2, 0, 1]]
