"""Property tests for the NIC contention (LogGP store-and-forward) model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.costmodel import CostModel
from repro.cluster.network import Network
from repro.cluster.topology import ClusterSpec
from repro.sim.engine import Environment


def make_net(n_places=4):
    env = Environment()
    spec = ClusterSpec(n_places=n_places, workers_per_place=1,
                       max_threads=1)
    return Network(spec, CostModel(), env=env), env


class TestNicModel:
    def test_latency_at_least_wire_time(self):
        net, _ = make_net()
        costs = net.costs
        d = net.send(0, 1, 10_000)
        wire = costs.net_latency + 2 * 10_000 * costs.net_cycles_per_byte
        assert d >= wire * 0.999

    def test_same_sender_serialises(self):
        net, _ = make_net()
        first = net.send(0, 1, 100_000)
        second = net.send(0, 2, 100_000)  # different receiver, same TX
        assert second > first

    def test_different_endpoints_pipeline(self):
        net, _ = make_net()
        a = net.send(0, 1, 100_000)
        b = net.send(2, 3, 100_000)  # disjoint NICs: no queueing
        assert b == pytest.approx(a)

    def test_receiver_serialises_arrivals(self):
        net, _ = make_net()
        a = net.send(0, 3, 100_000)
        b = net.send(1, 3, 100_000)  # different sender, same RX
        assert b > a

    def test_time_advances_frees_nics(self):
        net, env = make_net()
        first = net.send(0, 1, 1_000_000)
        env._now = first * 10  # long after the transfer drained
        again = net.send(0, 1, 1_000_000)
        assert again == pytest.approx(first)

    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.integers(min_value=1, max_value=200_000),
                          min_size=1, max_size=20))
    def test_delays_monotone_in_queue(self, sizes):
        """Back-to-back same-pair transfers have non-decreasing delays."""
        net, _ = make_net()
        delays = [net.send(0, 1, s) for s in sizes]
        # Each successive transfer waits for all previous bytes, so the
        # completion times (now + delay) are strictly increasing.
        completion = 0.0
        for d in delays:
            assert d > 0
            assert d >= completion or d == pytest.approx(completion)
            completion = d

    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.integers(min_value=1, max_value=50_000),
                          min_size=1, max_size=30))
    def test_packet_count_tracks_volume(self, sizes):
        net, _ = make_net()
        for s in sizes:
            net.send(0, 1, s)
        expected = sum(max(1, -(-s // net.costs.packet_bytes))
                       for s in sizes)
        assert net.stats.messages == expected
        assert net.stats.bytes == sum(sizes)
