"""Interconnect model: message accounting and transfer latency.

Every cross-node interaction in the runtime goes through this object so that
Table III ("number of messages transmitted across nodes") falls out of a
single counter.  Messages are classified by kind so the benchmarks can also
break down *why* a scheduler communicates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cluster.costmodel import CostModel
from repro.cluster.topology import ClusterSpec
from repro.errors import ConfigError

#: Message kinds used by the runtime.
MSG_STEAL_REQUEST = "steal_request"
MSG_STEAL_REPLY = "steal_reply"
MSG_TASK_SHIP = "task_ship"          # closure of a stolen task
MSG_DATA_BLOCK = "data_block"        # bulk transfer of an encapsulated block
MSG_REMOTE_REF = "remote_ref"        # fine-grained remote read/write pair
MSG_RESULT_COPYBACK = "result_copyback"
MSG_TERMINATION = "termination"

MESSAGE_KINDS = (
    MSG_STEAL_REQUEST, MSG_STEAL_REPLY, MSG_TASK_SHIP, MSG_DATA_BLOCK,
    MSG_REMOTE_REF, MSG_RESULT_COPYBACK, MSG_TERMINATION,
)


@dataclass
class NetworkStats:
    """Aggregated interconnect counters for one simulation run."""

    messages: int = 0
    bytes: int = 0
    by_kind: Counter = field(default_factory=Counter)
    by_pair: Counter = field(default_factory=Counter)

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict view for reports."""
        return {
            "messages": self.messages,
            "bytes": self.bytes,
            "by_kind": dict(self.by_kind),
            "by_pair": self.by_pair_rows(),
        }

    def by_pair_rows(self) -> List[List[int]]:
        """Per-link traffic as a sorted ``[src, dst, packets]`` table."""
        return [[src, dst, self.by_pair[(src, dst)]]
                for src, dst in sorted(self.by_pair)]


class Network:
    """Message-counting interconnect between places.

    The network does not own simulated processes; it *prices* transfers
    (returning a cycle count the caller yields as a timeout) and counts
    them.  That keeps the kernel simple while remaining faithful to the
    observables the paper reports: message counts and data volume.

    Contention model: each node's NIC serializes its traffic (10 Gbit/s
    full duplex — separate send and receive sides).  A transfer begins
    when both the source's send side and the destination's receive side
    are free; the returned latency includes that queueing delay.  This is
    what makes a data-heavy scheduler (DistWS-NS hauling locality-
    sensitive working sets around) pay honestly: its transfers saturate
    the NICs and start queueing, exactly the paper's "significantly larger
    amount of data across the nodes" penalty.
    """

    def __init__(self, spec: ClusterSpec, costs: CostModel,
                 env=None) -> None:
        self.spec = spec
        self.costs = costs
        self.env = env
        self.stats = NetworkStats()
        #: Fault injector hook; ``None`` in fault-free runs (the default),
        #: in which case every fault branch below is skipped entirely.
        self.faults = None
        #: Observability event bus; ``None`` (the default) skips message
        #: event emission entirely (set by ``EventBus.attach``).
        self.obs = None
        self._send_free: Dict[int, float] = {}
        self._recv_free: Dict[int, float] = {}

    def send(self, src: int, dst: int, nbytes: int,
             kind: str = MSG_TASK_SHIP) -> float:
        """Account one transfer and return its latency in cycles.

        Transfers are fragmented into MTU-sized packets, each counted as a
        message: Table III's counts therefore track data *volume*, as they
        do on the paper's MVAPICH2 platform.  Intra-place traffic is free
        and uncounted (Table III counts messages *across nodes* only).

        Under an attached fault injector, delivery is *reliable*: a
        dropped message costs an ack timeout plus a full retransmission
        (counted as fresh traffic), looping until one copy gets through.
        Messages to a dead place travel and vanish (fail-stop receivers
        send no NACKs); higher layers handle that case explicitly.
        """
        faults = self.faults
        if faults is None:
            return self._send_once(src, dst, nbytes, kind)
        total = self._send_once(src, dst, nbytes, kind)
        if src == dst or faults.is_dead(dst):
            return total
        while faults.drops(src, dst, kind):
            packets = max(1, -(-nbytes // self.costs.packet_bytes))
            faults.stats.note_drop(kind, packets)
            faults.stats.retransmits += 1
            total += self.costs.retransmit_timeout
            total += self._send_once(src, dst, nbytes, kind)
        return total

    def send_unreliable(self, src: int, dst: int, nbytes: int,
                        kind: str = MSG_TASK_SHIP) -> Tuple[float, bool]:
        """One transfer attempt with no transport-level recovery.

        Returns ``(latency, delivered)``.  Resilient protocol code (the
        schedulers' remote-steal path) uses this to observe losses and
        dead destinations itself — with its own timeout, retry, backoff
        and blacklist — instead of the transparent retransmission
        :meth:`send` applies.
        """
        latency = self._send_once(src, dst, nbytes, kind)
        faults = self.faults
        delivered = True
        if faults is not None and src != dst:
            if faults.is_dead(dst):
                delivered = False
            elif faults.drops(src, dst, kind):
                packets = max(1, -(-nbytes // self.costs.packet_bytes))
                faults.stats.note_drop(kind, packets)
                delivered = False
        return latency, delivered

    def _send_once(self, src: int, dst: int, nbytes: int,
                   kind: str) -> float:
        """Price and count exactly one transmission attempt."""
        if kind not in MESSAGE_KINDS:
            raise ConfigError(f"unknown message kind {kind!r}")
        if nbytes < 0:
            raise ConfigError(f"negative message size: {nbytes}")
        if src == dst:
            return 0.0
        hops = self.spec.hop_distance(src, dst)
        packets = max(1, -(-nbytes // self.costs.packet_bytes))
        self.stats.messages += packets
        self.stats.bytes += nbytes
        self.stats.by_kind[kind] += packets
        self.stats.by_pair[(src, dst)] += packets
        if self.env is None:
            return hops * self.costs.transfer_cycles(nbytes)
        # LogGP-style store-and-forward: bytes occupy the sender's TX side,
        # propagate (latency pipelines freely), then occupy the receiver's
        # RX side.  The two sides are booked independently, so one busy
        # receiver delays only its own arrivals — while a data-heavy
        # scheduler still queues honestly at ~1.25 GB/s per NIC side.
        occupancy = nbytes * self.costs.net_cycles_per_byte
        latency = hops * self.costs.net_latency
        if self.faults is not None:
            # Latency-spike windows stretch propagation, not bandwidth.
            latency *= self.faults.latency_factor(self.env.now)
        now = self.env.now
        tx_start = max(now, self._send_free.get(src, 0.0))
        tx_end = tx_start + occupancy
        self._send_free[src] = tx_end
        rx_start = max(tx_end + latency, self._recv_free.get(dst, 0.0))
        rx_end = rx_start + occupancy
        self._recv_free[dst] = rx_end
        total = rx_end - now
        obs = self.obs
        if obs is not None and not obs.tally("msg_send", now):
            obs.emit_at(now, "msg_send", {
                "src": src, "dst": dst, "kind": kind, "bytes": nbytes,
                "packets": packets, "latency": total})
        return total
