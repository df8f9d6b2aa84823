"""Distributed memory model: data blocks, placement, and access pricing.

The PGAS memory of the simulated cluster is a set of *data blocks*.  Each
block has a home place and zero or more replicas created by bulk migration
(what happens when a stolen task "encapsulates the data necessary for its
computation", §II condition d).  A task declares which blocks it reads and
writes; the runtime prices each touch through :class:`MemoryManager`:

- copy at the touching place  -> L1 lookup (hit: free, miss: miss penalty);
- no local copy               -> a fine-grained remote reference: a message
  pair to the nearest replica plus the remote-access penalty (§I overhead c).

This is the entire mechanism behind Tables II and III: selective stealing
moves blocks once in bulk; non-selective stealing leaves task data remote
and pays per-touch references, inflating both message counts and (via cache
churn) miss rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.cluster.cache import LruCache
from repro.cluster.costmodel import CostModel
from repro.cluster.network import (
    MSG_DATA_BLOCK,
    MSG_REMOTE_REF,
    MSG_RESULT_COPYBACK,
    Network,
)
from repro.errors import PlacementError


@dataclass(frozen=True)
class DataBlock:
    """An immutable handle to one unit of placed data."""

    block_id: int
    home_place: int
    nbytes: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise PlacementError(f"negative block size: {self.nbytes}")


class MemoryManager:
    """Tracks block placement/replicas and prices every access."""

    def __init__(self, network: Network, costs: CostModel) -> None:
        self.network = network
        self.costs = costs
        self._next_id = 0
        self._blocks: Dict[int, DataBlock] = {}
        self._replicas: Dict[int, Set[int]] = {}
        #: Count of fine-grained remote references (paper overhead (c)).
        self.remote_references = 0
        #: Count of bulk block migrations.
        self.migrations = 0

    # -- allocation ----------------------------------------------------------
    def allocate(self, home_place: int, nbytes: int, label: str = "") -> DataBlock:
        """Create a block homed at ``home_place``."""
        self.network.spec._check_place(home_place)
        block = DataBlock(self._next_id, home_place, int(nbytes), label)
        self._next_id += 1
        self._blocks[block.block_id] = block
        self._replicas[block.block_id] = {home_place}
        return block

    def block(self, block_id: int) -> DataBlock:
        """Look up a block by id."""
        try:
            return self._blocks[block_id]
        except KeyError:
            raise PlacementError(f"unknown block id {block_id}") from None

    def replicas(self, block: DataBlock) -> Set[int]:
        """Places currently holding a copy of ``block``.

        Kept: the read-only view of placement that migration tests observe.
        """
        return set(self._replicas[block.block_id])

    # -- access pricing -------------------------------------------------------
    def access(self, place: int, cache: Optional[LruCache],
               block: DataBlock, write: bool = False) -> float:
        """Price one read (or write) of ``block`` by a worker at ``place``.

        With a local replica this is an L1 lookup.  Without one it is a
        *remote reference* — the X10 ``at (p)`` data access a stolen,
        non-encapsulating task is left with (§IX): the data streams over on
        demand (request + data reply, fragmented and counted), written data
        streams back, and the transient lands in the cache just long enough
        to displace resident lines (counted as misses: the paper's
        cache-pollution effect) without staying resident.
        """
        lines = self.costs.block_lines(block.nbytes)
        if place in self._replicas[block.block_id]:
            if cache is None:
                return 0.0
            hit = cache.access(block.block_id, lines)
            return 0.0 if hit else lines * self.costs.l1_miss_penalty
        self.remote_references += 1
        target = self._nearest_replica(block, place)
        latency = self.network.send(place, target, 64, MSG_REMOTE_REF)
        latency += self.network.send(target, place, block.nbytes,
                                     MSG_REMOTE_REF)
        if write:
            latency += self.network.send(place, target, block.nbytes,
                                         MSG_RESULT_COPYBACK)
        if cache is not None:
            transient = -(block.block_id + 1)
            cache.access(transient, lines)
            cache.invalidate(transient)
        return latency + self.costs.remote_access_penalty

    def touch(self, place: int, cache: Optional[LruCache],
              block: DataBlock) -> float:
        """Read access (see :meth:`access`)."""
        return self.access(place, cache, block, write=False)

    def migrate(self, block: DataBlock, dst_place: int,
                warm_cache: Optional[LruCache] = None) -> float:
        """Bulk-copy ``block`` to ``dst_place``, creating a replica there.

        Used when a locality-flexible task that encapsulates its data is
        stolen: the copy is paid once, after which all touches at the thief
        are local (§IV-A property ii/iii).
        """
        if dst_place in self._replicas[block.block_id]:
            return 0.0
        src = self._nearest_replica(block, dst_place)
        latency = self.network.send(src, dst_place, block.nbytes, MSG_DATA_BLOCK)
        self._replicas[block.block_id].add(dst_place)
        self.migrations += 1
        if warm_cache is not None:
            # The copy lands in the thief's cache, displacing proportionally
            # many resident lines — the paper's cache-pollution effect.
            warm_cache.warm(block.block_id, self.costs.block_lines(block.nbytes))
        return latency

    def copy_back(self, block: DataBlock, src_place: int) -> float:
        """Ship ``block``'s contents from ``src_place`` back to its home.

        Models the Turing-ring inner-task pathology (§IV-B): stealing a
        population-update task forces the updated population to be copied
        back to the victim.
        """
        if src_place == block.home_place:
            return 0.0
        return self.network.send(
            src_place, block.home_place, block.nbytes, MSG_RESULT_COPYBACK)

    # -- internals ------------------------------------------------------------
    def _nearest_replica(self, block: DataBlock, place: int) -> int:
        spec = self.network.spec
        holders = self._replicas[block.block_id]
        return min(holders, key=lambda p: (spec.hop_distance(place, p), p))


def block_distribution(n_items: int, n_places: int) -> List[range]:
    """Split ``range(n_items)`` into ``n_places`` contiguous chunks.

    The X10 ``Dist.makeBlock`` distribution: earlier places get the larger
    remainder chunks, every item is covered exactly once.
    """
    if n_places <= 0:
        raise PlacementError(f"n_places must be positive, got {n_places}")
    if n_items < 0:
        raise PlacementError(f"n_items must be >= 0, got {n_items}")
    base, extra = divmod(n_items, n_places)
    chunks: List[range] = []
    start = 0
    for p in range(n_places):
        size = base + (1 if p < extra else 0)
        chunks.append(range(start, start + size))
        start += size
    return chunks
