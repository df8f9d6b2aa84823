"""Per-worker L1 data cache model (weighted LRU over block ids).

Table II of the paper reports L1 D-cache miss *rates* per scheduler.  The
mechanism behind those numbers is working-set displacement: a randomly
stolen task drags a cold working set into the thief's cache, evicting the
resident set ("in the worst case, may require a transfer of the whole
content of the victim's cache", §VIII.3).

The model is an LRU set of data blocks where each block *weighs* its size
in cache lines, and hit/miss statistics count lines, so that migrating a
large block both displaces proportionally more resident data and costs
proportionally more misses — the paper's cache-pollution effect at the
granularity the runtime tracks.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass
class CacheStats:
    """Hit/miss counters (in cache lines) for one cache."""

    hits: int = 0
    misses: int = 0


class LruCache:
    """A fixed-capacity (in lines) LRU set of weighted data blocks."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[int, int] = OrderedDict()  # id -> weight
        self._weight = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        """Number of distinct blocks resident (not lines)."""
        return len(self._entries)

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._entries

    def access(self, block_id: int, weight: int = 1) -> bool:
        """Touch a block of ``weight`` lines; ``True`` on hit.

        A miss inserts the block, evicting least-recently-used blocks until
        it fits.  A block larger than the whole cache is clamped to the
        capacity (it flushes everything and occupies the cache).
        """
        weight = self._clamp(weight)
        if block_id in self._entries:
            self._entries.move_to_end(block_id)
            self.stats.hits += weight
            return True
        self.stats.misses += weight
        self._insert(block_id, weight)
        return False

    def warm(self, block_id: int, weight: int = 1) -> None:
        """Insert a block without counting an access (bulk copy-in)."""
        weight = self._clamp(weight)
        if block_id in self._entries:
            self._entries.move_to_end(block_id)
            return
        self._insert(block_id, weight)

    def invalidate(self, block_id: int) -> None:
        """Drop a block if present (replica discarded / remote write)."""
        w = self._entries.pop(block_id, None)
        if w is not None:
            self._weight -= w

    # -- internals ------------------------------------------------------------
    def _clamp(self, weight: int) -> int:
        if weight < 1:
            raise ConfigError(f"block weight must be >= 1, got {weight}")
        return min(weight, self.capacity)

    def _insert(self, block_id: int, weight: int) -> None:
        while self._weight + weight > self.capacity and self._entries:
            _, w = self._entries.popitem(last=False)
            self._weight -= w
        self._entries[block_id] = weight
        self._weight += weight
