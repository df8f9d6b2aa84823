"""Cluster topology: places (nodes), workers, and inter-node distance.

The paper's platform is 16 nodes x 8 workers, fully connected over
InfiniBand.  The model also supports a ring topology because the paper notes
(§I, footnote 2) that victim-node selection matters more on non-fully
connected clusters; the ablation benchmarks exercise that claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Sequence, Tuple

from repro.errors import ConfigError

#: Supported interconnect shapes.
TOPOLOGIES = ("full", "ring")


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of the simulated cluster.

    Parameters mirror the paper's experimental setup (§VII): ``n_places``
    nodes each running ``workers_per_place`` worker threads
    (``X10_NTHREADS=8``), with ``max_threads`` as the dynamic-thread upper
    bound that defines *under-utilized* in Algorithm 1.
    """

    n_places: int = 16
    workers_per_place: int = 8
    #: Upper bound on threads per place (static + dynamic). A place below
    #: this bound counts as under-utilized for Algorithm 1 line 5.
    max_threads: int = 12
    topology: str = "full"

    def __post_init__(self) -> None:
        if self.n_places < 1:
            raise ConfigError(f"n_places must be >= 1, got {self.n_places}")
        if self.workers_per_place < 1:
            raise ConfigError(
                f"workers_per_place must be >= 1, got {self.workers_per_place}")
        if self.max_threads < self.workers_per_place:
            raise ConfigError(
                "max_threads must be >= workers_per_place "
                f"({self.max_threads} < {self.workers_per_place})")
        if self.topology not in TOPOLOGIES:
            raise ConfigError(
                f"unknown topology {self.topology!r}; expected one of {TOPOLOGIES}")

    @property
    def total_workers(self) -> int:
        """Total worker threads in the cluster."""
        return self.n_places * self.workers_per_place

    def place_ids(self) -> range:
        """Iterable of place ids ``0..n_places-1``."""
        return range(self.n_places)

    def hop_distance(self, src: int, dst: int) -> int:
        """Number of network hops between two places."""
        self._check_place(src)
        self._check_place(dst)
        if src == dst:
            return 0
        if self.topology == "full":
            return 1
        # ring: shortest way around
        d = abs(src - dst)
        return min(d, self.n_places - d)

    def neighbours_by_distance(self, src: int) -> List[int]:
        """Other places ordered nearest-first (ties broken by id).

        This is the victim *order* a topology-aware stealer would use; the
        paper argues task selection matters more than this order on a fully
        connected cluster, where the order is arbitrary.

        The order is memoised per ``(spec, src)`` — the spec is frozen,
        so it can never change — because nearest-order stealers ask for
        it on every distributed steal round; re-sorting all places there
        put an ``O(P log P)`` step on the hot path.  A fresh list is
        returned each call so callers may mutate their copy.
        """
        self._check_place(src)
        return list(_neighbour_order(self, src))

    def _check_place(self, p: int) -> None:
        if not (0 <= p < self.n_places):
            raise ConfigError(f"place {p} out of range 0..{self.n_places - 1}")


@lru_cache(maxsize=None)
def _neighbour_order(spec: ClusterSpec, src: int) -> Tuple[int, ...]:
    """The sorted neighbour tuple, computed once per ``(spec, src)``."""
    others = sorted((p for p in spec.place_ids() if p != src),
                    key=lambda p: (spec.hop_distance(src, p), p))
    return tuple(others)


def paper_cluster(n_places: int = 16, workers_per_place: int = 8) -> ClusterSpec:
    """The paper's 16x8 = 128-worker blade-server configuration."""
    return ClusterSpec(n_places=n_places, workers_per_place=workers_per_place,
                       max_threads=workers_per_place + 4, topology="full")


def worker_sweep(total_workers: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128),
                 workers_per_place: int = 8) -> List[ClusterSpec]:
    """Cluster configurations matching Fig. 5's x-axis.

    The paper fixes ``X10_NTHREADS=8`` and varies the number of places, so
    worker counts <= 8 use a single place with fewer workers, and larger
    counts use ``total // 8`` places of 8 workers each.
    """
    specs: List[ClusterSpec] = []
    for total in total_workers:
        if total <= 0:
            raise ConfigError(f"worker count must be positive, got {total}")
        if total <= workers_per_place:
            specs.append(ClusterSpec(
                n_places=1, workers_per_place=total,
                max_threads=total + 4, topology="full"))
        else:
            if total % workers_per_place:
                raise ConfigError(
                    f"worker count {total} not a multiple of {workers_per_place}")
            specs.append(ClusterSpec(
                n_places=total // workers_per_place,
                workers_per_place=workers_per_place,
                max_threads=workers_per_place + 4, topology="full"))
    return specs
