"""``PlaceLocalHandle``: one storage slot per place (§VI-B).

"A PlaceLocalHandle is a unique identifier that resolves to a unique local
piece of storage at each Place."  The runtime uses the same idea for its
load-status objects; applications use it for per-place partial results
(e.g. k-means partial sums) without any cross-place synchronization.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Iterator, Optional, Tuple, TypeVar

from repro.errors import PlacementError

T = TypeVar("T")


class PlaceLocalHandle(Generic[T]):
    """Per-place storage resolved by place id.

    Kept: public API that README documents for user programs.
    """

    def __init__(self, n_places: int,
                 factory: Optional[Callable[[int], T]] = None) -> None:
        if n_places < 1:
            raise PlacementError(f"n_places must be >= 1, got {n_places}")
        self.n_places = n_places
        self._slots: Dict[int, T] = {}
        if factory is not None:
            for p in range(n_places):
                self._slots[p] = factory(p)

    def at(self, place: int) -> T:
        """Resolve the handle at ``place`` (X10's ``plh()``)."""
        self._check(place)
        try:
            return self._slots[place]
        except KeyError:
            raise PlacementError(
                f"handle has no value at place {place}") from None

    def set(self, place: int, value: T) -> None:
        """Store ``value`` at ``place``."""
        self._check(place)
        self._slots[place] = value

    def items(self) -> Iterator[Tuple[int, T]]:
        """Iterate ``(place, value)`` pairs in place order."""
        for p in sorted(self._slots):
            yield p, self._slots[p]

    def _check(self, place: int) -> None:
        if not (0 <= place < self.n_places):
            raise PlacementError(
                f"place {place} out of range 0..{self.n_places - 1}")
