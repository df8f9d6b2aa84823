"""Cluster-wide load-status board (the paper's §VI-B status objects).

"The scheduler creates an object at each place to maintain information
that helps it to identify idle or lightly-loaded places", accessed through
PlaceLocalHandles.  The board tracks which places currently *advertise
surplus* — a non-empty shared deque — so a thief only sends steal requests
to places that actually have stealable work, instead of blind-polling the
whole cluster.

Reading the board is modelled as free (the real implementation piggybacks
status on existing traffic and caches it locally); what is counted is every
actual steal request, reply, and data transfer.  Races remain possible: a
place may be emptied between the board read and the request's arrival, in
which case the thief pays a failed round trip exactly as on hardware.

The randomized and lifeline schedulers deliberately do NOT consult the
board — their defining property (blind random victim selection, §X) is
what the lifeline mechanism exists to repair.
"""

from __future__ import annotations

from typing import Set

from repro.sim.engine import CAUSE_BOARD, Environment, ParkWaiters


class StatusBoard:
    """Tracks which places advertise stealable surplus."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._surplus: Set[int] = set()
        #: Parked thieves waiting for any place to advertise surplus.
        self._waiters = ParkWaiters(CAUSE_BOARD)

    def advertise(self, place_id: int) -> None:
        """Mark a place as having surplus; wakes parked thieves."""
        if place_id in self._surplus:
            return
        self._surplus.add(place_id)
        self._waiters.fire()

    def add_park_waiter(self, record) -> None:
        """Register a park record for the next surplus advertisement
        (see :class:`~repro.sim.engine.ParkWaiters`)."""
        self._waiters.add(record)

    def retract(self, place_id: int) -> None:
        """Mark a place as having no surplus. Idempotent."""
        self._surplus.discard(place_id)

    def has_surplus(self, place_id: int) -> bool:
        """Whether ``place_id`` currently advertises surplus."""
        return place_id in self._surplus

    def has_surplus_other(self, exclude: int) -> bool:
        """Whether any place other than ``exclude`` advertises surplus.

        O(1) in the common cases (empty board, or a board whose first
        entry is not ``exclude``); used by the collapsed-round fast path
        to prove the remote tier would skip every victim.
        """
        surplus = self._surplus
        if not surplus:
            return False
        for p in surplus:
            if p != exclude:
                return True
        return False
