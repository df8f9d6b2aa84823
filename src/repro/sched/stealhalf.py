"""StealHalfWS: steal-half distributed work stealing.

The classic steal-half strategy (Hendler/Shavit) applied to the paper's
selective-locality runtime: instead of the fixed ``remote_chunk_size``
chunk of §V-B3, a successful distributed steal takes ``ceil(n/2)`` of the
victim's shared deque's ``n`` tasks — the oldest half, preserving the
FIFO-coarseness argument of §V-B2.  Gast/Khatiri/Trystram's latency
analysis (arXiv 1805.01768) models exactly this amortization: each steal
costs one λ round trip but halves the load imbalance, so the latency term
of the makespan stays O(λ·log₂ W) with a smaller constant than
unit-chunk stealing when victims hold deep deques.

Everything else — mapping, the tier order, selectivity — is inherited
from :class:`~repro.sched.distws.DistWS`; only the chunk-size decision at
the (locked) take point differs, via :meth:`Scheduler._chunk_request`.
"""

from __future__ import annotations

from repro.sched.base import Scheduler
from repro.sched.distws import (
    SHARED_FIFO,
    UNDERUTIL_THRESHOLD,
    VICTIM_ORDER,
    DistWS,
)


class StealHalfWS(DistWS):
    """DistWS variant whose distributed steals take half the victim deque."""

    name = "StealHalfWS"
    #: No ``remote_chunk_size``: the chunk is sized from the victim deque.
    knobs = Scheduler.knobs + (VICTIM_ORDER, UNDERUTIL_THRESHOLD,
                               SHARED_FIFO)
    # Collapsed-round note: the chunk-size decision only exists at a
    # successful take point, which a collapsed (provably-failed) round
    # never reaches — DistWS's fast-path hooks are inherited unchanged.

    def _chunk_request(self, shared) -> int:
        # ceil(n/2) of the instantaneous deque length, measured under the
        # victim's lock.  An empty deque requests 0 (the take comes up
        # empty and the attempt resolves as an ordinary miss).
        return -(-len(shared) // 2)
