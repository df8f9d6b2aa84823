"""LocalizedWS: bounded-radius distributed stealing with escape hatch.

Suksompong/Leiserson/Schardl's *localized work stealing* observes that on
a non-uniform interconnect a thief should prefer victims it can reach
cheaply; the paper's own footnote 2 recommends nearest-first probing on
rings.  This policy makes the preference a hard bound: distributed steal
rounds only visit places within ``steal_radius`` hops
(:meth:`ClusterSpec.hop_distance`), in a per-worker random order drawn
from a dedicated RNG stream.  Starvation inside a work-starved
neighbourhood is bounded by ``radius_strikes``: after that many
*consecutive* failed local rounds a worker runs one unrestricted global
round (emitting a ``radius_fallback`` event), then resumes local probing
with its strike count cleared.

On a fully connected topology every place sits at hop distance 1, so any
``steal_radius >= 1`` makes the policy behave like DistWS with random
victim order (the fallback never fires); the radius only bites on rings.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.sched.base import FindWork
from repro.sched.distws import DistWS

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.worker import Worker


class LocalizedWS(DistWS):
    """DistWS variant with a bounded steal radius over cluster distances."""

    name = "LocalizedWS"

    def __init__(self, steal_radius: int = 2, radius_strikes: int = 3,
                 remote_chunk_size: int = 2,
                 underutil_threshold: Optional[int] = None,
                 **knobs) -> None:
        super().__init__(remote_chunk_size=remote_chunk_size,
                         victim_order="random",
                         underutil_threshold=underutil_threshold, **knobs)
        if int(steal_radius) < 1:
            raise ValueError(
                f"steal_radius must be >= 1, got {steal_radius!r}")
        if int(radius_strikes) < 1:
            raise ValueError(
                f"radius_strikes must be >= 1, got {radius_strikes!r}")
        #: Maximum hop distance of a regular-round victim.
        self.steal_radius = int(steal_radius)
        #: Consecutive failed local rounds before one global round.
        self.radius_strikes = int(radius_strikes)
        #: worker wid -> consecutive failed local rounds.
        self._strikes: Dict[Tuple[int, int], int] = {}
        #: worker wid -> dedicated victim-shuffle RNG.
        self._radius_rngs: Dict[Tuple[int, int], object] = {}
        #: place id -> places within ``steal_radius`` hops (static).
        self._neighbourhoods: Dict[int, List[int]] = {}

    def bind(self, runtime) -> None:
        super().bind(runtime)
        self._strikes = {}
        self._radius_rngs = {}
        spec = runtime.spec
        self._neighbourhoods = {
            pi: [pj for pj in range(spec.n_places)
                 if pj != pi and spec.hop_distance(pi, pj)
                 <= self.steal_radius]
            for pi in range(spec.n_places)}

    def _fast_remote_commit(self, worker: "Worker") -> None:
        # A collapsed all-skip round still consumes this round's victim
        # shuffle and advances the strike ledger exactly as find_work_tail
        # would have: a fallback round draws the global order and clears
        # the strikes; a regular (missed) round draws the radius order
        # and adds a strike.
        if self.rt.spec.n_places <= 1:
            return
        wid = worker.wid
        strikes = self._strikes.get(wid, 0)
        if strikes >= self.radius_strikes:
            self._random_place_order(worker)
            self._strikes[wid] = 0
        else:
            self._local_order(worker)
            self._strikes[wid] = strikes + 1

    def _local_order(self, worker: "Worker") -> List[int]:
        """The worker's in-radius victims, freshly shuffled."""
        wid = worker.wid
        rng = self._radius_rngs.get(wid)
        if rng is None:
            rng = self._radius_rngs[wid] = self.rt.rngs.stream(
                "localized-victims", *wid)
        neighbourhood = self._neighbourhoods[worker.place.place_id]
        return [neighbourhood[int(i)]
                for i in rng.permutation(len(neighbourhood))]

    def find_work_tail(self, worker: "Worker") -> FindWork:
        task = yield from self._steal_local_shared(worker)
        if task is not None:
            return task
        if self.rt.spec.n_places > 1:
            wid = worker.wid
            strikes = self._strikes.get(wid, 0)
            if strikes >= self.radius_strikes:
                # Escape hatch: one unrestricted round, then start over.
                if self.rt.obs is not None:
                    self.rt.obs.emit("radius_fallback",
                                     place=worker.place.place_id,
                                     worker=worker.worker_index,
                                     strikes=strikes)
                task = yield from self._steal_remote(
                    worker, self._random_place_order(worker))
                self._strikes[wid] = 0
            else:
                task = yield from self._steal_remote(
                    worker, self._local_order(worker))
                self._strikes[wid] = 0 if task is not None else strikes + 1
        return task
