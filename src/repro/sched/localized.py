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

from repro.sched.base import REMOTE_CHUNK_SIZE, Scheduler
from repro.sched.distws import UNDERUTIL_THRESHOLD, DistWS
from repro.sched.knobs import Knob

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.task import Task
    from repro.runtime.worker import Worker


STEAL_RADIUS = Knob(
    "steal_radius", "int", default=2, lo=1, hi=32, grid=(1, 2, 4),
    doc="maximum hop distance of a regular-round steal victim "
        "(Suksompong-style localized stealing)")
RADIUS_STRIKES = Knob(
    "radius_strikes", "int", default=3, lo=1, hi=16, grid=(1, 3, 5),
    doc="consecutive failed local rounds before one "
        "unrestricted global round")


class LocalizedWS(DistWS):
    """DistWS variant with a bounded steal radius over cluster distances."""

    name = "LocalizedWS"
    knobs = Scheduler.knobs + (REMOTE_CHUNK_SIZE, UNDERUTIL_THRESHOLD,
                               STEAL_RADIUS, RADIUS_STRIKES)
    #: Fixed by the policy: the fallback round's victims are random.
    victim_order = "random"

    def __init__(self, **knobs) -> None:
        super().__init__(**knobs)
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

    def _remote_order(self, worker: "Worker", t: float) -> List[int]:
        strikes = self._strikes.get(worker.wid, 0)
        if strikes >= self.radius_strikes:
            # Escape hatch: one unrestricted round, then start over.
            obs = self.rt.obs
            if obs is not None and not obs.tally("radius_fallback", t):
                obs.emit_at(t, "radius_fallback", {
                    "place": worker.place.place_id,
                    "worker": worker.worker_index, "strikes": strikes})
            return self._random_place_order(worker)
        return self._local_order(worker)

    def _remote_done(self, worker: "Worker", task: Optional["Task"]) -> None:
        # A hit or a fallback round clears the strikes; a missed local
        # round adds one.
        wid = worker.wid
        strikes = self._strikes.get(wid, 0)
        self._strikes[wid] = (0 if task is not None
                              or strikes >= self.radius_strikes
                              else strikes + 1)

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
