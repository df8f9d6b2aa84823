"""RandomWS: pure randomized distributed work stealing.

The comparator the paper uses for UTS (§X): the lifeline scheduler with
lifelines disabled, i.e. an idle worker makes ``w`` independent uniformly
random remote steal attempts (single task each, no organized victim
traversal, no chunking) and gives up for the round if all fail.  "In
randomized work-stealing, a missed steal does not help future steals."

Mapping honours the locality annotation exactly like DistWS so that the
UTS comparison isolates the *steal strategy*, not the task-selection rule
(every UTS task is flexible anyway).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.sched.base import Scheduler
from repro.sched.distws import DistWS
from repro.sched.knobs import Knob

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.worker import Worker


#: The default of 2 follows the lifeline papers (w=2).
ATTEMPTS_PER_ROUND = Knob(
    "attempts_per_round", "int", default=2, lo=1, hi=8, grid=(1, 2, 4),
    doc="independent random victims probed per failed round "
        "(Lifeline then quiesces on its lifelines)")


class RandomWS(DistWS):
    """DistWS mapping + unorganized random single-task remote steals."""

    name = "RandomWS"
    knobs = Scheduler.knobs + (ATTEMPTS_PER_ROUND,)
    #: Fixed by the policy: unorganized steals take one task.
    remote_chunk_size = 1
    distributed = True
    #: Blind random victim selection — the point of the §X comparison.
    #: It confines the collapsed round to single-place runs: a blind
    #: failed round draws victims and pays round trips no matter what the
    #: board says.
    uses_status_board = False
    #: Named RNG stream the victims are drawn from, per worker.
    victim_stream = "random-victims"

    def _remote_order(self, worker: "Worker", t: float) -> List[int]:
        rng = self.rt.rngs.stream(self.victim_stream, *worker.wid)
        others = [p for p in range(self.rt.spec.n_places)
                  if p != worker.place.place_id]
        return [others[int(rng.integers(len(others)))]
                for _ in range(self.attempts_per_round)]
