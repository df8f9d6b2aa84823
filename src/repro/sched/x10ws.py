"""X10WS: the baseline X10 2.2 scheduler.

Help-first work stealing that "operates only within a place" (§III):

- every task — the locality annotation is ignored — maps to a private
  deque at its home place;
- an idle worker steals only from co-located workers; there is no shared
  deque traffic and no cross-place stealing, so inter-node imbalance can
  never be repaired (the effect Fig. 7 shows as ~35% utilization
  disparity).
"""

from __future__ import annotations

from repro.runtime.task import Task
from repro.sched.base import Scheduler


class X10WS(Scheduler):
    """Intra-place help-first work stealing (the paper's baseline)."""

    name = "X10WS"
    distributed = False

    def map_task(self, task: Task, from_worker=None) -> float:
        rt = self._bound_runtime()
        self._push_private(task, from_worker)
        return rt.costs.private_deque_op

    # Work finding is the base prefix and nothing else: mailbox probe
    # (remote asyncs still have to arrive somehow — X10 delivers the
    # shipped activity at its destination place, and the mailbox models
    # that delivery path even though X10WS never steals through it) plus
    # the co-located steal.  No shared-deque tier, no remote tier.
    find_work_tail = None
