"""The programmer-facing APGAS layer (X10-flavoured).

Applications are written against :class:`Apgas`, which mirrors the X10
constructs the paper relies on (§III):

- ``async_at(p, body, ...)`` — X10's ``async (p) S`` (with the optional
  ``@AnyPlaceTask`` flexibility hint);
- ``finish(name)`` — a termination scope; ``scope.on_complete`` builds
  phase barriers;
- ``alloc(p, nbytes)`` — place data at ``p`` (the priced PGAS memory);
- :class:`~repro.apgas.dist_array.DistArray` — ``DistArray.make`` over a
  block distribution;
- :class:`~repro.apgas.plh.PlaceLocalHandle` — per-place storage resolved
  locally (§VI-B).

A single :class:`Apgas` object wraps one :class:`SimRuntime`; the
application's ``build`` callable receives it and spawns root activities.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.cluster.memory import DataBlock
from repro.runtime.finish import FinishScope
from repro.runtime.runtime import SimRuntime
from repro.runtime.task import Task, TaskContext
from repro.apgas.annotations import resolve_locality


class Apgas:
    """X10-style façade over a simulated runtime."""

    def __init__(self, runtime: SimRuntime) -> None:
        self.rt = runtime

    # -- places ------------------------------------------------------------
    @property
    def n_places(self) -> int:
        """Number of places in the cluster."""
        return self.rt.spec.n_places

    def places(self) -> range:
        """Iterable of place ids (X10's ``Place.places()``)."""
        return range(self.n_places)

    # -- memory ----------------------------------------------------------------
    def alloc(self, place: int, nbytes: int, label: str = "") -> DataBlock:
        """Allocate a data block homed at ``place``."""
        return self.rt.memory.allocate(place, nbytes, label)

    # -- activities ----------------------------------------------------------------
    def async_at(
        self,
        place: int,
        body: Optional[Callable[[TaskContext], None]] = None,
        *,
        work: float = 0.0,
        reads: Sequence[DataBlock] = (),
        writes: Sequence[DataBlock] = (),
        flexible: Optional[bool] = None,
        encapsulates: bool = False,
        copy_back: Sequence[DataBlock] = (),
        closure_bytes: int = 256,
        label: str = "",
        finish: Optional[FinishScope] = None,
    ) -> Task:
        """X10's ``async (p) S`` — spawn an activity homed at ``place``.

        This is the *root-level* entry point (program build time or finish
        continuations); inside a running activity use ``ctx.spawn`` so the
        spawn is charged to the parent task.  ``flexible=True`` (or an
        ``@any_place_task``-decorated body) makes the task available for
        distributed stealing.
        """
        task = Task(
            body, place,
            locality=resolve_locality(body, flexible),
            work=work, reads=reads, writes=writes,
            encapsulates=encapsulates, copy_back=copy_back,
            closure_bytes=closure_bytes, label=label)
        self.rt.spawn(task, from_place=None, finish=finish)
        return task

    def finish(self, name: str = "finish",
               parent: Optional[FinishScope] = None) -> FinishScope:
        """Create a finish scope (child of the root scope by default).

        The caller must :meth:`~repro.runtime.finish.FinishScope.close` the
        scope once every task that will ever join it has been spawned.
        """
        return FinishScope(name, parent=parent or self.rt.root_finish)

    # -- conveniences ------------------------------------------------------------
    def rng(self, *names: object):
        """Deterministic RNG stream for application input synthesis."""
        return self.rt.rngs.stream("app", *names)

    @property
    def costs(self):
        """The active cost model (apps use it to size task work)."""
        return self.rt.costs
