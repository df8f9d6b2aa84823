"""Event primitives for the discrete-event kernel.

The kernel follows the SimPy model: simulated *processes* are Python
generators that ``yield`` :class:`Event` objects and are resumed when the
event triggers.  Only the handful of event types the runtime needs are
implemented, which keeps the kernel small enough to verify exhaustively.

Events have a three-stage lifecycle::

    pending --(succeed/fail)--> triggered --(kernel pops it)--> processed

Callbacks (including process resumption) run when the kernel processes the
event, in deterministic FIFO order of registration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment

#: Sentinel stored in :attr:`Event._value` while the event is pending.
PENDING = object()


class Event:
    """A one-shot occurrence at a point in simulated time.

    Parameters
    ----------
    env:
        The environment that will schedule this event's callbacks.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled",
                 "_abandoned")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked with this event when it is processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._scheduled = False
        #: Set when the process waiting on this event was interrupted
        #: (e.g. a place crash): resources holding the event in a waiter
        #: queue must skip it instead of handing over to a dead process.
        self._abandoned = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event already has a value (it may not be processed yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """Whether callbacks have already been run."""
        return self.callbacks is None

    @property
    def value(self) -> Any:
        """The payload passed to :meth:`succeed` (or the failure exception)."""
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value`` as payload."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiting processes see ``exception``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event is processed."""
        if self.callbacks is None:
            raise SimulationError("cannot add callback to a processed event")
        self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated time units in the future."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Timeout delay={self.delay!r}>"


class AnyOf(Event):
    """Triggers as soon as any of ``events`` occurs (is processed).

    The payload is the first event that occurred.  Failure of any child
    event fails the composite.

    Note the distinction between *triggered* (the event has a value and is
    scheduled — e.g. every :class:`Timeout` from birth) and *processed*
    (its due time arrived and callbacks ran).  Composites react to the
    latter: a pre-scheduled timeout has not happened yet.
    """

    __slots__ = ("events",)

    def __init__(self, env: "Environment", events: List[Event]) -> None:
        super().__init__(env)
        if not events:
            raise SimulationError("AnyOf requires at least one event")
        self.events = list(events)
        for ev in self.events:
            if ev.processed:
                # Already happened: the composite fires now.
                self._absorb(ev)
                return
            ev.add_callback(self._absorb)

    def _absorb(self, ev: Event) -> None:
        if self.triggered:
            return  # a sibling won the race
        if ev._ok:
            self.succeed(ev)
        else:
            self.fail(ev._value)
