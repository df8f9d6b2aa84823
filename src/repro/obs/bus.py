"""The event bus: clock-stamped events from the runtime to pluggable sinks.

Usage (attach *before* the run, like the fault injector)::

    bus = EventBus(sample_interval=100_000)
    metrics = bus.subscribe(MetricsRegistry())
    bus.subscribe(ChromeTraceSink("run.trace.json"))
    bus.attach(rt)
    stats = app.run(rt)            # sinks are flushed at run end
    stats.snapshot()["obs"]        # event counts + metrics block

Pay-for-what-you-use contract: :meth:`EventBus.attach` with **no sinks
subscribed is a no-op** — the runtime's ``obs`` attribute stays ``None``
and every instrumentation point short-circuits on that, leaving the run
byte-identical to an unobserved one (the zero-overhead regression test
asserts this).  With sinks attached, events are dispatched synchronously
but never consume *simulated* time, so the simulated schedule (makespan,
steal counts, …) is also unchanged — observation only costs wall clock.

Sampling: when ``sample_interval`` (cycles) is set, the bus piggybacks on
event traffic — the first event at or past the next due time triggers one
``sample`` event per place (queue depths, outstanding distributed steal
requests).  No simulated process is created, so sampling cannot perturb
the schedule either.

Routing: an :class:`~repro.obs.events.ObsEvent` is built only when a
subscribed sink reads its kind (``Sink.consumes``), and it goes to those
sinks only.  :meth:`EventBus.emit_at` is the one emission entry point:
every producer passes its own stamp (the runtime's clock, the collapsed
steal round's replayed probe times, or a standalone bus's ``clock``).
It schema-checks, counts, tracks outstanding steals, routes and samples.

Tallying: one rule, :meth:`EventBus.tally`, decides for every event
whether dispatching it would do anything but bump ``counts``.  An event
is *count-only* when no subscribed sink consumes its kind, it is not a
steal-lifecycle kind, and it is stamped before the next sample is due.
Every emission site asks first and dispatches only when told to::

    if obs is not None and not obs.tally(kind, t):
        obs.emit_at(t, kind, {...})

so an unread event costs one counter add and builds no fields dict.
The collapsed steal round asks once for its ``n`` replayed attempts
(``tally(kind, t_last, n)``).  ``counts`` is read only by
:meth:`EventBus.snapshot`, so sinks see identical streams and the
snapshot identical counts.  A count-only event skips the schema check;
the tests dispatch every kind under a sink that reads them all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import ConfigError
from repro.obs.events import EVENT_SCHEMA, ObsEvent
from repro.obs.sinks import Sink

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import SimRuntime

#: kind -> its schema's field names, for the per-event schema check.
_FIELD_SETS: Dict[str, FrozenSet[str]] = {
    kind: frozenset(names) for kind, names in EVENT_SCHEMA.items()}
#: A ``steal_request`` opens an outstanding distributed steal; the other
#: three settle it.
_STEAL_LIFECYCLE = frozenset(("steal_request", "steal_miss", "steal_cancel",
                              "chunk_arrive"))


class EventBus:
    """Dispatches typed, clock-stamped runtime events to subscribed sinks."""

    def __init__(self, sample_interval: Optional[float] = None) -> None:
        if sample_interval is not None and sample_interval <= 0:
            raise ConfigError("sample_interval must be positive")
        self.sample_interval = sample_interval
        self.rt: Optional["SimRuntime"] = None
        #: kind -> events seen.  A plain dict: storing into a ``Counter``
        #: goes through a Python-level slot (``Counter`` defines
        #: ``__delitem__``), which makes the counter add, all that a tallied
        #: event costs, about 2.5 times as slow.
        self.counts: Dict[str, int] = {}
        self._sinks: List[Sink] = []
        #: kind -> the subscribed sinks that consume it, in subscription
        #: order (rebuilt by :meth:`subscribe`).
        self._routes: Dict[str, Tuple[Sink, ...]] = {
            kind: () for kind in EVENT_SCHEMA}
        #: Stamp at or past which the next event triggers a sample
        #: (never, without a sampler).
        self._next_sample = (0.0 if sample_interval is not None
                             else float("inf"))
        self._sampling = False
        #: The standalone clock set by :meth:`attach_clock` (else None):
        #: producers without a runtime stamp their events with it.
        self.clock = None
        #: thief place -> ``(worker, victim)`` pairs with an unresolved
        #: distributed steal request (a MultiStealWS thief has several).
        self._outstanding: Dict[int, Set[Tuple[int, int]]] = {}

    # -- wiring ------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether the bus is attached to a runtime."""
        return self.rt is not None

    def subscribe(self, sink: Sink) -> Sink:
        """Add a sink (returned for chaining).

        Subscribing after :meth:`attach` is allowed — the sink is opened
        immediately — but events emitted before the subscription are
        gone; subscribe first when you need the full stream.
        """
        self._sinks.append(sink)
        self._routes = {
            kind: tuple(sub for sub in self._sinks
                        if sub.consumes is None or kind in sub.consumes)
            for kind in EVENT_SCHEMA}
        if self.rt is not None or self.clock is not None:
            sink.open(self, self.rt)
        return sink

    def attach(self, rt: "SimRuntime") -> "EventBus":
        """Install the bus into ``rt``.  **No-op when no sinks subscribed.**"""
        if rt._started:
            raise ConfigError("attach the event bus before running")
        if not self._sinks:
            return self  # zero sinks: zero hooks, zero overhead
        if rt.obs is not None:
            raise ConfigError("runtime already has an event bus")
        if self.rt is not None:
            raise ConfigError("event bus already attached to a runtime")
        if self.clock is not None:
            raise ConfigError("event bus is in standalone (clock) mode")
        self.rt = rt
        rt.obs = self
        rt.network.obs = self
        for sink in self._sinks:
            sink.open(self, rt)
        return self

    def attach_clock(self, clock=None) -> "EventBus":
        """Use the bus *standalone* — no runtime, host-clock timestamps.

        For harness-side event sources (the experiment store's lease /
        reaper lifecycle) where there is no simulated clock.  Only sinks
        that ignore the runtime in ``open`` make sense here (``InMemory``
        and ``Jsonl``; the Chrome sink needs a runtime's cost model).
        ``clock`` defaults to ``time.time``.
        """
        import time

        if self.rt is not None:
            raise ConfigError("bus already attached to a runtime")
        if self.clock is not None:
            raise ConfigError("bus already has a standalone clock")
        if self.sample_interval is not None:
            # The sampler reads the runtime's places; there are none.
            raise ConfigError("a standalone bus cannot sample: "
                              "construct it without sample_interval")
        self.clock = clock if clock is not None else time.time
        for sink in self._sinks:
            sink.open(self, None)
        return self

    # -- emission ----------------------------------------------------------
    def emit_at(self, t: float, kind: str,
                fields: Dict[str, object]) -> None:
        """Check, count and route one event stamped ``t``.

        The one emission entry point, called when :meth:`tally` declined
        the event.  Counts and outstanding-steal tracking run for every
        dispatched event; an :class:`ObsEvent` is built only when some
        sink consumes ``kind``.  ``t`` may lie ahead of the clock: the
        collapsed steal round replays its events before sleeping to them.
        """
        names = _FIELD_SETS.get(kind)
        if names is None:
            raise ConfigError(f"unknown event kind {kind!r}")
        if fields.keys() != names:
            raise ConfigError(
                f"event {kind!r} fields {sorted(fields)} do not match "
                f"schema {list(EVENT_SCHEMA[kind])}")
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if kind in _STEAL_LIFECYCLE:
            place = fields["place"]
            key = (fields["worker"], fields["victim"])
            if kind == "steal_request":
                self._outstanding.setdefault(place, set()).add(key)  # type: ignore[arg-type]
            else:
                self._outstanding.get(place, set()).discard(key)  # type: ignore[arg-type]
        sinks = self._routes[kind]
        if sinks:
            ev = ObsEvent(t, kind, fields)
            for sink in sinks:
                sink.on_event(ev)
        if t >= self._next_sample and not self._sampling:
            self._sample(t)

    def tally(self, kind: str, t_last: float, n: int = 1) -> bool:
        """Count ``n`` events of ``kind``, the last stamped ``t_last``,
        when they are count-only; return whether they were counted.

        The one definition of count-only: no sink reads the kind, it
        moves no outstanding-steal ledger, and none of the events would
        trigger a sample.  Every emission site calls this first;
        otherwise nothing is counted and the caller dispatches each
        event through :meth:`emit_at`.
        """
        routes = self._routes.get(kind)
        if routes is None:
            raise ConfigError(f"unknown event kind {kind!r}")
        if (routes or kind in _STEAL_LIFECYCLE
                or t_last >= self._next_sample):
            return False
        self.counts[kind] = self.counts.get(kind, 0) + n
        return True

    def _sample(self, now: float) -> None:
        """Emit one ``sample`` event per place (re-entrancy guarded)."""
        self._sampling = True
        try:
            self._next_sample = now + self.sample_interval
            for place in self.rt.places:
                if not self.tally("sample", now):
                    self.emit_at(now, "sample", {
                        "place": place.place_id,
                        "private": place.queued_private(),
                        "shared": len(place.shared),
                        "mailbox": len(place.mailbox),
                        "outstanding": len(
                            self._outstanding.get(place.place_id, ()))})
        finally:
            self._sampling = False

    # -- run end -----------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Deterministic summary merged into ``RunStats.snapshot()["obs"]``.

        Event counts by kind, plus one block per sink that exposes a
        ``stats_key`` (the metrics registry reports under ``"metrics"``).
        """
        snap: Dict[str, object] = {
            "events": {k: self.counts[k] for k in sorted(self.counts)},
        }
        for sink in self._sinks:
            key = sink.stats_key
            if key is not None:
                snap[key] = sink.snapshot()
        return snap

    def close(self) -> None:
        """Flush and close every sink (called by the runtime at run end)."""
        for sink in self._sinks:
            sink.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "attached" if self.active else "detached"
        return f"<EventBus {state} sinks={len(self._sinks)}>"
