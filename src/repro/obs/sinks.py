"""Event sinks: where bus events flow.

Three concrete sinks ship with the library:

- :class:`InMemorySink` — keeps every event in a list (tests, ad-hoc
  analysis);
- :class:`JsonlSink` — streams one compact JSON object per line, fields
  in schema order (archivable, diffable, byte-deterministic for a fixed
  seed);
- :class:`ChromeTraceSink` — writes the Chrome trace-event format
  (load the file in ``chrome://tracing`` or https://ui.perfetto.dev):
  one *process* row per place, one *thread* lane per worker, tasks as
  complete ("X") slices, steals/faults as instants, queue depths as
  counter tracks.

Write your own by subclassing :class:`Sink`: ``open`` is called at
attach time (runtime available for clock/topology metadata),
``on_event`` per event, ``close`` once at run end.  A sink that sets
``stats_key`` contributes a block to ``RunStats.snapshot()["obs"]`` via
its ``snapshot()``.  A sink that reads only some event kinds declares
them in ``consumes``; the bus then never builds or delivers the others
to it.  Read an event's time from ``ev.t``, never from the runtime's
clock: the collapsed steal round delivers its replayed events before
the clock reaches their stamps.
"""

from __future__ import annotations

import json
from typing import IO, TYPE_CHECKING, Dict, FrozenSet, List, Optional

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.bus import EventBus
    from repro.obs.events import ObsEvent
    from repro.runtime.runtime import SimRuntime


class Sink:
    """Base class for event consumers."""

    #: Key under which :meth:`snapshot` is merged into the run snapshot's
    #: ``"obs"`` block; ``None`` opts out.
    stats_key: Optional[str] = None
    #: Event kinds :meth:`on_event` reads; the bus routes only these to
    #: the sink.  ``None`` (the default) delivers every kind.
    consumes: Optional[FrozenSet[str]] = None

    def open(self, bus: "EventBus", rt: "SimRuntime") -> None:
        """Called once when the bus attaches to a runtime."""

    def on_event(self, ev: "ObsEvent") -> None:
        """Called for every emitted event of a kind in :attr:`consumes`."""
        raise NotImplementedError

    def close(self) -> None:
        """Called once at run end; flush buffers and release files here."""

    def snapshot(self) -> Dict[str, object]:
        """Deterministic summary (only consulted when ``stats_key`` set)."""
        return {}


class InMemorySink(Sink):
    """Collects every event in order (tests and interactive use).

    Kept: the test fake that the event-tally oracles subscribe.
    """

    def __init__(self) -> None:
        self.events: List["ObsEvent"] = []

    def on_event(self, ev: "ObsEvent") -> None:
        self.events.append(ev)

    def kinds(self) -> List[str]:
        """Distinct event kinds seen, in first-seen order."""
        seen: Dict[str, None] = {}
        for ev in self.events:
            seen.setdefault(ev.kind, None)
        return list(seen)


class JsonlSink(Sink):
    """Streams events as JSON Lines, one compact object per event.

    Field order follows the event schema, so two identically-seeded runs
    produce byte-identical streams (the determinism test asserts this).
    Pass either a ``path`` (file opened at attach, closed at run end) or
    an already-open ``stream`` (left open; useful with ``io.StringIO``).
    """

    def __init__(self, path: Optional[str] = None,
                 stream: Optional[IO[str]] = None) -> None:
        if (path is None) == (stream is None):
            raise ConfigError("JsonlSink needs exactly one of path/stream")
        self.path = path
        self._stream = stream
        self._owns_stream = False
        self.lines_written = 0

    def open(self, bus: "EventBus", rt: "SimRuntime") -> None:
        if self.path is not None and self._stream is None:
            self._stream = open(self.path, "w")
            self._owns_stream = True

    def on_event(self, ev: "ObsEvent") -> None:
        self._stream.write(ev.to_json())
        self._stream.write("\n")
        self.lines_written += 1

    def close(self) -> None:
        if self._stream is not None:
            self._stream.flush()
            if self._owns_stream:
                self._stream.close()
                self._stream = None


class ChromeTraceSink(Sink):
    """Exports the run in the Chrome trace-event JSON format.

    Layout: ``pid`` = place (one process row per place, named
    ``place N``), ``tid`` = worker index (one thread lane per worker).
    Timestamps are microseconds, converted with the runtime cost model's
    clock (``cycles_per_ms``), so the x-axis reads as real time on the
    simulated platform.  Emitted records:

    - every completed task as a complete ("X") slice on its executing
      worker's lane;
    - distributed steal requests and chunk arrivals as instant events on
      the thief's lane;
    - fault-injection actions as process-scoped instants;
    - per-place queue depths and outstanding steal requests as counter
      ("C") tracks, when the bus's sampler is enabled.
    """

    consumes = frozenset(("task_end", "steal_request", "chunk_arrive",
                          "fault", "sample"))

    def __init__(self, path: str) -> None:
        self.path = path
        self._events: List[Dict[str, object]] = []
        self._cycles_per_us = 1.0
        self._written = False

    def open(self, bus: "EventBus", rt: "SimRuntime") -> None:
        self._cycles_per_us = rt.costs.cycles_per_ms / 1000.0
        for p in range(rt.spec.n_places):
            self._meta(p, 0, "process_name", {"name": f"place {p}"})
            self._meta(p, 0, "process_sort_index", {"sort_index": p})
            for w in range(rt.spec.workers_per_place):
                self._meta(p, w, "thread_name", {"name": f"worker {w}"})
                self._meta(p, w, "thread_sort_index", {"sort_index": w})

    def _meta(self, pid: int, tid: int, name: str,
              args: Dict[str, object]) -> None:
        self._events.append({"name": name, "ph": "M", "pid": pid,
                             "tid": tid, "args": args})

    def _us(self, cycles: float) -> float:
        return cycles / self._cycles_per_us

    def on_event(self, ev: "ObsEvent") -> None:
        f = ev.fields
        if ev.kind == "task_end":
            self._events.append({
                "name": f["label"] or f"task-{f['task']}",
                "cat": "task", "ph": "X",
                "ts": self._us(f["start"]),
                "dur": self._us(ev.t - f["start"]),
                "pid": f["place"], "tid": f["worker"],
                "args": {"task": f["task"], "home": f["home"],
                         "stolen": f["stolen"],
                         "flexible": f["flexible"]},
            })
        elif ev.kind == "steal_request":
            self._events.append({
                "name": "steal_request", "cat": "steal", "ph": "i",
                "ts": self._us(ev.t), "pid": f["place"],
                "tid": f["worker"], "s": "t",
                "args": {"victim": f["victim"]},
            })
        elif ev.kind == "chunk_arrive":
            self._events.append({
                "name": "chunk_arrive", "cat": "steal", "ph": "i",
                "ts": self._us(ev.t), "pid": f["place"],
                "tid": f["worker"], "s": "t",
                "args": {"victim": f["victim"], "tasks": f["tasks"],
                         "latency_cycles": f["latency"]},
            })
        elif ev.kind == "fault":
            self._events.append({
                "name": f"fault:{f['what']}", "cat": "fault", "ph": "i",
                "ts": self._us(ev.t), "pid": max(int(f["place"]), 0),
                "tid": 0, "s": "p",
                "args": {"place": f["place"], "detail": f["detail"]},
            })
        elif ev.kind == "sample":
            self._events.append({
                "name": "queue depth", "ph": "C",
                "ts": self._us(ev.t), "pid": f["place"], "tid": 0,
                "args": {"private": f["private"], "shared": f["shared"],
                         "mailbox": f["mailbox"]},
            })
            self._events.append({
                "name": "outstanding steals", "ph": "C",
                "ts": self._us(ev.t), "pid": f["place"], "tid": 0,
                "args": {"requests": f["outstanding"]},
            })

    def close(self) -> None:
        if self._written:
            return
        with open(self.path, "w") as fh:
            json.dump({"traceEvents": self._events,
                       "displayTimeUnit": "ms"}, fh)
        self._written = True
