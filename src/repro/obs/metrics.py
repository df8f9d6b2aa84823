"""Metrics on top of the event bus: what flat counters can't express.

:class:`MetricsRegistry` is a sink that derives distribution-shaped
observables from the event stream:

- **histograms** (log₂-bucketed, deterministic): distributed steal
  latency (steal request → chunk arrival, the key observable of Gast et
  al., arXiv:1805.00857), task granularity, stolen chunk sizes, and
  mailbox dwell time;
- **sampled time series**: per-place private/shared/mailbox queue depth
  and outstanding distributed steal requests, fed by the bus's sampler
  (``EventBus(sample_interval=...)``).

Everything is surfaced through ``RunStats.snapshot()["obs"]["metrics"]``
(deterministically ordered, JSON-safe) and ``repro run``'s observer flags.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.obs.sinks import Sink

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.bus import EventBus
    from repro.obs.events import ObsEvent
    from repro.runtime.runtime import SimRuntime

#: Histograms the registry always carries (empty ones stay in the
#: snapshot so its key set is run-independent).
HISTOGRAM_NAMES = (
    "steal_latency_cycles",
    "task_granularity_cycles",
    "chunk_tasks",
    "mailbox_dwell_cycles",
)


class Histogram:
    """Log₂-bucketed histogram with exact count/sum/min/max.

    Values land in buckets keyed by their power-of-two upper bound
    (``v <= bound < 2v``); non-positive values share the ``0`` bucket.
    Percentiles are estimated as the upper bound of the bucket where the
    cumulative count crosses the rank — a deterministic, allocation-free
    over-approximation that is exact to within one octave.
    """

    __slots__ = ("count", "total", "min", "max", "_buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = 0.0
        self.max = 0.0
        self._buckets: Dict[float, int] = {}

    def record(self, value: float) -> None:
        value = float(value)
        if self.count == 0:
            self.min = self.max = value
        else:
            self.min = min(self.min, value)
            self.max = max(self.max, value)
        self.count += 1
        self.total += value
        bound = 0.0
        if value > 0.0:
            bound = 1.0
            while bound < value:
                bound *= 2.0
        self._buckets[bound] = self._buckets.get(bound, 0) + 1

    @property
    def mean(self) -> float:
        """Exact arithmetic mean (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Bucket-resolution percentile estimate, ``q`` in [0, 1].

        The extremes are exact: ``percentile(0.0)`` is the recorded
        minimum (not the first occupied bucket's upper bound, which
        over-reports it by up to an octave) and ``percentile(1.0)`` is
        the recorded maximum.
        """
        if not self.count:
            return 0.0
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        rank = q * self.count
        cum = 0
        for bound in sorted(self._buckets):
            cum += self._buckets[bound]
            if cum >= rank:
                return min(bound, self.max)
        return self.max

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram in place (returns self).

        Log₂ buckets are value-determined, so identical values land in
        identical buckets in every process — merging is exact: bucket
        counts add, and count/sum/min/max equal those of one histogram
        fed both input streams.  This is what makes per-run telemetry
        snapshots aggregable into fleet-wide distributions.
        """
        if other.count == 0:
            return self
        if self.count == 0:
            self.min, self.max = other.min, other.max
        else:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
        self.count += other.count
        self.total += other.total
        for bound, n in other._buckets.items():
            self._buckets[bound] = self._buckets.get(bound, 0) + n
        return self

    @classmethod
    def from_snapshot(cls, snap: Dict[str, object]) -> "Histogram":
        """Rebuild a histogram from its :meth:`snapshot` dict.

        The snapshot carries exact count/sum/min/max and every bucket,
        so ``from_snapshot(h.snapshot())`` is lossless — the round trip
        is what lets archived telemetry rows merge into rollups.
        """
        h = cls()
        h.count = int(snap["count"])  # type: ignore[arg-type]
        h.total = float(snap["sum"])  # type: ignore[arg-type]
        h.min = float(snap["min"])  # type: ignore[arg-type]
        h.max = float(snap["max"])  # type: ignore[arg-type]
        h._buckets = {float(bound): int(n)
                      for bound, n in snap["buckets"]}  # type: ignore[union-attr]
        return h

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict view, deterministically ordered."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            "buckets": [[bound, self._buckets[bound]]
                        for bound in sorted(self._buckets)],
        }


class TimeSeries:
    """Bounded ``(t, value)`` series with deterministic decimation.

    When the series fills to ``max_points`` it drops every other stored
    point and doubles its input stride, so memory stays bounded while
    the retained points remain a uniform, reproducible subsample.
    """

    __slots__ = ("points", "max_points", "_stride", "_seen")

    def __init__(self, max_points: int = 2048) -> None:
        self.points: List[Tuple[float, float]] = []
        self.max_points = max(8, int(max_points))
        self._stride = 1
        self._seen = 0

    def record(self, t: float, value: float) -> None:
        if self._seen % self._stride == 0:
            self.points.append((t, value))
            if len(self.points) >= self.max_points:
                self.points = self.points[::2]
                self._stride *= 2
        self._seen += 1

    def snapshot(self) -> List[List[float]]:
        """JSON-safe ``[[t, value], ...]`` view."""
        return [[t, v] for t, v in self.points]


class MetricsRegistry(Sink):
    """Derives histograms and time series from the event stream."""

    stats_key = "metrics"
    consumes = frozenset(("task_end", "chunk_arrive", "mailbox_put",
                          "mailbox_get", "sample", "knob_update"))

    def __init__(self, series_max_points: int = 2048) -> None:
        self.histograms: Dict[str, Histogram] = {
            name: Histogram() for name in HISTOGRAM_NAMES}
        self.series: Dict[str, TimeSeries] = {}
        self._series_max_points = series_max_points
        #: task id -> mailbox deposit time (for dwell).
        self._mailbox_enter: Dict[int, float] = {}

    # -- event handling ----------------------------------------------------
    def on_event(self, ev: "ObsEvent") -> None:
        f = ev.fields
        kind = ev.kind
        if kind == "task_end":
            self.histograms["task_granularity_cycles"].record(f["work"])
        elif kind == "chunk_arrive":
            self.histograms["steal_latency_cycles"].record(f["latency"])
            self.histograms["chunk_tasks"].record(f["tasks"])
        elif kind == "mailbox_put":
            self._mailbox_enter[f["task"]] = ev.t
        elif kind == "mailbox_get":
            entered = self._mailbox_enter.pop(f["task"], None)
            if entered is not None:
                self.histograms["mailbox_dwell_cycles"].record(
                    ev.t - entered)
        elif kind == "sample":
            p = f["place"]
            self._record_series(f"p{p}.private", ev.t, f["private"])
            self._record_series(f"p{p}.shared", ev.t, f["shared"])
            self._record_series(f"p{p}.mailbox", ev.t, f["mailbox"])
            self._record_series(f"p{p}.outstanding_steals", ev.t,
                                f["outstanding"])
        elif kind == "knob_update":
            # Online-controller adjustments (repro.tune): one series per
            # knob (suffixed with the place for per-place knobs).
            p = f["place"]
            suffix = "" if p < 0 else f".p{p}"
            self._record_series(f"knob.{f['name']}{suffix}", ev.t,
                                f["value"])

    def _record_series(self, name: str, t: float, value: float) -> None:
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = TimeSeries(
                self._series_max_points)
        series.record(t, value)

    # -- reporting ---------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Deterministic plain-dict block for the run snapshot."""
        return {
            "histograms": {name: self.histograms[name].snapshot()
                           for name in sorted(self.histograms)},
            "series": {name: self.series[name].snapshot()
                       for name in sorted(self.series)},
        }

    def summary_rows(self) -> List[List[object]]:
        """Table rows (name, count, mean, p50, p90, max) for the CLI."""
        rows: List[List[object]] = []
        for name in sorted(self.histograms):
            h = self.histograms[name]
            rows.append([name, h.count, round(h.mean, 1),
                        h.percentile(0.5), h.percentile(0.9), h.max])
        return rows
