"""Metrics registry: histograms, time series, snapshot diffing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterSpec
from repro.obs import (
    HISTOGRAM_NAMES,
    EventBus,
    Histogram,
    MetricsRegistry,
    TimeSeries,
    diff_snapshots,
    flatten,
    max_regression_pct,
)
from repro.runtime.runtime import SimRuntime
from repro.sched import make_scheduler

from tests.faults.conftest import fanout_program


class TestHistogram:
    def test_empty(self):
        h = Histogram()
        assert h.count == 0
        assert h.mean == 0.0
        assert h.percentile(0.5) == 0.0
        snap = h.snapshot()
        assert snap["count"] == 0 and snap["buckets"] == []

    def test_exact_stats(self):
        h = Histogram()
        for v in (1, 10, 100):
            h.record(v)
        assert h.count == 3
        assert h.min == 1 and h.max == 100
        assert h.mean == pytest.approx(37.0)

    def test_log2_bucketing(self):
        h = Histogram()
        for v in (3, 4, 5):
            h.record(v)
        buckets = dict(h.snapshot()["buckets"])
        assert buckets == {4.0: 2, 8.0: 1}  # 3,4 -> <=4; 5 -> <=8

    def test_nonpositive_values_bucket_zero(self):
        h = Histogram()
        h.record(0)
        h.record(-7)
        buckets = dict(h.snapshot()["buckets"])
        assert buckets == {0.0: 2}
        assert h.min == -7

    def test_percentile_bounded_by_max(self):
        h = Histogram()
        for v in (100, 200, 900):
            h.record(v)
        # p99 falls in the 1024-bucket but can never exceed the true max.
        assert h.percentile(0.99) == 900
        assert h.percentile(0.01) <= h.percentile(0.99)

    def test_percentile_extremes_are_exact(self):
        # Regression: p0 used to report the first occupied bucket's
        # upper bound (an octave above the true minimum).
        h = Histogram()
        for v in (3, 40, 500):
            h.record(v)
        assert h.percentile(0.0) == 3
        assert h.percentile(1.0) == 500
        # Out-of-range quantiles clamp to the same exact extremes.
        assert h.percentile(-0.5) == 3
        assert h.percentile(1.5) == 500

    def test_percentiles_monotone_in_q(self):
        h = Histogram()
        for v in (1, 2, 4, 8, 16, 900):
            h.record(v)
        qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
        ps = [h.percentile(q) for q in qs]
        assert ps == sorted(ps)
        assert ps[0] == h.min and ps[-1] == h.max


def histogram_from(values):
    h = Histogram()
    for v in values:
        h.record(v)
    return h


# Integer-valued floats keep count/sum/min/max bit-exact under any
# merge order (float addition is associative on exactly-representable
# integers of this size).
hist_values = st.lists(
    st.integers(min_value=-(2 ** 20), max_value=2 ** 20).map(float),
    max_size=40)


class TestHistogramMerge:
    def test_merge_empty_is_identity(self):
        h = histogram_from([5, 9])
        before = h.snapshot()
        h.merge(Histogram())
        assert h.snapshot() == before
        e = Histogram()
        e.merge(h)
        assert e.snapshot() == h.snapshot()

    def test_merge_returns_self(self):
        h = Histogram()
        assert h.merge(histogram_from([1])) is h

    def test_from_snapshot_roundtrip(self):
        h = histogram_from([3, 40, 500, -2, 0])
        rebuilt = Histogram.from_snapshot(h.snapshot())
        assert rebuilt.snapshot() == h.snapshot()

    @settings(max_examples=60, deadline=None)
    @given(a=hist_values, b=hist_values)
    def test_merge_matches_single_stream(self, a, b):
        merged = histogram_from(a).merge(histogram_from(b))
        combined = histogram_from(a + b)
        assert merged.snapshot() == combined.snapshot()

    @settings(max_examples=60, deadline=None)
    @given(a=hist_values, b=hist_values)
    def test_merge_commutative(self, a, b):
        ab = histogram_from(a).merge(histogram_from(b))
        ba = histogram_from(b).merge(histogram_from(a))
        assert ab.snapshot() == ba.snapshot()

    @settings(max_examples=60, deadline=None)
    @given(a=hist_values, b=hist_values, c=hist_values)
    def test_merge_associative(self, a, b, c):
        left = histogram_from(a).merge(
            histogram_from(b).merge(histogram_from(c)))
        right = histogram_from(a).merge(
            histogram_from(b)).merge(histogram_from(c))
        assert left.snapshot() == right.snapshot()

    @settings(max_examples=60, deadline=None)
    @given(a=hist_values, b=hist_values)
    def test_merge_count_sum_min_max_exact(self, a, b):
        merged = histogram_from(a).merge(histogram_from(b))
        both = a + b
        assert merged.count == len(both)
        assert merged.total == sum(both)
        if both:
            assert merged.min == min(both)
            assert merged.max == max(both)


class TestTimeSeries:
    def test_records_in_order(self):
        s = TimeSeries()
        for i in range(10):
            s.record(float(i), float(i * i))
        assert s.snapshot() == [[float(i), float(i * i)]
                                for i in range(10)]

    def test_decimation_bounds_memory(self):
        s = TimeSeries(max_points=64)
        for i in range(10_000):
            s.record(float(i), 1.0)
        assert len(s.points) < 64
        # Retained points stay ordered and uniformly strided.
        ts = [t for t, _ in s.points]
        assert ts == sorted(ts)

    def test_decimation_deterministic(self):
        def fill():
            s = TimeSeries(max_points=32)
            for i in range(5_000):
                s.record(float(i), float(i % 7))
            return s.snapshot()
        assert fill() == fill()

    def test_stride_doubles_exactly_at_max_points(self):
        s = TimeSeries(max_points=16)
        for i in range(15):
            s.record(float(i), 0.0)
        # One short of the cap: everything retained, stride untouched.
        assert len(s.points) == 15 and s._stride == 1
        s.record(15.0, 0.0)
        # Hitting the cap halves the stored points and doubles the
        # input stride in the same record call.
        assert len(s.points) == 8 and s._stride == 2
        assert [t for t, _ in s.points] == [float(i)
                                            for i in range(0, 16, 2)]

    def test_post_decimation_points_align_with_stride(self):
        s = TimeSeries(max_points=16)
        for i in range(64):
            s.record(float(i), float(i))
        # Every retained timestamp is a multiple of the final stride.
        assert s._stride > 1
        assert all(t % s._stride == 0 for t, _ in s.points)

    def test_equal_streams_retain_identical_points(self):
        def fill(n, cap):
            s = TimeSeries(max_points=cap)
            for i in range(n):
                s.record(float(i) * 0.5, float(i % 11))
            return s.snapshot()
        for n in (15, 16, 17, 31, 32, 33, 1000):
            assert fill(n, 16) == fill(n, 16)

    def test_min_cap_floor(self):
        s = TimeSeries(max_points=1)  # floors to 8
        assert s.max_points == 8
        for i in range(100):
            s.record(float(i), 1.0)
        assert len(s.points) < 8


def observed_run():
    rt = SimRuntime(
        ClusterSpec(n_places=4, workers_per_place=2, max_threads=4),
        make_scheduler("DistWS"), seed=7)
    bus = EventBus(sample_interval=100_000)
    metrics = bus.subscribe(MetricsRegistry())
    bus.attach(rt)
    stats = rt.run(fanout_program(24, work=500_000, n_places=4))
    return metrics, stats


class TestMetricsRegistry:
    def test_all_histograms_always_present(self):
        metrics, _ = observed_run()
        snap = metrics.snapshot()
        assert set(snap["histograms"]) == set(HISTOGRAM_NAMES)

    def test_granularity_counts_every_task(self):
        metrics, stats = observed_run()
        h = metrics.histograms["task_granularity_cycles"]
        assert h.count == stats.tasks_executed
        assert h.total == pytest.approx(stats.work_sum_cycles)

    def test_steal_latency_matches_remote_hits(self):
        metrics, stats = observed_run()
        h = metrics.histograms["steal_latency_cycles"]
        assert h.count == stats.steals.remote_hits
        if h.count:
            assert h.min > 0  # a steal can never resolve instantly

    def test_chunk_sizes_bounded_by_chunk_size(self):
        metrics, stats = observed_run()
        h = metrics.histograms["chunk_tasks"]
        assert h.count == stats.steals.remote_hits
        if h.count:
            assert 1 <= h.min and h.max <= 2  # remote_chunk_size

    def test_queue_depth_series_per_place(self):
        metrics, _ = observed_run()
        for p in range(4):
            for suffix in ("private", "shared", "mailbox",
                           "outstanding_steals"):
                assert f"p{p}.{suffix}" in metrics.series

    def test_snapshot_in_run_stats(self):
        _, stats = observed_run()
        block = stats.snapshot()["obs"]["metrics"]
        assert set(block) == {"histograms", "series"}


class TestDiff:
    def test_flatten_paths(self):
        flat = flatten({"a": {"b": 1, "c": [2, {"d": 3}]}, "e": "x"})
        assert flat == {"a.b": 1, "a.c[0]": 2, "a.c[1].d": 3, "e": "x"}

    def test_identical_snapshots_no_rows(self):
        snap = {"x": 1, "y": [1, 2]}
        assert diff_snapshots(snap, snap) == []

    def test_numeric_delta_and_pct(self):
        rows = diff_snapshots({"n": 100}, {"n": 110})
        assert len(rows) == 1
        assert rows[0].delta == pytest.approx(10)
        assert rows[0].pct == pytest.approx(10.0)

    def test_missing_and_nonnumeric_leaves(self):
        rows = diff_snapshots({"a": 1, "s": "x"}, {"b": 2, "s": "y"})
        by_key = {r.key: r for r in rows}
        assert by_key["a"].cand is None and by_key["a"].delta is None
        assert by_key["b"].base is None
        assert by_key["s"].delta is None

    def test_max_regression_pct(self):
        rows = diff_snapshots({"a": 100, "b": 10}, {"a": 99, "b": 13})
        assert max_regression_pct(rows) == pytest.approx(30.0)
        assert max_regression_pct([]) == 0.0

    def test_zero_baseline_has_no_pct(self):
        rows = diff_snapshots({"n": 0}, {"n": 5})
        assert rows[0].delta == 5
        assert rows[0].pct is None
