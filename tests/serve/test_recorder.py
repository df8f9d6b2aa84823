"""Tests for the latency recorder and serve report format."""

from __future__ import annotations

import json
import xml.dom.minidom

import pytest

from repro.serve.recorder import (
    LatencyRecorder,
    build_report,
    exact_percentile,
    render,
    report_svg,
    to_json,
)


def loaded_recorder() -> LatencyRecorder:
    rec = LatencyRecorder()
    for i in range(100):
        rec.record("sticky", "ok", latency_s=(i + 1) / 1000.0, warm=True)
    for i in range(50):
        rec.record("flex", "ok", latency_s=(i + 1) / 500.0, warm=False)
    for _ in range(10):
        rec.record("flex", "shed")
    rec.record("sticky", "failed")
    return rec


def make_cell(name: str = "poisson|selective|4x2") -> dict:
    return loaded_recorder().cell(name, {"balancer": "selective"},
                                  duration_s=10.0, wall_seconds=11.5)


class TestPercentiles:
    def test_exact_nearest_rank(self):
        xs = sorted(float(i) for i in range(1, 101))
        assert exact_percentile(xs, 0.50) == 50.0
        assert exact_percentile(xs, 0.90) == 90.0
        assert exact_percentile(xs, 0.99) == 99.0
        assert exact_percentile(xs, 1.00) == 100.0

    def test_empty_and_single(self):
        assert exact_percentile([], 0.99) == 0.0
        assert exact_percentile([7.0], 0.5) == 7.0
        assert exact_percentile([7.0], 0.99) == 7.0

    def test_small_sample_takes_ceiling_rank(self):
        assert exact_percentile([1.0, 2.0], 0.99) == 2.0
        assert exact_percentile([1.0, 2.0, 3.0], 0.5) == 2.0


class TestRecorder:
    def test_latency_blocks_split_by_class(self):
        rec = loaded_recorder()
        sticky = rec.latency_block("sticky")
        flexb = rec.latency_block("flex")
        allb = rec.latency_block("all")
        assert sticky["count"] == 100 and flexb["count"] == 50
        assert allb["count"] == 150
        assert sticky["p50"] == pytest.approx(50.0)
        assert sticky["p99"] == pytest.approx(99.0)
        assert flexb["p50"] == pytest.approx(50.0)
        assert flexb["max"] == pytest.approx(100.0)
        assert allb["max"] == pytest.approx(100.0)

    def test_counters_and_goodput(self):
        rec = loaded_recorder()
        req = rec.requests_block()
        assert req["offered"] == 161
        assert req["ok"] == 150 and req["shed"] == 10
        assert req["failed"] == 1
        assert req["warm"] == 100 and req["cold"] == 50
        assert rec.goodput_rps(10.0) == pytest.approx(15.0)

    def test_histograms_mirror_samples(self):
        rec = loaded_recorder()
        assert rec.histograms["all"].count == 150
        assert rec.histograms["sticky"].count == 100
        # Octave buckets and exact samples agree on the mean.
        assert rec.histograms["sticky"].mean == pytest.approx(
            rec.latency_block("sticky")["mean"], rel=0.5)

    def test_shed_has_no_latency_sample(self):
        rec = LatencyRecorder()
        rec.record("flex", "shed")
        assert rec.latency_block("all")["count"] == 0


class TestReport:
    def test_bench_shape(self):
        report = build_report([make_cell()])
        assert report["schema"] == 1
        assert report["benchmark"] == "serve"
        assert report["calibration_ops_per_sec"] > 0
        assert report["total_wall_seconds"] == pytest.approx(11.5)
        cell = report["cells"][0]
        assert set(cell) == {"cell", "config", "requests", "latency_ms",
                             "goodput_rps", "histograms", "counters",
                             "wall_seconds"}

    def test_json_roundtrip(self):
        report = build_report([make_cell()])
        assert json.loads(to_json(report)) == report

    def test_render_mentions_cells(self):
        out = render(build_report([make_cell("a"), make_cell("b")]))
        assert "a" in out and "b" in out and "p99" in out

    def test_svg_well_formed(self):
        svg = report_svg(build_report([make_cell("selective"),
                                       make_cell("round-robin")]))
        dom = xml.dom.minidom.parseString(svg)
        assert dom.documentElement.tagName == "svg"
        assert "selective" in svg and "round-robin" in svg
