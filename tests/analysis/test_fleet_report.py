"""Sweep report building blocks (`repro report`)."""

from __future__ import annotations

import json
import os

from repro.analysis.fleet_report import (
    perf_trajectory_rows,
    sweep_report_html,
    throughput_series,
    write_report,
)
from repro.cluster.topology import ClusterSpec
from repro.harness.db import ExperimentStore, TelemetryRow, drain
from repro.harness.parallel import RunSpec
from repro.obs.fleet import FleetTelemetry


def tel(key, owner, finished_at, wall=0.1, data=None):
    return TelemetryRow(key=key, owner=owner, attempt=1,
                        wall_seconds=wall, finished_at=finished_at,
                        trace_path=None, data=data or {})


class TestThroughputSeries:
    def test_empty(self):
        assert throughput_series([]) == ([], {})

    def test_cumulative_per_owner(self):
        rows = [tel("a", "w1", 0.0), tel("b", "w2", 10.0),
                tel("c", "w1", 20.0), tel("d", "w1", 30.0)]
        labels, series = throughput_series(rows, bins=3)
        assert len(labels) == 3
        assert series["w1"][-1] == 3.0 and series["w2"][-1] == 1.0
        # Cumulative: monotone non-decreasing.
        for vals in series.values():
            assert vals == sorted(vals)

    def test_single_row(self):
        labels, series = throughput_series([tel("a", "w1", 5.0)])
        assert len(labels) == 1 and series["w1"] == [1.0]


class FakeStoreRow:
    def __init__(self, key, payload):
        self.key = key
        self.payload = payload


class TestPerfTrajectory:
    def test_rows_per_app_scheduler(self):
        store_rows = [FakeStoreRow("k1", {"app": "uts",
                                          "scheduler": "DistWS"}),
                      FakeStoreRow("k2", {"app": "uts",
                                          "scheduler": "DistWS"})]
        tel_rows = [tel("k1", "w1", 0.0, wall=0.25),
                    tel("k2", "w2", 1.0, wall=0.75)]
        rows = perf_trajectory_rows(tel_rows, store_rows)
        assert rows == [["uts × DistWS", 2, 0.5, 2.0]]


def drained_store(tmp_path, **fleet_kw):
    spec_c = ClusterSpec(n_places=2, workers_per_place=2, max_threads=4)
    specs = [RunSpec.build("uts", "DistWS", spec_c, sched_seed=s,
                           scale="test") for s in (1, 2)]
    store = ExperimentStore(str(tmp_path / "s.db"))
    store.add_specs(specs)
    drain(store, owner="h:1:a", heartbeat_seconds=0.5,
          fleet=FleetTelemetry(**fleet_kw))
    return store


class TestSweepReport:
    def test_html_sections_present(self, tmp_path):
        store = drained_store(tmp_path)
        html = sweep_report_html(store, title="t")
        for section in ("Throughput timeline", "Metric rollups",
                        "Workers", "Perf trajectory"):
            assert section in html
        assert "<svg" in html
        assert "steal_latency_cycles" in html
        store.close()

    def test_empty_store_renders_placeholders(self, tmp_path):
        store = ExperimentStore(str(tmp_path / "empty.db"))
        html = sweep_report_html(store)
        assert "No telemetry shipped yet" in html
        assert "No workers have touched this store" in html
        store.close()

    def test_write_report_with_traces_and_bench(self, tmp_path):
        store = drained_store(tmp_path,
                              trace_dir=str(tmp_path / "traces"))
        out = str(tmp_path / "out")
        written = write_report(store, out)
        assert sorted(os.path.basename(p) for p in written) \
            == ["merged.trace.json", "report.html"]
        html = open(os.path.join(out, "report.html")).read()
        assert "uts × DistWS" in html  # perf-trajectory row
        doc = json.load(open(os.path.join(out, "merged.trace.json")))
        assert {e["pid"] for e in doc["traceEvents"]} == {0}
        store.close()

    def test_write_report_missing_bench_is_fine(self, tmp_path):
        store = drained_store(tmp_path)
        out = str(tmp_path / "out")
        written = write_report(store, out)
        assert [os.path.basename(p) for p in written] == ["report.html"]
        store.close()
