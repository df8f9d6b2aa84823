"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "quicksort" in out
        assert "DistWS" in out
        assert "fig6" in out

    def test_run(self, capsys):
        code = main(["run", "--app", "uts", "--scale", "test",
                     "--places", "2", "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tasks_executed" in out

    def test_trace_with_json(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        code = main(["run", "--app", "uts", "--scale", "test",
                     "--places", "2", "--workers", "2",
                     "--trace-json", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "parallelism" in out
        assert "uts under DistWS" in out  # the place timeline
        assert "total tasks executed away from home" in out  # steal flow
        assert "metric histograms" not in out  # the recorder alone
        data = json.loads(path.read_text())
        assert data["tasks"]

    def test_reproduce_unknown_artifact(self, capsys):
        assert main(["reproduce", "nosuch"]) == 2

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_profile_writes_artifacts(self, capsys, tmp_path):
        trace = tmp_path / "run.trace.json"
        events = tmp_path / "events.jsonl"
        snapshot = tmp_path / "snap.json"
        code = main(["run", "--app", "uts", "--scale", "test",
                     "--places", "2", "--workers", "2",
                     "--chrome-trace", str(trace),
                     "--events", str(events),
                     "--snapshot", str(snapshot)])
        assert code == 0
        out = capsys.readouterr().out
        assert "metric histograms" in out
        assert "event counts" in out
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        assert all(json.loads(line)
                   for line in events.read_text().splitlines())
        snap = json.loads(snapshot.read_text())
        assert "obs" in snap and "metrics" in snap["obs"]

    def test_diff_stats_identical(self, capsys, tmp_path):
        snap = tmp_path / "a.json"
        snap.write_text(json.dumps({"makespan_cycles": 5, "tasks": 3}))
        assert main(["diff-stats", str(snap), str(snap)]) == 0
        assert "no differences" in capsys.readouterr().out

    def test_diff_stats_fail_over(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"makespan_cycles": 100}))
        b.write_text(json.dumps({"makespan_cycles": 150}))
        assert main(["diff-stats", str(a), str(b)]) == 0
        assert main(["diff-stats", str(a), str(b),
                     "--fail-over", "10"]) == 1
        assert main(["diff-stats", str(a), str(b),
                     "--fail-over", "60"]) == 0

    def test_profile_without_artifact_flags(self, capsys, tmp_path,
                                            monkeypatch):
        """``--sample-interval`` alone attaches the bus: tables are
        printed and nothing is written."""
        monkeypatch.chdir(tmp_path)
        code = main(["run", "--app", "uts", "--scale", "test",
                     "--places", "2", "--workers", "2",
                     "--sample-interval", "100000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "metric histograms" in out
        assert "event counts" in out
        assert "chrome trace written" not in out
        assert list(tmp_path.iterdir()) == []

    def test_bare_run_attaches_no_bus_and_writes_nothing(
            self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--app", "uts", "--scale", "test",
                     "--places", "2", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "metric histograms" not in out
        assert "event counts" not in out
        assert list(tmp_path.iterdir()) == []

    def test_snapshot_alone_attaches_the_bus(self, capsys, tmp_path):
        """The rule ``--snapshot``'s help states: on its own it attaches
        the event bus, so the snapshot carries its obs block."""
        snapshot = tmp_path / "snap.json"
        assert main(["run", "--app", "uts", "--scale", "test",
                     "--places", "2", "--workers", "2",
                     "--snapshot", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "metric histograms" in out
        assert list(tmp_path.iterdir()) == [snapshot]
        snap = json.loads(snapshot.read_text())
        assert snap["obs"]["metrics"]
        assert snap["obs"]["events"]["task_end"] == snap["tasks"]["executed"]

    def test_run_faulted_knobbed_observed_and_traced(self, capsys,
                                                     tmp_path):
        """One run takes every fault, knob, observer and trace flag."""
        trace = tmp_path / "run.trace.json"
        events = tmp_path / "events.jsonl"
        snapshot = tmp_path / "snap.json"
        trace_json = tmp_path / "trace.json"
        code = main(["run", "--app", "uts", "--scale", "test",
                     "--places", "2", "--workers", "2",
                     "--faults", "crash:p1@0.5",
                     "--sched-arg", "remote_chunk_size=4",
                     "--chrome-trace", str(trace),
                     "--events", str(events),
                     "--snapshot", str(snapshot),
                     "--trace-json", str(trace_json)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[calibration: fault-free makespan" in out
        assert "fault injection" in out
        assert "metric histograms" in out
        assert "critical chain" in out
        snap = json.loads(snapshot.read_text())
        assert snap["faults"]["places_crashed"] == [1]
        assert snap["faults"]["tasks_reexecuted"] > 0
        assert snap["obs"]["events"]["fault"] > 0
        assert snap["obs"]["metrics"]
        # Knobbed: a remote steal moves chunks of up to four tasks.
        chunks = snap["obs"]["metrics"]["histograms"]["chunk_tasks"]
        assert chunks["max"] == 4
        # The recorder joined the observers' bus: one record per task.
        tasks = json.loads(trace_json.read_text())["tasks"]
        assert len(tasks) == snap["obs"]["events"]["task_end"]
        assert {t["exec"] for t in tasks} == {0, 1}
        assert json.loads(trace.read_text())["traceEvents"]
        kinds = {json.loads(line)["kind"]
                 for line in events.read_text().splitlines()}
        assert {"fault", "task_end", "chunk_arrive"} <= kinds

    def test_run_scheduler_names_are_case_insensitive(self, capsys):
        assert main(["run", "--app", "uts", "--scale", "test",
                     "--places", "2", "--workers", "2",
                     "--scheduler", "distws"]) == 0
        assert "uts under DistWS" in capsys.readouterr().out
        assert main(["run", "--app", "uts", "--scale", "test",
                     "--scheduler", "TurboWS"]) == 2
        err = capsys.readouterr().err
        assert "error: unknown scheduler 'TurboWS'; known: [" in err
        assert "'X10WS'" in err
        assert "Traceback" not in err

    def test_diff_stats_nested_and_missing_keys(self, capsys, tmp_path):
        """Nested snapshots flatten to dotted keys; non-numeric or
        one-sided leaves diff without a pct and never trip --fail-over."""
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"steals": {"remote_hits": 10},
                                 "only_base": 5}))
        b.write_text(json.dumps({"steals": {"remote_hits": 12},
                                 "only_cand": 7}))
        assert main(["diff-stats", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "steals.remote_hits" in out
        assert "only_base" in out and "only_cand" in out
        # remote_hits regressed 20%; the one-sided keys have no pct.
        assert main(["diff-stats", str(a), str(b),
                     "--fail-over", "19"]) == 1
        assert main(["diff-stats", str(a), str(b),
                     "--fail-over", "21"]) == 0

    def test_diff_stats_fail_over_boundary_is_exclusive(self, capsys,
                                                        tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"makespan_cycles": 100}))
        b.write_text(json.dumps({"makespan_cycles": 110}))
        # Exactly at the threshold passes; only exceeding it fails.
        assert main(["diff-stats", str(a), str(b),
                     "--fail-over", "10"]) == 0
        assert main(["diff-stats", str(a), str(b),
                     "--fail-over", "9.9"]) == 1


class TestCliParallel:
    def test_reproduce_wires_context_flags(self, capsys, tmp_path,
                                           monkeypatch):
        """--parallel/--store install the execution context the
        artifact functions run under."""
        from types import SimpleNamespace

        from repro.harness import EXPERIMENTS, current_context

        observed = {}

        def fake(scale="bench", sched_kwargs=None):
            ctx = current_context()
            observed["parallel"] = ctx.parallel
            observed["stored"] = ctx.store is not None
            observed["scale"] = scale
            return SimpleNamespace(rendered="fake artifact body")

        monkeypatch.setitem(EXPERIMENTS, "fakeart", fake)
        code = main(["reproduce", "fakeart", "--scale", "test",
                     "--parallel", "2",
                     "--store", str(tmp_path / "sweep.db")])
        assert code == 0
        assert observed == {"parallel": 2, "stored": True,
                            "scale": "test"}
        out = capsys.readouterr().out
        assert "fake artifact body" in out
        assert "0 cells simulated here" in out

    def test_reproduce_warm_cache_skips_simulation(self, capsys,
                                                   tmp_path, monkeypatch):
        from types import SimpleNamespace

        from repro.cluster.topology import ClusterSpec
        from repro.harness import CellRequest, EXPERIMENTS, run_cells

        def tiny(scale="bench", sched_kwargs=None):
            cell = run_cells([CellRequest.build(
                "uts", "DistWS",
                ClusterSpec(n_places=2, workers_per_place=2,
                            max_threads=4),
                sched_seeds=(1,), scale="test")])[0]
            return SimpleNamespace(
                rendered=f"tasks={cell.runs[0].stats.tasks_executed}")

        monkeypatch.setitem(EXPERIMENTS, "tinyart", tiny)
        argv = ["reproduce", "tinyart",
                "--store", str(tmp_path / "sweep.db")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "1 cells simulated here, 1 done total]" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 cells simulated here, 1 done total]" in warm
        # The stored replay renders the identical artifact.
        assert [l for l in cold.splitlines() if l.startswith("tasks=")] \
            == [l for l in warm.splitlines() if l.startswith("tasks=")]

    def test_reproduce_rejects_nonpositive_parallel(self, capsys):
        with pytest.raises(SystemExit):
            main(["reproduce", "fig6", "--parallel", "0"])


class TestTuneCli:
    def test_list_shows_knob_tables(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "knobs (set with --sched-arg key=value" in out
        assert "remote_chunk_size" in out
        assert "attempts_per_round" in out

    def test_faults_calibrate_with_sched_args(self, capsys):
        """Fractional crash times resolve against the fault-free
        makespan of the *knobbed* scheduler, not the default one."""
        from repro.cluster.topology import ClusterSpec
        from repro.harness import RunSpec, current_context

        spec = ClusterSpec(n_places=4, workers_per_place=4, max_threads=8)
        want, = current_context().run_specs([RunSpec.build(
            "uts", "DistWS", spec, scale="test", validate=False,
            sched_kwargs={"remote_chunk_size": 8})])
        code = main(["run", "--app", "uts", "--scale", "test",
                     "--places", "4", "--workers", "4",
                     "--sched-arg", "remote_chunk_size=8",
                     "--faults", "crash:p1@0.9,policy:relax"])
        assert code == 0
        assert (f"[calibration: fault-free makespan "
                f"{want.stats.makespan_cycles:.0f} cycles]"
                in capsys.readouterr().out)

    def test_faults_calibration_replays_from_store(self, capsys, tmp_path,
                                                   monkeypatch):
        """``--store`` keeps the calibration and the faulted run itself:
        a repeat simulates nothing and prints the same bytes."""
        import repro.harness.parallel as parallel_mod
        from repro.harness.db import ExperimentStore

        store = str(tmp_path / "cal.db")
        argv = ["run", "--app", "uts", "--scale", "test",
                "--places", "2", "--workers", "2",
                "--faults", "crash:p1@0.5,policy:relax",
                "--store", store]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        with ExperimentStore(store) as s:
            assert s.counts()["done"] == 2
        calls = []
        real = parallel_mod.simulate

        def counting(spec, bus=None):
            calls.append(spec)
            return real(spec, bus=bus)

        monkeypatch.setattr(parallel_mod, "simulate", counting)
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert calls == [], "the stored runs must not re-simulate"
        assert "[calibration:" in cold
        assert warm == cold

    def test_run_accepts_sched_args(self, capsys):
        code = main(["run", "--app", "uts", "--scale", "test",
                     "--places", "2", "--workers", "2",
                     "--sched-arg", "remote_chunk_size=4",
                     "--sched-arg", "victim_order=nearest"])
        assert code == 0
        assert "tasks_executed" in capsys.readouterr().out

    @staticmethod
    def _rejected_run(capsys, tmp_path, store, *flags) -> str:
        """Run ``repro run`` with ``flags``, expecting one ``error:``
        line, exit 2 and, under ``--store``, no row in the store."""
        from repro.harness.db import ExperimentStore

        path = str(tmp_path / "run.db")
        argv = ["run", "--app", "uts", "--scale", "test",
                "--places", "2", "--workers", "2", *flags]
        assert main(argv + (["--store", path] if store else [])) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        if store:
            with ExperimentStore(path) as s:
                assert set(s.counts().values()) == {0}
        return err

    @pytest.mark.parametrize("store", [False, True], ids=["bare", "store"])
    def test_run_rejects_unknown_knob_without_traceback(self, capsys,
                                                        tmp_path, store):
        err = self._rejected_run(capsys, tmp_path, store,
                                 "--sched-arg", "bogus=1")
        assert "unknown knob 'bogus'" in err

    def test_run_rejects_unparseable_value(self, capsys):
        code = main(["run", "--app", "uts", "--scale", "test",
                     "--places", "2", "--workers", "2",
                     "--sched-arg", "remote_chunk_size=lots"])
        assert code == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_run_with_controller_prints_state(self, capsys):
        code = main(["run", "--app", "uts", "--scale", "test",
                     "--places", "2", "--workers", "2",
                     "--controller", "aimd-chunk"])
        assert code == 0
        out = capsys.readouterr().out
        assert "online controller (aimd-chunk)" in out
        assert "chunk" in out

    @pytest.mark.parametrize("store", [False, True], ids=["bare", "store"])
    @pytest.mark.parametrize("flags, message", [
        (("--controller", "pid"), "unknown controller 'pid'"),
        (("--scheduler", "X10WS", "--controller", "aimd-chunk"),
         "controller 'aimd-chunk' adjusts remote_chunk_size, which "
         "scheduler 'X10WS' fixes (not one of its knobs)"),
    ], ids=["pid", "aimd-on-X10WS"])
    def test_run_rejects_unknown_controller(self, capsys, tmp_path, flags,
                                            message, store):
        err = self._rejected_run(capsys, tmp_path, store, *flags)
        assert message in err

    def test_reproduce_rejects_unknown_sched_arg(self, capsys):
        code = main(["reproduce", "fig6", "--sched-arg", "bogus=1"])
        assert code == 2
        assert "unknown knob" in capsys.readouterr().err

    def test_tune_grid_deterministic_and_cached(self, capsys, tmp_path):
        argv = ["tune", "--app", "uts", "--scheduler", "distws",
                "--engine", "grid", "--budget", "3",
                "--knob", "remote_chunk_size",
                "--places", "2", "--workers", "2", "--seeds", "1",
                "--store", str(tmp_path / "sweep.db"),
                "--json", str(tmp_path / "report.json")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "tuning uts x DistWS" in cold
        assert "default rank" in cold
        assert "(default)" in cold
        first = (tmp_path / "report.json").read_bytes()
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 cells simulated here" in warm
        # Byte-identical report across cold and warm runs.
        assert (tmp_path / "report.json").read_bytes() == first
        data = json.loads(first)
        assert data["cells"][0]["scheduler"] == "DistWS"
        assert data["cells"][0]["n_trials"] == 3

    def test_list_shows_new_steal_variants_with_knob_tables(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for sched in ("StealHalfWS", "MultiStealWS", "LocalizedWS"):
            assert sched in out
        # Each variant's distinctive knob is documented in its table.
        assert "steal_width" in out
        assert "steal_radius" in out
        assert "radius_strikes" in out
        # StealHalfWS sizes chunks from the deque, so it has no
        # remote_chunk_size knob of its own.
        from repro.tune import SCHEDULER_KNOBS
        names = {k.name for k in SCHEDULER_KNOBS["StealHalfWS"]}
        assert "remote_chunk_size" not in names

    @pytest.mark.parametrize("sched,knob", [
        ("StealHalfWS", "victim_order=nearest"),
        ("MultiStealWS", "steal_width=3"),
        ("LocalizedWS", "steal_radius=1"),
        ("AdaptiveDistWS", "shared_fifo=false"),
    ])
    def test_run_accepts_each_new_variant(self, capsys, sched, knob):
        code = main(["run", "--app", "uts", "--scale", "test",
                     "--places", "2", "--workers", "2",
                     "--scheduler", sched, "--sched-arg", knob])
        assert code == 0
        assert "tasks_executed" in capsys.readouterr().out

    @pytest.mark.parametrize("sched,knob", [
        ("stealhalfws", "shared_fifo"),
        ("multistealws", "steal_width"),
        ("localizedws", "radius_strikes"),
    ])
    def test_tune_accepts_each_new_variant(self, capsys, tmp_path,
                                           sched, knob):
        code = main(["tune", "--app", "uts", "--scheduler", sched,
                     "--engine", "grid", "--budget", "2",
                     "--knob", knob,
                     "--places", "2", "--workers", "2", "--seeds", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tuning uts x" in out
        assert knob in out

    def test_tune_random_requires_budget(self, capsys):
        code = main(["tune", "--app", "uts", "--engine", "random"])
        assert code == 2
        assert "needs --budget" in capsys.readouterr().err

    def test_tune_rejects_unknown_scheduler(self, capsys):
        code = main(["tune", "--app", "uts", "--scheduler", "TurboWS",
                     "--engine", "grid", "--budget", "2"])
        assert code == 2
        assert "unknown scheduler" in capsys.readouterr().err

    def test_tune_rejects_unknown_knob(self, capsys):
        code = main(["tune", "--app", "uts", "--engine", "grid",
                     "--budget", "2", "--knob", "warp",
                     "--places", "2", "--workers", "2"])
        assert code == 2
        assert "unknown knob" in capsys.readouterr().err


class TestTheoryCli:
    def test_theory_quick_writes_figure_and_verdict(self, capsys,
                                                    tmp_path):
        code = main(["theory", "--quick", "--app", "uts",
                     "--scheduler", "randomws",
                     "--places", "2", "--workers", "2", "--seeds", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan = W/p + c*lambda*log2(W)" in out
        assert "RandomWS" in out
        verdict = json.loads((tmp_path / "theory_verdict.json")
                             .read_text())
        assert verdict["lower_bound_holds"] is True
        assert verdict["fits"][0]["scheduler"] == "RandomWS"
        svg = (tmp_path / "theory_uts.svg").read_text()
        assert svg.startswith("<svg") and len(svg) > 500

    def test_theory_accepts_new_variants_and_caches(self, capsys,
                                                    tmp_path):
        argv = ["theory", "--app", "uts",
                "--scheduler", "stealhalfws",
                "--lambda", "2000", "--lambda", "8000",
                "--places", "2", "--workers", "2", "--seeds", "1",
                "--store", str(tmp_path / "sweep.db"),
                "--out", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "StealHalfWS" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 cells simulated here" in warm

    def test_theory_rejects_unknown_scheduler(self, capsys):
        code = main(["theory", "--quick", "--scheduler", "TurboWS"])
        assert code == 2
        assert "unknown scheduler" in capsys.readouterr().err

    def test_theory_rejects_degenerate_lambda_grid(self, capsys):
        code = main(["theory", "--lambda", "5000",
                     "--places", "2", "--workers", "2"])
        assert code == 2
        assert "lambdas" in capsys.readouterr().err


class TestStoreCli:
    """The durable-store subcommands: enqueue -> workers -> query."""

    def _enqueue(self, store, capsys):
        code = main(["enqueue", "--store", store,
                     "--app", "uts", "--scheduler", "DistWS",
                     "--scheduler", "RandomWS", "--places", "2",
                     "--workers", "2", "--seeds", "2",
                     "--scale", "test"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pending" in out
        assert "repro workers" in out  # tells the user how to drain
        return out

    def test_enqueue_workers_query_roundtrip(self, capsys, tmp_path):
        store = str(tmp_path / "grid.sqlite")
        self._enqueue(store, capsys)

        events = tmp_path / "store-events.jsonl"
        code = main(["workers", "--store", store, "--workers", "1",
                     "--heartbeat", "0.2", "--events", str(events)])
        assert code == 0
        out = capsys.readouterr().out
        assert "done" in out
        leases = [json.loads(line)
                  for line in events.read_text().splitlines()]
        assert {ev["kind"] for ev in leases} == {"store_lease"}
        assert len(leases) == 4  # one lease per cell, no retries

        code = main(["query", "--store", store])
        assert code == 0
        out = capsys.readouterr().out
        assert "uts" in out and "DistWS" in out and "RandomWS" in out

    def test_enqueue_is_idempotent(self, capsys, tmp_path):
        store = str(tmp_path / "grid.sqlite")
        first = self._enqueue(store, capsys)
        second = self._enqueue(store, capsys)
        assert "enqueued 4 new cell(s)" in first
        assert "enqueued 0 new cell(s) (4 already present)" in second

    def test_query_json_and_filters(self, capsys, tmp_path):
        store = str(tmp_path / "grid.sqlite")
        self._enqueue(store, capsys)
        assert main(["workers", "--store", store,
                     "--heartbeat", "0.2"]) == 0
        capsys.readouterr()
        dump = tmp_path / "rows.json"
        code = main(["query", "--store", store, "--json", str(dump),
                     "--scheduler", "DistWS", "--status", "done"])
        assert code == 0
        assert "totals" in capsys.readouterr().out
        rows = json.loads(dump.read_text())
        assert len(rows) == 2
        assert all(r["status"] == "done" for r in rows)
        assert all(r["payload"]["scheduler"] == "DistWS" for r in rows)

    def test_grid_knob_reaches_only_the_schedulers_that_have_it(
            self, capsys, tmp_path):
        """One --sched-arg over a grid: X10WS has no remote_chunk_size,
        so its cell is the knob-less cell; RandomWS fixes its chunk at 1,
        so its cell is too; neither is quarantined."""
        from repro.cluster.topology import ClusterSpec
        from repro.harness.db import ExperimentStore
        from repro.harness.parallel import RunSpec

        store_path = str(tmp_path / "grid.sqlite")
        assert main(["enqueue", "--store", store_path, "--app", "uts",
                     "--scheduler", "RandomWS", "--scheduler", "X10WS",
                     "--sched-arg", "remote_chunk_size=4",
                     "--places", "2", "--workers", "2", "--seeds", "1",
                     "--scale", "test"]) == 0
        assert main(["workers", "--store", store_path,
                     "--heartbeat", "0.2", "--max-attempts", "1"]) == 0
        assert "quarantined" not in capsys.readouterr().out
        spec = ClusterSpec(n_places=2, workers_per_place=2, max_threads=6)
        with ExperimentStore(store_path) as store:
            rows = {r.payload["scheduler"]: r for r in store.rows()}
        assert {r.status for r in rows.values()} == {"done"}
        for sched in ("RandomWS", "X10WS"):
            bare = RunSpec.build("uts", sched, spec, scale="test")
            assert rows[sched].key == bare.cache_key()

    def test_workers_reports_quarantined_cells(self, capsys, tmp_path):
        from repro.harness.db import ExperimentStore
        from repro.harness.parallel import RunSpec
        from repro.cluster.topology import ClusterSpec

        store_path = str(tmp_path / "grid.sqlite")
        spec = ClusterSpec(n_places=2, workers_per_place=2, max_threads=4)
        poison = RunSpec.build("uts", "DistWS", spec, scale="test",
                               app_overrides={"no_such_parameter": 1})
        with ExperimentStore(store_path) as store:
            store.add_specs([poison])
        code = main(["workers", "--store", store_path,
                     "--heartbeat", "0.2", "--max-attempts", "1"])
        assert code == 1  # quarantined cells are a reportable failure
        out = capsys.readouterr().out
        assert "quarantined" in out
        assert "no_such_parameter" in out

    def test_interrupted_workers_exit_130_with_the_store_table(
            self, capsys, tmp_path, monkeypatch):
        import repro.harness.db as db_mod

        store = str(tmp_path / "grid.sqlite")
        self._enqueue(store, capsys)

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(db_mod, "drain", interrupted)
        assert main(["workers", "--store", store]) == 130
        captured = capsys.readouterr()
        assert "interrupted" in captured.err
        assert "pending" in captured.out

    def test_reproduce_with_store_resumes(self, capsys, tmp_path):
        store = str(tmp_path / "repro.sqlite")
        assert main(["reproduce", "table2", "--scale", "test",
                     "--store", store]) == 0
        first = capsys.readouterr().out
        assert main(["reproduce", "table2", "--scale", "test",
                     "--store", store]) == 0
        second = capsys.readouterr().out
        assert "21 cells simulated here, 21 done total" in first
        # Identical artifact either way; second run re-simulates nothing.
        assert "0 cells simulated here, 21 done total" in second


class TestFleetCli:
    """Fleet observability subcommands: top, report, query rollups."""

    def _drained_store(self, tmp_path, capsys, trace_dir=None):
        store = str(tmp_path / "grid.sqlite")
        assert main(["enqueue", "--store", store, "--app", "uts",
                     "--scheduler", "DistWS", "--places", "2",
                     "--workers", "2", "--seeds", "2",
                     "--scale", "test"]) == 0
        argv = ["workers", "--store", store, "--heartbeat", "0.2"]
        if trace_dir:
            argv += ["--trace-dir", trace_dir]
        assert main(argv) == 0
        capsys.readouterr()
        return store

    def test_top_single_frame(self, capsys, tmp_path):
        store = self._drained_store(tmp_path, capsys)
        assert main(["top", store, "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "2/2 done" in out
        assert "ETA" in out and "owner" in out

    def test_top_missing_store_is_config_error(self, capsys, tmp_path):
        code = main(["top", str(tmp_path / "nope.db"),
                     "--iterations", "1"])
        assert code == 2
        assert "no store at" in capsys.readouterr().err

    def test_query_rollup(self, capsys, tmp_path):
        store = self._drained_store(tmp_path, capsys)
        assert main(["query", "--store", store, "--rollup"]) == 0
        out = capsys.readouterr().out
        assert "rollup over 2 telemetry row(s)" in out
        assert "steal_latency_cycles" in out

    def test_query_rollup_respects_filters(self, capsys, tmp_path):
        store = self._drained_store(tmp_path, capsys)
        assert main(["query", "--store", store, "--rollup",
                     "--scheduler", "RandomWS"]) == 0
        out = capsys.readouterr().out
        assert "rollup over 0 telemetry row(s)" in out
        assert "no telemetry shipped" in out

    def test_query_quarantined_prints_tracebacks(self, capsys, tmp_path):
        from repro.cluster.topology import ClusterSpec
        from repro.harness.db import ExperimentStore
        from repro.harness.parallel import RunSpec

        store = str(tmp_path / "grid.sqlite")
        spec = ClusterSpec(n_places=2, workers_per_place=2,
                           max_threads=4)
        poison = RunSpec.build("uts", "DistWS", spec, scale="test",
                               app_overrides={"no_such_parameter": 1})
        with ExperimentStore(store) as s:
            s.add_specs([poison])
        main(["workers", "--store", store, "--heartbeat", "0.2",
              "--max-attempts", "1"])
        capsys.readouterr()
        assert main(["query", "--store", store, "--quarantined"]) == 0
        out = capsys.readouterr().out
        assert "Traceback" in out and "no_such_parameter" in out

    def test_query_quarantined_empty(self, capsys, tmp_path):
        store = self._drained_store(tmp_path, capsys)
        assert main(["query", "--store", store, "--quarantined"]) == 0
        assert "no quarantined cells" in capsys.readouterr().out

    def test_workers_no_telemetry_ships_nothing(self, capsys, tmp_path):
        from repro.harness.db import ExperimentStore

        store = str(tmp_path / "grid.sqlite")
        assert main(["enqueue", "--store", store, "--app", "uts",
                     "--scheduler", "DistWS", "--places", "2",
                     "--workers", "2", "--seeds", "1",
                     "--scale", "test"]) == 0
        assert main(["workers", "--store", store, "--heartbeat", "0.2",
                     "--no-telemetry"]) == 0
        capsys.readouterr()
        with ExperimentStore(store) as s:
            assert s.counts()["done"] == 1
            assert s.telemetry_rows() == []

    def test_report_writes_html_and_merged_trace(self, capsys, tmp_path):
        trace_dir = str(tmp_path / "traces")
        store = self._drained_store(tmp_path, capsys,
                                    trace_dir=trace_dir)
        out_dir = str(tmp_path / "report")
        assert main(["report", store, "--out", out_dir]) == 0
        printed = capsys.readouterr().out
        assert "report.html" in printed
        html = open(f"{out_dir}/report.html").read()
        assert "<svg" in html and "Throughput timeline" in html
        assert "steal_latency_cycles" in html
        merged = json.load(open(f"{out_dir}/merged.trace.json"))
        assert merged["traceEvents"]

    def test_report_without_traces_still_writes_html(self, capsys,
                                                     tmp_path):
        store = self._drained_store(tmp_path, capsys)
        out_dir = str(tmp_path / "report")
        assert main(["report", store, "--out", out_dir]) == 0
        capsys.readouterr()
        import os
        assert os.path.exists(f"{out_dir}/report.html")
        assert not os.path.exists(f"{out_dir}/merged.trace.json")


class TestFlagSets:
    #: Every subcommand's flags (positionals by name).  A flag added to,
    #: dropped from or renamed in a subcommand shows here.
    FLAGS = {
        "list": [],
        "run": ["--app", "--chrome-trace", "--controller", "--events",
                "--faults", "--no-validate", "--places",
                "--sample-interval", "--scale", "--sched-arg",
                "--sched-seed", "--scheduler", "--seed", "--snapshot",
                "--store", "--trace-json", "--workers"],
        "diff-stats": ["--fail-over", "baseline", "candidate"],
        "reproduce": ["--json-dir", "--parallel", "--scale", "--sched-arg",
                      "--store", "--svg-dir", "artifacts"],
        "enqueue": ["--app", "--places", "--scale", "--sched-arg",
                    "--scheduler", "--seed", "--seeds", "--store",
                    "--workers"],
        "workers": ["--events", "--heartbeat", "--lease", "--max-attempts",
                    "--no-telemetry", "--poll", "--sample-interval",
                    "--store", "--trace-dir", "--workers"],
        "query": ["--app", "--json", "--limit", "--quarantined", "--rollup",
                  "--scheduler", "--status", "--store"],
        "top": ["--failures", "--interval", "--iterations", "--no-clear",
                "--window", "store"],
        "report": ["--out", "store"],
        "tune": ["--app", "--budget", "--engine", "--eta", "--json",
                 "--knob", "--parallel", "--places", "--scale",
                 "--scheduler", "--search-seed", "--seed", "--seeds",
                 "--store", "--top", "--workers"],
        "theory": ["--app", "--lambda", "--out", "--parallel", "--places",
                   "--quick", "--scale", "--scheduler", "--seed", "--seeds",
                   "--store", "--workers"],
        "serve": ["--balancer", "--cold-factor", "--faults", "--host",
                  "--places", "--port", "--private-cap", "--seed",
                  "--shared-cap", "--workers"],
        "loadgen": ["--balancer", "--cold-factor", "--connect", "--cpu-ms",
                    "--duration", "--faults", "--hot-place", "--out",
                    "--pattern", "--places", "--policy", "--private-cap",
                    "--rate", "--seed", "--service-jitter", "--service-ms",
                    "--shared-cap", "--skew", "--sticky-fraction", "--svg",
                    "--workers"],
    }

    def test_each_subcommand_keeps_its_flags(self, monkeypatch):
        import argparse

        built = []

        def capture(parser, args=None, namespace=None):
            built.append(parser)
            raise SystemExit(0)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
        with pytest.raises(SystemExit):
            main(["list"])
        sub, = [a for a in built[0]._actions
                if isinstance(a, argparse._SubParsersAction)]
        flags = {name: sorted(flag for action in parser._actions
                              for flag in action.option_strings
                              or [action.dest]
                              if flag not in ("-h", "--help"))
                 for name, parser in sub.choices.items()}
        assert flags == self.FLAGS
        assert sum(map(len, flags.values())) == 121
