"""Command-line interface: ``python -m repro``.

Subcommands:

- ``run`` — one (application, scheduler, cluster) simulation with a
  metrics summary; optionally faulted (``--faults``), knobbed
  (``--sched-arg``/``--controller``), observed (metric histograms,
  Chrome trace, JSONL event stream, snapshot), traced (critical path,
  timeline, steal flow) and memoised (``--store``);
- ``diff-stats`` — compare two saved snapshots, optionally failing on
  regression;
- ``reproduce`` — regenerate paper artifacts (tables/figures) by name;
- ``enqueue`` — seed a durable experiment store with a grid of cells;
- ``workers`` — drain a store: claim cells under time-bounded leases,
  heartbeat while simulating, commit results transactionally (any
  number of processes on the store's host; crash-resumable);
- ``query`` — inspect a store's rows and longitudinal results
  (``--rollup`` merges shipped telemetry into fleet-wide histograms;
  ``--quarantined`` prints poisoned cells with their tracebacks);
- ``top`` — live dashboard over a store being drained (read-only);
- ``report`` — static HTML/SVG sweep report + merged Chrome trace;
- ``theory`` — sweep the steal latency λ and validate measured
  makespans against the ``W/p + c·λ·log₂W`` work-stealing bound
  (SVG figure + JSON verdict);
- ``serve`` — run the live multi-process serving tier (one OS process
  per place, Algorithm 1 as the load balancer) behind a TCP frontend;
- ``loadgen`` — replay a seeded open-loop traffic trace against the
  serving tier (embedded head-to-head benchmark across balancers, or
  ``--connect`` to a running ``repro serve``) with a JSON + SVG
  latency report;
- ``list`` — what's available.
"""

from __future__ import annotations

import argparse
import sys

from repro import SCHEDULERS
from repro.apps import APP_REGISTRY
from repro.cluster.topology import paper_cluster
from repro.harness import EXPERIMENTS
from repro.harness.tables import render_table
from repro.sched import resolve_scheduler


def _cmd_list(_args) -> int:
    from repro.tune import SCHEDULER_KNOBS

    print("applications:", ", ".join(sorted(APP_REGISTRY)))
    print("schedulers:  ", ", ".join(sorted(SCHEDULERS)))
    print("artifacts:   ", ", ".join(EXPERIMENTS))
    print("\nknobs (set with --sched-arg key=value, search with "
          "`repro tune`):")
    for sched in sorted(SCHEDULER_KNOBS):
        rows = [[k.name, k.kind, k.default_label(), k.doc]
                for k in SCHEDULER_KNOBS[sched]]
        print()
        print(render_table(["knob", "type", "default", "description"],
                           rows, title=sched))
    return 0


def _resolve_fault_plan(args, spec, knobs):
    """Parse ``--faults`` and resolve fractional times against a horizon.

    Fractional fault times (``crash:p2@0.4``) are relative to the
    fault-free makespan of the same app, scheduler, ``--sched-arg``
    ``knobs``, cluster and seeds, calibrated first through the harness
    (``--store`` keeps it).  A ``--controller`` is left out, so one
    ``--faults`` spec strikes at the same cycles with and without a
    controller, and both runs share the stored calibration.
    """
    from repro.faults import FaultPlan
    from repro.harness import RunSpec, current_context
    plan = FaultPlan.parse(args.faults)
    if plan.needs_horizon:
        cal, = current_context().run_specs([RunSpec.build(
            args.app, args.scheduler, spec, app_seed=args.seed,
            sched_seed=args.sched_seed, scale=args.scale, validate=False,
            sched_kwargs=knobs)])
        print(f"[calibration: fault-free makespan "
              f"{cal.stats.makespan_cycles:.0f} cycles]")
        plan = plan.resolved(cal.stats.makespan_cycles)
    return plan


def _fault_rows(faults) -> list:
    """Flatten a FaultStats snapshot into table rows."""
    rows = []
    for key, value in faults.snapshot().items():
        if isinstance(value, dict):
            for k in sorted(value):
                rows.append([f"{key}[{k}]", value[k]])
        elif isinstance(value, list):
            rows.append([key, ", ".join(str(v) for v in value) or "-"])
        else:
            rows.append([key, value])
    return rows


def _observers(args):
    """``(bus, metrics registry, trace recorder)`` for the observer and
    trace flags, ``(None, None, None)`` for a bare run.

    Any of ``--chrome-trace``, ``--events``, ``--snapshot`` and
    ``--sample-interval`` puts a metrics registry and the file sinks on
    a sampling bus; ``--trace-json`` subscribes the recorder last.
    """
    observed = (args.chrome_trace or args.events or args.snapshot
                or args.sample_interval is not None)
    if not (observed or args.trace_json):
        return None, None, None
    from repro.analysis import TraceRecorder
    from repro.obs import ChromeTraceSink, EventBus, JsonlSink, MetricsRegistry

    interval = args.sample_interval
    bus = EventBus(sample_interval=100_000 if observed and interval is None
                   else interval)
    metrics = bus.subscribe(MetricsRegistry()) if observed else None
    if args.chrome_trace:
        bus.subscribe(ChromeTraceSink(args.chrome_trace))
    if args.events:
        bus.subscribe(JsonlSink(path=args.events))
    recorder = bus.subscribe(TraceRecorder()) if args.trace_json else None
    return bus, metrics, recorder


def _print_trace(args, recorder) -> None:
    """Write the recorded trace; print critical path, timeline, flow."""
    from repro.analysis import (
        critical_path,
        place_timeline,
        steal_flow,
        trace_to_json,
    )

    trace = recorder.finalize()
    with open(args.trace_json, "w") as fh:
        fh.write(trace_to_json(trace, indent=1))
    print(f"\ntrace written to {args.trace_json}")
    print(critical_path(trace).describe())
    print()
    print(place_timeline(trace, width=64,
                         title=f"{args.app} under {args.scheduler}"))
    print()
    print(steal_flow(trace))


def _cmd_run(args) -> int:
    """One ``RunSpec`` from the flags, through ``simulate``: a bare run
    via the execution context (``--store`` keeps it), else with a bus."""
    import json

    from repro.harness import RunSpec, current_context, execution
    from repro.harness.parallel import simulate
    from repro.tune import knob_table, make_controller, parse_sched_args

    args.scheduler = resolve_scheduler(args.scheduler)
    spec = paper_cluster(args.places, args.workers)
    knobs = parse_sched_args(args.scheduler, args.sched_arg) or {}
    sched_kwargs = dict(knobs)
    if args.controller:
        # Rejected here, not quarantined as a failed row of the store.
        make_controller(args.controller).check_host(
            args.scheduler, knob_table(args.scheduler))
        sched_kwargs["controller"] = args.controller
    with execution(store_path=args.store) as ctx:
        plan = (_resolve_fault_plan(args, spec, knobs) if args.faults
                else None)
        bus, metrics, recorder = _observers(args)
        run = RunSpec.build(
            args.app, args.scheduler, spec, app_seed=args.seed,
            sched_seed=args.sched_seed, scale=args.scale,
            validate=not args.no_validate, sched_kwargs=sched_kwargs,
            fault_plan=plan)
        result = (ctx.run_specs([run])[0] if bus is None
                  else simulate(run, bus=bus))
    stats = result.stats
    rows = [[k, v] for k, v in stats.summary().items()]
    print(render_table(["metric", "value"], rows,
                       title=f"{args.app} under {args.scheduler} on "
                             f"{spec.n_places}x{spec.workers_per_place}"))
    if stats.faults is not None:
        print()
        print(render_table(["fault metric", "value"],
                           _fault_rows(stats.faults),
                           title="fault injection"))
    if stats.controller is not None:
        print()
        print(render_table(
            ["controller state", "value"],
            [[k, json.dumps(v)] for k, v in sorted(stats.controller.items())],
            title=f"online controller ({args.controller})"))
    if metrics is not None:
        print()
        print(render_table(["histogram", "count", "mean", "p50", "p90",
                            "max"],
                           metrics.summary_rows(), title="metric histograms"))
        counts = stats.snapshot()["obs"]["events"]
        print()
        print(render_table(["event", "count"],
                           [[k, counts[k]] for k in sorted(counts)],
                           title="event counts"))
    if recorder is not None:
        _print_trace(args, recorder)
    if args.chrome_trace:
        print(f"\n[chrome trace written to {args.chrome_trace} — open in "
              "https://ui.perfetto.dev]")
    if args.events:
        print(f"[event stream written to {args.events}]")
    if args.snapshot:
        with open(args.snapshot, "w") as fh:
            fh.write(json.dumps(stats.snapshot(), sort_keys=True, indent=1))
        print(f"[snapshot written to {args.snapshot}]")
    return 0


def _cmd_tune(args) -> int:
    from repro.errors import ConfigError
    from repro.harness import execution
    from repro.tune import GridSearch, RandomSearch, SuccessiveHalving, tune

    cells = _grid_cells(args)
    if args.engine == "grid":
        engine = GridSearch(budget=args.budget)
    elif args.engine == "random":
        if args.budget is None:
            raise ConfigError("the random engine needs --budget")
        engine = RandomSearch(budget=args.budget, seed=args.search_seed)
    else:
        if args.budget is None:
            raise ConfigError("the asha engine needs --budget")
        engine = SuccessiveHalving(budget=args.budget,
                                   seed=args.search_seed, eta=args.eta)
    with execution(parallel=args.parallel, store_path=args.store) as ctx:
        report = tune(cells, engine, knob_names=args.knob or None)
        print(report.rendered(top=args.top))
        _print_store_summary(args, ctx)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
        print(f"[report written to {args.json}]")
    return 0


def _cmd_theory(args) -> int:
    import os

    from repro.analysis.theory import (
        LAMBDA_GRID_FULL,
        LAMBDA_GRID_QUICK,
        run_theory_sweep,
    )
    from repro.harness import execution

    if args.lambdas:
        lambdas = tuple(args.lambdas)
    else:
        lambdas = LAMBDA_GRID_QUICK if args.quick else LAMBDA_GRID_FULL
    with execution(parallel=args.parallel, store_path=args.store) as ctx:
        report = run_theory_sweep(_grid_cells(args), lambdas)
        print(report.rendered())
        _print_store_summary(args, ctx)
    os.makedirs(args.out, exist_ok=True)
    verdict_path = os.path.join(args.out, "theory_verdict.json")
    with open(verdict_path, "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    written = [verdict_path]
    for app in report.apps:
        fig_path = os.path.join(args.out, f"theory_{app}.svg")
        with open(fig_path, "w") as fh:
            fh.write(report.figure(app))
        written.append(fig_path)
    print("\n[written: " + ", ".join(written) + "]")
    if not report.verdict()["lower_bound_holds"]:
        print("error: a measured makespan beat the W/p lower bound "
              "(simulator physics bug)", file=sys.stderr)
        return 1
    return 0


def _cmd_diff_stats(args) -> int:
    import json

    from repro.obs import diff_snapshots, max_regression_pct

    with open(args.baseline) as fh:
        base = json.load(fh)
    with open(args.candidate) as fh:
        cand = json.load(fh)
    rows = diff_snapshots(base, cand)
    if not rows:
        print("no differences")
        return 0
    table = [[r.key, r.base, r.cand,
              "-" if r.delta is None else f"{r.delta:+g}",
              "-" if r.pct is None else f"{r.pct:+.2f}%"]
             for r in rows]
    print(render_table(["key", "baseline", "candidate", "delta", "pct"],
                       table,
                       title=f"{args.baseline} vs {args.candidate}"))
    if args.fail_over is not None:
        worst = max_regression_pct(rows)
        if worst > args.fail_over:
            print(f"\nFAIL: worst regression {worst:+.2f}% exceeds "
                  f"--fail-over {args.fail_over:g}%", file=sys.stderr)
            return 1
        print(f"\nOK: worst regression {worst:+.2f}% within "
              f"{args.fail_over:g}%")
    return 0


def _cmd_reproduce(args) -> int:
    from repro.harness import execution

    names = args.artifacts or list(EXPERIMENTS)
    for name in names:
        if name not in EXPERIMENTS:
            print(f"unknown artifact {name!r}; known: "
                  f"{', '.join(EXPERIMENTS)}", file=sys.stderr)
            return 2
    with execution(parallel=args.parallel, store_path=args.store) as ctx:
        code = _reproduce_artifacts(args, names)
        _print_store_summary(args, ctx)
    return code


def _print_store_summary(args, ctx) -> None:
    """One line on what a ``--store`` sweep simulated and replayed."""
    if args.store:
        counts = ctx.store.counts()
        print(f"\n[store {args.store}: {ctx.simulations} cells "
              f"simulated here, {counts['done']} done total]")


def _grid_cells(args, sched_kwargs=None):
    """One CellRequest per app x scheduler the grid flags name.

    Each scheduler takes the ``sched_kwargs`` knobs it has.
    """
    from repro.harness.parallel import CellRequest
    from repro.tune import accepted_kwargs

    spec = paper_cluster(args.places, args.workers)
    return [CellRequest.build(
        app, sched, spec, sched_seeds=range(1, args.seeds + 1),
        app_seed=args.seed, scale=args.scale,
        sched_kwargs=accepted_kwargs(sched, sched_kwargs))
        for app in args.app or args.grid_apps
        for sched in map(resolve_scheduler,
                         args.scheduler or args.grid_schedulers)]


def _store_counts_rows(counts) -> list:
    return [[status, counts[status]] for status in
            ("pending", "leased", "done", "failed")]


def _cmd_enqueue(args) -> int:
    from repro.harness.db import ExperimentStore
    from repro.tune import parse_sched_args_any

    specs = [spec for cell in _grid_cells(
        args, parse_sched_args_any(args.sched_arg))
        for spec in cell.to_specs()]
    with ExperimentStore(args.store) as store:
        added = store.add_specs(specs)
        counts = store.counts()
    print(f"enqueued {added} new cell(s) ({len(specs) - added} already "
          f"present) into {args.store}")
    print(render_table(["status", "cells"], _store_counts_rows(counts),
                       title="store state"))
    print("\ndrain with: repro workers --store "
          f"{args.store} --workers N  (any process on this host)")
    return 0


def _cmd_workers(args) -> int:
    from repro.harness.db import ExperimentStore, drain_with_helpers
    from repro.obs.fleet import FleetTelemetry

    bus = None
    if args.events:
        from repro.obs import EventBus, JsonlSink
        bus = EventBus()
        bus.subscribe(JsonlSink(path=args.events))
        bus.attach_clock()
    fleet = FleetTelemetry(enabled=not args.no_telemetry,
                           sample_interval=args.sample_interval,
                           trace_dir=args.trace_dir)
    store = ExperimentStore(args.store, max_attempts=args.max_attempts,
                            bus=bus)
    completed = 0
    code = 0
    try:
        completed = drain_with_helpers(
            store, args.workers - 1, heartbeat_seconds=args.heartbeat,
            lease_seconds=args.lease, poll_seconds=args.poll, fleet=fleet)
    except KeyboardInterrupt:
        print("\ninterrupted: leases released, workers stopped "
              "(re-run `repro workers` to resume the sweep)",
              file=sys.stderr)
        code = 130
    finally:
        counts = store.counts()
        failed = store.rows(status="failed") if counts["failed"] else []
        if bus is not None:
            bus.close()
        store.close()
    print(render_table(["status", "cells"], _store_counts_rows(counts),
                       title=f"store {args.store} "
                            f"({completed} completed by this process)"))
    if failed:
        print("\nquarantined cells (exhausted max_attempts):")
        for row in failed:
            last = (row.error or "").strip().splitlines()
            print(f"  {row.key[:12]} {row.payload.get('app')} x "
                  f"{row.payload.get('scheduler')}: "
                  f"{last[-1] if last else '?'}")
        code = code or 1
    if args.events:
        print(f"[store events written to {args.events}]")
    return code


def _print_quarantined(rows) -> None:
    """Print quarantined (permanently failed) rows with tracebacks."""
    if not rows:
        print("no quarantined cells")
        return
    for row in rows:
        p = row.payload
        print(f"=== {row.key} — {p.get('app')} x {p.get('scheduler')} "
              f"(seed {p.get('sched_seed')}, {row.attempts} attempt(s), "
              f"last owner {row.lease_owner or '?'})")
        print((row.error or "<no traceback captured>").rstrip())
        print()


def _print_rollup(store, keys) -> None:
    """Merge the matching cells' telemetry into fleet-wide histograms."""
    from repro.obs.fleet import rollup_histograms, rollup_rows

    tel = store.telemetry_rows(keys=keys)
    rollup = rollup_histograms(r.data for r in tel)
    rows = rollup_rows(rollup)
    print(render_table(
        ["histogram", "count", "mean", "min", "p50", "p90", "p99",
         "max"], rows,
        title=f"rollup over {len(tel)} telemetry row(s)"))
    if not tel:
        print("\n(no telemetry shipped for the matching cells — drain "
              "with `repro workers` and telemetry enabled)")


def _cmd_query(args) -> int:
    import json

    from repro.harness.db import ExperimentStore

    with ExperimentStore(args.store) as store:
        if args.quarantined:
            rows = store.rows(status="failed")
            _print_quarantined(rows)
            return 0
        rows = store.rows(status=args.status)
        if args.app:
            rows = [r for r in rows if r.payload.get("app") == args.app]
        if args.scheduler:
            want = resolve_scheduler(args.scheduler)
            rows = [r for r in rows
                    if r.payload.get("scheduler") == want]
        if args.rollup:
            _print_rollup(store, [r.key for r in rows])
            return 0
        table = []
        payload_rows = []
        for row in rows[:args.limit]:
            p = row.payload
            makespan_ms = speedup = None
            if row.status == "done":
                result = store.get_result(row.key)
                if result is not None:
                    makespan_ms = round(result.makespan_ms, 3)
                    speedup = round(result.speedup, 2)
            table.append([
                row.key[:12], p.get("app"), p.get("scheduler"),
                p.get("scale"), p.get("sched_seed"), row.status,
                row.attempts,
                "-" if makespan_ms is None else makespan_ms,
                "-" if speedup is None else speedup])
            payload_rows.append({
                "key": row.key, "payload": p, "status": row.status,
                "attempts": row.attempts, "error": row.error,
                "makespan_ms": makespan_ms, "speedup": speedup})
        counts = store.counts()
    shown = len(table)
    print(render_table(
        ["key", "app", "scheduler", "scale", "seed", "status",
         "attempts", "makespan (ms)", "speedup"], table,
        title=f"{args.store}: {shown}/{len(rows)} row(s) shown"))
    print(render_table(["status", "cells"], _store_counts_rows(counts),
                       title="totals"))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload_rows, fh, sort_keys=True, indent=1)
        print(f"[written {args.json}]")
    return 0


def _cmd_top(args) -> int:
    import time

    from repro.obs.fleet import FleetView, render_top

    frames = 0
    with FleetView(args.store) as view:
        while True:
            frame = render_top(view.snapshot(
                failures_limit=args.failures,
                recent_window=args.window))
            if frames and args.clear:
                # ANSI clear + home keeps the dashboard in place.
                print("\x1b[2J\x1b[H", end="")
            print(frame)
            frames += 1
            if args.iterations and frames >= args.iterations:
                return 0
            time.sleep(args.interval)


def _cmd_report(args) -> int:
    from repro.analysis.fleet_report import write_report
    from repro.harness.db import ExperimentStore

    with ExperimentStore(args.store) as store:
        written = write_report(store, args.out,
                               title=f"sweep report — {args.store}")
    for path in written:
        print(f"[written {path}]")
    print(f"open {args.out}/report.html in a browser; the merged trace "
          "(if any) loads in https://ui.perfetto.dev")
    return 0


def _reproduce_artifacts(args, names) -> int:
    from repro.tune import parse_sched_args_any

    sched_kwargs = parse_sched_args_any(getattr(args, "sched_arg", None))
    for name in names:
        print(f"\n# {name}\n")
        out = EXPERIMENTS[name](scale=args.scale,
                                sched_kwargs=sched_kwargs)
        print(out.rendered)
        if args.json_dir:
            import os
            from repro.analysis import experiment_to_json
            os.makedirs(args.json_dir, exist_ok=True)
            path = os.path.join(args.json_dir, f"{name}.json")
            with open(path, "w") as fh:
                fh.write(experiment_to_json(out))
            print(f"[written {path}]")
        if args.svg_dir and out.extra.get("series"):
            import os
            os.makedirs(args.svg_dir, exist_ok=True)
            for path, svg in _render_svgs(name, out):
                full = os.path.join(args.svg_dir, path)
                with open(full, "w") as fh:
                    fh.write(svg)
                print(f"[written {full}]")
    return 0


def _serve_traffic(args):
    """Build a TrafficSpec from the loadgen CLI flags."""
    from repro.serve import TrafficSpec

    return TrafficSpec(
        pattern=args.pattern, rate=args.rate, duration_s=args.duration,
        n_places=args.places, seed=args.seed,
        sticky_fraction=args.sticky_fraction,
        service_ms=args.service_ms, service_jitter=args.service_jitter,
        cpu_ms=args.cpu_ms, skew=args.skew, hot_place=args.hot_place)


def _serve_fault_schedule(args, duration_s: float):
    """Parse ``--faults`` into (kill points, sensitive policy)."""
    from repro.faults import FaultPlan
    from repro.serve import crash_schedule

    policy_name = getattr(args, "policy", "fail")
    if not args.faults:
        from repro.faults.plan import SensitivePolicy
        return None, [], SensitivePolicy(policy_name)
    plan = FaultPlan.parse(args.faults)
    return plan, crash_schedule(plan, duration_s), plan.sensitive_policy


def _write_serve_report(args, report) -> None:
    from repro.serve.recorder import render, report_svg, to_json

    print(render(report))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(to_json(report))
        print(f"\n[report written to {args.out}]")
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(report_svg(report))
        print(f"[latency figure written to {args.svg}]")


def _cmd_serve(args) -> int:
    import asyncio

    from repro.errors import ConfigError
    from repro.serve import ServeService, run_frontend

    if args.faults:
        from repro.faults import FaultPlan
        if FaultPlan.parse(args.faults).needs_horizon:
            raise ConfigError(
                "repro serve has no trace horizon: give crash times in "
                "absolute seconds > 1 (e.g. crash:p1@5)")
    _, kills, policy = _serve_fault_schedule(args, 1.0)

    async def _serve() -> None:
        service = ServeService(
            n_places=args.places, workers_per_place=args.workers,
            balancer=args.balancer, policy=policy, seed=args.seed,
            shared_cap=args.shared_cap, private_cap=args.private_cap,
            cold_factor=args.cold_factor)
        async with service:
            server = await run_frontend(service, args.host, args.port)
            port = server.sockets[0].getsockname()[1]
            loop = asyncio.get_running_loop()
            for at, place in kills:
                loop.call_later(at, service.kill_place, place)
            print(f"serving {args.places} place(s) x {args.workers} "
                  f"worker(s) [{args.balancer}] on {args.host}:{port} — "
                  "Ctrl-C to stop")
            try:
                await asyncio.Event().wait()
            finally:
                server.close()
                await server.wait_closed()

    asyncio.run(_serve())
    return 0


def _cmd_loadgen(args) -> int:
    import time

    from repro.serve.recorder import build_report

    traffic = _serve_traffic(args)
    if args.connect:
        import asyncio

        from repro.errors import ConfigError
        from repro.serve import drive_remote

        host, _, port_text = args.connect.rpartition(":")
        if not port_text.isdigit():
            raise ConfigError(
                f"--connect expects HOST:PORT, got {args.connect!r}")
        wall_t0 = time.perf_counter()
        recorder, snapshot, traffic = asyncio.run(
            drive_remote(host or "127.0.0.1", int(port_text), traffic))
        wall = time.perf_counter() - wall_t0
        cell = recorder.cell(
            f"{traffic.pattern}|remote|{args.connect}",
            {"traffic": {k: getattr(traffic, k) for k in
                         type(traffic).__dataclass_fields__},
             "connect": args.connect},
            traffic.duration_s, wall, service_counters=snapshot)
        report = build_report([cell])
    else:
        from repro.serve import run_benchmark

        faults, _, policy = _serve_fault_schedule(args, traffic.duration_s)
        balancers = args.balancer or ["selective", "round-robin"]
        report = run_benchmark(
            traffic, balancers, workers_per_place=args.workers,
            policy=policy, faults=faults, shared_cap=args.shared_cap,
            private_cap=args.private_cap, cold_factor=args.cold_factor,
            seed=args.seed)
    _write_serve_report(args, report)
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def _render_svgs(name: str, out):
    """Yield (filename, svg) pairs for an artifact with a series extra."""
    from repro.analysis import grouped_bar_chart, line_chart
    series = out.extra["series"]
    first = next(iter(series.values()))
    if isinstance(first, dict):
        # fig5 shape: {app: {scheduler: [values-per-worker-count]}}.
        workers = [row[2] for row in out.rows
                   if row[0] == next(iter(series))
                   and row[1] == "X10WS"]
        for app, per_sched in series.items():
            yield (f"{name}_{app}.svg",
                   line_chart(workers, per_sched,
                              title=f"{app}: speedup vs workers",
                              x_label="workers", y_label="speedup"))
    else:
        # fig6 shape: {scheduler: [values-per-app]}.
        groups = [row[0] for row in out.rows]
        yield (f"{name}.svg",
               grouped_bar_chart(groups, series,
                                 title=f"{name} (128 workers)",
                                 y_label="speedup"))


def _cell_flags(p, *, app=None, scheduler=None, places=None, workers=None,
                seed=False, seeds=None, scale=None, sched_arg=False) -> None:
    """Declare the grid flags a subcommand takes, with its defaults.

    They name a cell's inputs (a ``RunSpec`` and its seeds); a flag
    whose default is ``None`` (or ``False``) is left out.  String
    ``app``/``scheduler`` defaults name one cell; lists make both flags
    repeatable and are the grid :func:`_grid_cells` expands when
    neither flag is given.
    """
    if isinstance(app, str):
        p.add_argument("--app", default=app, choices=sorted(APP_REGISTRY))
        p.add_argument("--scheduler", default=scheduler,
                       help="registry name, any case (see `repro list`)")
    elif app is not None:
        p.add_argument("--app", action="append",
                       choices=sorted(APP_REGISTRY), metavar="APP",
                       help="application(s) (repeatable; default "
                            f"{','.join(app)})")
        p.add_argument("--scheduler", action="append", metavar="SCHED",
                       help="scheduler(s) (repeatable, case-insensitive; "
                            f"default {','.join(scheduler)})")
        p.set_defaults(grid_apps=app, grid_schedulers=scheduler)
    if places is not None:
        p.add_argument("--places", type=int, default=places)
        p.add_argument("--workers", type=int, default=workers,
                       help="workers per place in the simulated cluster")
    if seed:
        p.add_argument("--seed", type=int, default=12345,
                       help="application input seed")
    if seeds is not None:
        p.add_argument("--seeds", type=_positive_int, default=seeds,
                       metavar="N", help="scheduler seeds per cell")
    if scale is not None:
        p.add_argument("--scale", default=scale, choices=("bench", "test"))
    if sched_arg:
        p.add_argument("--sched-arg", action="append", metavar="KEY=VALUE",
                       help="set a scheduler knob (repeatable; see `repro "
                            "list`); across a grid each scheduler takes "
                            "the knobs it has")


def _exec_flags(p, *, parallel=True, store_required=False,
                store_help="finished cells replay instead of re-simulating;"
                " crash-resumable, drainable by `repro workers` on this "
                "host") -> None:
    """Declare the execution flags: a worker budget and a store."""
    if parallel:
        p.add_argument("--parallel", type=_positive_int, default=1,
                       metavar="N",
                       help="shard the cells over N processes (results "
                            "identical to serial)")
    p.add_argument("--store", required=store_required, metavar="PATH",
                   help="experiment store (SQLite job queue): "
                        + store_help)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ICPP'13 DistWS reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list apps, schedulers, artifacts")

    runp = sub.add_parser("run", help="run one simulation")
    _cell_flags(runp, app="turing", scheduler="DistWS", places=16,
                workers=8, seed=True, scale="bench", sched_arg=True)
    _exec_flags(runp, parallel=False, store_help="a bare run and its "
                "--faults calibration replay instead of re-simulating; an "
                "observed or traced run stores only the calibration")
    runp.add_argument("--sched-seed", type=int, default=1)
    runp.add_argument("--no-validate", action="store_true")
    runp.add_argument("--faults", metavar="SPEC",
                      help="fault-injection spec, e.g. "
                           "'crash:p2@0.4,loss:steal=0.05,policy:relax' "
                           "(see repro.faults.plan for the grammar)")
    runp.add_argument("--controller", metavar="NAME",
                      help="attach an online feedback controller "
                           "(aimd-chunk or idle-threshold)")
    # Observers.  Any of the first four attaches the event bus with a
    # metrics registry; --trace-json alone subscribes only its recorder.
    runp.add_argument("--chrome-trace", metavar="PATH",
                      help="write a Chrome trace-event file "
                           "(Perfetto / chrome://tracing); attaches the "
                           "event bus")
    runp.add_argument("--events", metavar="PATH",
                      help="stream every event as JSONL to PATH; "
                           "attaches the event bus")
    runp.add_argument("--snapshot", metavar="PATH",
                      help="write the full RunStats snapshot as JSON; on "
                           "its own it attaches the event bus too, so the "
                           "snapshot always carries the obs block")
    runp.add_argument("--sample-interval", type=float, default=None,
                      metavar="CYCLES",
                      help="queue-depth sampling period (default 100000 "
                           "whenever the bus is attached); on its own it "
                           "attaches the bus and prints the metric "
                           "histograms and event counts, writing nothing")
    runp.add_argument("--trace-json", metavar="PATH",
                      help="record the execution trace, write it as JSON "
                           "and print the critical path, per-place "
                           "timeline and steal flow")

    diffp = sub.add_parser("diff-stats",
                           help="compare two saved run snapshots")
    diffp.add_argument("baseline", help="baseline snapshot JSON")
    diffp.add_argument("candidate", help="candidate snapshot JSON")
    diffp.add_argument("--fail-over", type=float, metavar="PCT",
                       help="exit 1 if any numeric leaf changed by more "
                            "than PCT percent")

    repp = sub.add_parser("reproduce",
                          help="regenerate paper tables/figures")
    repp.add_argument("artifacts", nargs="*",
                      help=f"any of: {', '.join(EXPERIMENTS)}")
    _cell_flags(repp, scale="bench", sched_arg=True)
    _exec_flags(repp)
    repp.add_argument("--json-dir",
                      help="also write each artifact as JSON here")
    repp.add_argument("--svg-dir",
                      help="also render figures (fig5/fig6) as SVG here")

    enq = sub.add_parser("enqueue",
                         help="seed a durable experiment store with a "
                              "grid of cells (run nothing)")
    _cell_flags(enq, app=["uts", "quicksort", "dmg"],
                scheduler=["DistWS", "X10WS", "RandomWS"], places=8,
                workers=4, seed=True, seeds=3, scale="test", sched_arg=True)
    _exec_flags(enq, parallel=False, store_required=True)

    wrk = sub.add_parser("workers",
                         help="drain an experiment store: claim cells "
                              "under leases, heartbeat, commit "
                              "(crash-resumable)")
    _exec_flags(wrk, parallel=False, store_required=True)
    wrk.add_argument("--workers", type=_positive_int, default=1,
                     metavar="N",
                     help="worker processes to run on this machine")
    wrk.add_argument("--heartbeat", type=float, default=2.0,
                     metavar="SECONDS",
                     help="lease heartbeat period while simulating")
    wrk.add_argument("--lease", type=float, default=None,
                     metavar="SECONDS",
                     help="lease duration (default 5x heartbeat); a "
                          "lease that expires unheartbeaten is reaped")
    wrk.add_argument("--poll", type=float, default=0.2,
                     metavar="SECONDS",
                     help="idle poll period when nothing is pending")
    wrk.add_argument("--max-attempts", type=_positive_int, default=3,
                     help="leases a cell may burn before quarantine")
    wrk.add_argument("--events", metavar="PATH",
                     help="stream store lifecycle events (lease / "
                          "heartbeat_miss / reclaim / quarantine) as "
                          "JSONL")
    wrk.add_argument("--no-telemetry", action="store_true",
                     help="skip per-cell telemetry shipping (bare "
                          "pre-fleet drain)")
    wrk.add_argument("--trace-dir", metavar="DIR",
                     help="write one Chrome trace shard per cell here "
                          "(merge with `repro report`)")
    wrk.add_argument("--sample-interval", type=float, default=None,
                     metavar="CYCLES",
                     help="also sample queue depths every CYCLES "
                          "simulated cycles into the telemetry")

    qry = sub.add_parser("query",
                         help="inspect an experiment store's rows and "
                              "longitudinal results")
    _exec_flags(qry, parallel=False, store_required=True)
    qry.add_argument("--status",
                     choices=("pending", "leased", "done", "failed"))
    qry.add_argument("--app", choices=sorted(APP_REGISTRY))
    qry.add_argument("--scheduler")
    qry.add_argument("--limit", type=_positive_int, default=50,
                     help="rows shown (totals always cover everything)")
    qry.add_argument("--json", metavar="PATH",
                     help="also dump the matching rows as JSON")
    qry.add_argument("--rollup", action="store_true",
                     help="merge the matching cells' shipped telemetry "
                          "into fleet-wide metric histograms")
    qry.add_argument("--quarantined", action="store_true",
                     help="print quarantined cells with their captured "
                          "tracebacks")

    topp = sub.add_parser("top",
                          help="live dashboard over a store being "
                               "drained (read-only; safe beside "
                               "workers)")
    topp.add_argument("store", help="SQLite store file to watch")
    topp.add_argument("--interval", type=float, default=2.0,
                      metavar="SECONDS", help="refresh period")
    topp.add_argument("--iterations", type=int, default=0, metavar="N",
                      help="frames to draw (0 = until interrupted)")
    topp.add_argument("--failures", type=_positive_int, default=5,
                      help="recent failures shown")
    topp.add_argument("--window", type=float, default=60.0,
                      metavar="SECONDS",
                      help="trailing window for the fleet rate / ETA")
    topp.add_argument("--no-clear", dest="clear", action="store_false",
                      help="append frames instead of redrawing in place")

    repo = sub.add_parser("report",
                          help="static HTML/SVG sweep report + merged "
                               "Chrome trace from a store's telemetry")
    repo.add_argument("store", help="SQLite store file to report on")
    repo.add_argument("--out", default="sweep_report", metavar="DIR",
                      help="output directory (default sweep_report/)")

    tunep = sub.add_parser("tune",
                           help="search scheduler knobs (offline tuning)")
    _cell_flags(tunep, app=["uts"], scheduler=["DistWS"], places=4,
                workers=2, seed=True, seeds=2, scale="test")
    _exec_flags(tunep)
    tunep.add_argument("--engine", default="random",
                       choices=("grid", "random", "asha"))
    tunep.add_argument("--budget", type=_positive_int, default=None,
                       metavar="N",
                       help="trial budget (configs for grid/random, "
                            "total evaluations for asha)")
    tunep.add_argument("--search-seed", type=int, default=0,
                       help="seed for the random/asha samplers")
    tunep.add_argument("--eta", type=_positive_int, default=2,
                       help="asha promotion ratio (top 1/eta survive)")
    tunep.add_argument("--knob", action="append", metavar="NAME",
                       help="restrict the search to these knobs "
                            "(repeatable; default: all)")
    tunep.add_argument("--top", type=_positive_int, default=12,
                       help="ranked rows shown per cell")
    tunep.add_argument("--json", metavar="PATH",
                       help="write the full report as JSON")

    theoryp = sub.add_parser("theory",
                             help="validate makespans against the "
                                  "W/p + c*lambda*log2(W) latency bound")
    _cell_flags(theoryp, app=["uts"], scheduler=["RandomWS", "DistWS"],
                places=4, workers=2, seed=True, seeds=5, scale="test")
    _exec_flags(theoryp)
    theoryp.add_argument("--quick", action="store_true",
                         help="small 4-point lambda grid (CI smoke)")
    theoryp.add_argument("--lambda", dest="lambdas", action="append",
                         type=float, metavar="CYCLES",
                         help="explicit net_latency grid point in "
                              "cycles (repeatable; overrides --quick; "
                              "must exceed the local-steal cost)")
    theoryp.add_argument("--out", metavar="DIR", default=".",
                         help="write theory_<app>.svg + "
                              "theory_verdict.json here (default: cwd)")

    def _serve_common(p, *, loadgen: bool) -> None:
        """Flags shared by ``serve`` and ``loadgen``."""
        from repro.serve import BALANCERS, PATTERNS
        if loadgen:
            p.add_argument("--balancer", action="append",
                           choices=sorted(BALANCERS), metavar="NAME",
                           help="balancer(s) to benchmark (repeatable; "
                                "default selective,round-robin)")
        else:
            p.add_argument("--balancer", default="selective",
                           choices=sorted(BALANCERS),
                           help="load balancer (default selective = "
                                "Algorithm 1 local-first stealing)")
        p.add_argument("--places", type=_positive_int, default=4,
                       help="place processes (default 4)")
        p.add_argument("--workers", type=_positive_int, default=2,
                       help="asyncio workers per place (default 2)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--shared-cap", type=_positive_int, default=256,
                       help="bounded shared-deque depth per place "
                            "(overflow is shed)")
        p.add_argument("--private-cap", type=_positive_int, default=64,
                       help="bounded private-deque depth per worker")
        p.add_argument("--cold-factor", type=float, default=2.0,
                       help="service-time multiplier off the home place "
                            "(cache-affinity cost; default 2.0)")
        p.add_argument("--faults", metavar="SPEC",
                       help="crash schedule, e.g. "
                            "'crash:p1@0.5,policy:relax' (crash/policy/"
                            "seed tokens only; fractions of the trace "
                            "duration in loadgen, absolute seconds in "
                            "serve)")
        if loadgen:
            p.add_argument("--policy", default="fail",
                           choices=("fail", "relax"),
                           help="sticky-session failover policy when no "
                                "--faults spec names one")
            p.add_argument("--pattern", default="poisson",
                           choices=PATTERNS)
            p.add_argument("--rate", type=float, default=200.0,
                           help="mean offered load, requests/sec")
            p.add_argument("--duration", type=float, default=5.0,
                           metavar="SECONDS")
            p.add_argument("--sticky-fraction", type=float, default=0.5,
                           help="fraction of requests that are sticky "
                                "sessions (locality-sensitive)")
            p.add_argument("--service-ms", type=float, default=10.0,
                           help="warm per-request service time")
            p.add_argument("--service-jitter", type=float, default=0.2)
            p.add_argument("--cpu-ms", type=float, default=0.0,
                           help="real GIL-holding CPU burn per request")
            p.add_argument("--skew", type=float, default=1.5,
                           help="Zipf exponent of the home-place "
                                "distribution (0 = uniform)")
            p.add_argument("--hot-place", type=int, default=0)

    servep = sub.add_parser("serve",
                            help="run the live serving tier (one process "
                                 "per place) behind a TCP frontend")
    _serve_common(servep, loadgen=False)
    servep.add_argument("--host", default="127.0.0.1")
    servep.add_argument("--port", type=int, default=0,
                        help="frontend port (default: OS-assigned, "
                             "printed at startup)")

    loadp = sub.add_parser("loadgen",
                           help="replay an open-loop traffic trace "
                                "against the serving tier; latency "
                                "report")
    _serve_common(loadp, loadgen=True)
    loadp.add_argument("--connect", metavar="HOST:PORT",
                       help="drive a running `repro serve` instead of "
                            "an embedded service")
    loadp.add_argument("--out", metavar="PATH",
                       help="write the JSON latency report here")
    loadp.add_argument("--svg", metavar="PATH",
                       help="write the latency percentile figure here")

    args = parser.parse_args(argv)
    from repro.errors import ConfigError
    from repro.harness.db import graceful_signals
    try:
        with graceful_signals():
            if args.command == "list":
                return _cmd_list(args)
            if args.command == "run":
                return _cmd_run(args)
            if args.command == "diff-stats":
                return _cmd_diff_stats(args)
            if args.command == "tune":
                return _cmd_tune(args)
            if args.command == "enqueue":
                return _cmd_enqueue(args)
            if args.command == "workers":
                return _cmd_workers(args)
            if args.command == "query":
                return _cmd_query(args)
            if args.command == "top":
                return _cmd_top(args)
            if args.command == "report":
                return _cmd_report(args)
            if args.command == "theory":
                return _cmd_theory(args)
            if args.command == "serve":
                return _cmd_serve(args)
            if args.command == "loadgen":
                return _cmd_loadgen(args)
            return _cmd_reproduce(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Held leases were released and helper processes terminated
        # and joined on the way out; exit with the interrupt code.
        print("\ninterrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
