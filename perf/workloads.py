"""The benchmark's four workloads.

Every workload has the same shape.  ``imports`` lists the modules whose
cold import is part of its set-up, and ``cpu_bound`` says whether its
times follow this process's CPU speed (see :func:`ruler`).
``setup(seed, smoke)`` builds the
state one run measures against, ``unit(state, index, profiler)`` runs
one repetition of the measured work and returns a :class:`Unit`, and
``close(state)`` tears the state down and returns counters that span
the whole run.  The runner in ``run.py`` owns timing budgets, medians,
tracing and the correctness gate.

The seed drives every random choice the system makes: steal victims in
the simulator, dispatch fallbacks and steal-victim order in the serving
tier.  Inputs stay fixed (``APP_SEED``, ``TRAFFIC_SEED``): the size of a
UTS tree varies sixfold across input seeds, and the tail latency of an
arrival trace at the knee by a third, which would make the metrics
measure the seed instead of the code.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

APP_SEED = 12345

#: The paper's cluster, 16 places of 8 workers.  Inputs are cut from the
#: bench presets so one pass fits the run budget (see README).
STORM_CLUSTER = (16, 8)
STORM_CELLS = (
    ("uts", "DistWS", {"decay": 0.86}),
    ("uts", "X10WS", {"decay": 0.86}),
    ("turing", "DistWS", {"iterations": 2}),
    ("turing", "X10WS", {"iterations": 2}),
    ("kmeans", "DistWS", {"iterations": 2}),
)
OBSERVED_CELLS = (STORM_CELLS[0], STORM_CELLS[3], STORM_CELLS[4])

#: The three-scheduler matrix of Tables II/III and Figs. 6/7 at test
#: scale on 8 places of 4 workers.
REPRODUCE_CLUSTER = (8, 4)

#: Live serving: 2 places x 2 workers, Zipf-skewed homes, half sticky,
#: 10 ms service.  200 r/s loads the hot place well enough that queues
#: form and the balancer moves work (p99 near 45 ms against a p50 near
#: 13), and stays far enough below the knee (about 285 r/s) that a
#: slower host does not tip it over: at 260 r/s the p99 of ten runs of
#: the same code spread by two fifths on a busy host.  A unit (phase
#: plus backlog) takes about 3.5 s, so a 25 s budget fits six or seven,
#: pooling about 3,000 requests.
SERVE_PLACES = 2
SERVE_WORKERS = 2
SERVE_RATE = 200.0
SERVE_PHASE_S = 2.5
SERVE_BURST = 200
SERVE_WARMUP = 40
#: Arrival traces are inputs, fixed like ``APP_SEED``: at the knee the
#: p99 of one Poisson trace differs from another's by a third, which
#: would make the tail measure the trace instead of the system.
TRAFFIC_SEED = APP_SEED
#: Queue bounds high enough that a burst is queued, never shed.
SERVE_SHARED_CAP = 2048
SERVE_PRIVATE_CAP = 1024
COMPLETION_TIMEOUT = 30.0
#: An arrival submitted later than this after its due time was delayed
#: by the generator; past 1% of arrivals the run measured the generator,
#: not the system, and is flagged invalid.
LATE_MS = 5.0

#: The capacity ladder: open-loop rungs ``RUNG_STEP`` r/s apart, each
#: ``RUNG_S`` long, climbing from ``RUNG_START`` while rungs pass or
#: descending while they fail.  A rung passes when its p99 is at most
#: ``CAPACITY_P99_MS``, no request failed, and the last completion lands
#: within ``BACKLOG_S`` of the last arrival (the backlog is not growing).
CAPACITY_P99_MS = 100.0
BACKLOG_S = 1.0
RUNG_START = 260.0
RUNG_STEP = 20.0
RUNG_S = 6.0
MAX_RUNGS = 6

SMOKE_CLUSTER = (4, 2)

#: What one ruler reading takes at the host speed CPU-bound times are
#: reported at (the fast one of the two speeds the 2-core host that
#: recorded ``baseline.json`` switches between).
RULER_NOMINAL_S = 0.00045
RULER_ITERATIONS = 4000
#: How often a :class:`SpeedClock` reads the ruler while timed code runs.
SAMPLE_PERIOD_S = 0.02


def ruler() -> float:
    """Seconds a fixed pure-Python loop takes right now (about 0.5 ms).

    A shared host's speed can switch between levels 40% apart several
    times a second as neighbours come and go, and CPU time follows it.
    CPU-bound timings are scaled by ruler readings taken while they run
    (:class:`SpeedClock`), so they read as if run at one fixed host
    speed.  The loop is part of the benchmark, not the package, so no
    change to the program can move it.
    """
    t0 = time.perf_counter()
    acc = 0
    table: Dict[int, int] = {}
    items: List[int] = []
    for i in range(RULER_ITERATIONS):
        acc += i * 3 + (i >> 2)
        if i & 7 == 0:
            table[i & 1023] = acc
            items.append(i)
            if len(items) > 64:
                items.pop(0)
    return time.perf_counter() - t0


#: The clocks whose blocks are running, outermost first.  A reading
#: counts for every one of them.
_CLOCKS: List["SpeedClock"] = []
_READING = False


def _read(clocks) -> None:
    global _READING
    if _READING:
        return
    _READING = True
    try:
        start = time.perf_counter()
        reading = ruler()
        span = (start, time.perf_counter() - start)
    finally:
        _READING = False
    for clock in clocks:
        clock.readings.append(reading)
        clock.spans.append(span)


def _on_alarm(signum, frame) -> None:
    _read(_CLOCKS)


def _sampling(on: bool) -> None:
    import signal

    if on:
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                         SAMPLE_PERIOD_S)
    else:
        # The handler stays installed: a signal already raised finds
        # it, and reads for no clock once none is running.
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


class SpeedClock:
    """Times a block of CPU-bound code at nominal host speed.

    ``with SpeedClock() as clock:`` reads the ruler on entry, every
    ``SAMPLE_PERIOD_S`` while the block runs (from a ``SIGALRM``
    handler, between the timed code's bytecodes) and on exit.  Readings
    before and after a step a second long followed the host's speed
    too coarsely: sampled, a repeated cell's time spreads two to three
    times less.  :meth:`own` is a span's wall time minus the readings
    taken inside it, and :meth:`scale` the factor that takes it to
    nominal speed.  With ``sample=False`` (under cProfile, so that no
    reading lands in the profile) only the entry and exit readings are
    taken.  Clocks nest.
    """

    def __init__(self, sample: bool = True) -> None:
        self.sample = sample
        self.readings: List[float] = []
        self.spans: List[tuple] = []      # (start, seconds) per reading

    def __enter__(self) -> "SpeedClock":
        _read(_CLOCKS + [self])
        self.start = time.perf_counter()
        if self.sample and not any(c.sample for c in _CLOCKS):
            _sampling(True)
        _CLOCKS.append(self)
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        _CLOCKS.remove(self)
        if self.sample and not any(c.sample for c in _CLOCKS):
            _sampling(False)
        _read(_CLOCKS + [self])

    def own(self, start: Optional[float] = None,
            end: Optional[float] = None) -> float:
        """Wall seconds from ``start`` to ``end`` (default: the block)
        less the ruler readings taken in between."""
        start = self.start if start is None else start
        end = self.end if end is None else end
        inside = sum(s for t, s in self.spans if start <= t < end)
        return end - start - inside

    def scale(self) -> float:
        """Nominal over actual speed, averaged over the block's time."""
        return (sum(RULER_NOMINAL_S / r for r in self.readings)
                / len(self.readings))

    def seconds(self) -> float:
        """The block's own time at nominal host speed."""
        return self.own() * self.scale()


@dataclass
class Unit:
    """One repetition of a workload's measured work."""

    wall: float                      # the unit's reported wall time (s)
    #: Latency per operation (a simulated cell, a served request).  An
    #: operation repeated across units counts once, at its median.
    latency_ms: Dict[str, float]
    attempted: int
    failed: int
    counters: Dict[str, float] = field(default_factory=dict)
    #: Output digests by name; equal across units and, for the seeds in
    #: ``expected.json``, equal to the committed ones.
    digests: Dict[str, str] = field(default_factory=dict)


def digest(obj) -> str:
    """SHA-256 of an object's canonical JSON form."""
    data = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def cell_key(cell) -> str:
    return f"{cell[0]}|{cell[1]}"


def sim_counters(stats_list, events: Optional[int] = None) -> Dict[str, float]:
    """Per-layer counters pooled over the cells of one unit."""
    attempts = hits = remote_attempts = remote_hits = 0
    tasks = failed_rounds = cache_hits = cache_misses = messages = 0
    obs_events = 0
    for st in stats_list:
        s = st.steals
        attempts += s.total_attempts
        hits += s.total_steals
        remote_attempts += s.remote_attempts
        remote_hits += s.remote_hits
        failed_rounds += s.failed_rounds
        tasks += st.tasks_executed
        cache_hits += st.cache_hits
        cache_misses += st.cache_misses
        messages += st.messages
        if st.obs is not None:
            obs_events += sum(st.obs["events"].values())
    lookups = cache_hits + cache_misses
    out = {
        "runtime.tasks": tasks,
        "runtime.failed_rounds": failed_rounds,
        "sched.steal_attempts": attempts,
        "sched.steal_hit_ratio": hits / attempts if attempts else 0.0,
        "sched.remote_hit_ratio": (remote_hits / remote_attempts
                                   if remote_attempts else 0.0),
        "cluster.cache_miss_ratio": cache_misses / lookups if lookups else 0.0,
        "cluster.messages": messages,
        "obs.events": obs_events,
    }
    if events is not None:
        out["sim.events"] = events
    return out


# ---------------------------------------------------------------------------
# Simulator cells run in process.

def run_cell(cell, seed: int, smoke: bool, observe: bool = False,
             profiler=None):
    """Build and simulate one cell; returns ``(seconds, stats,
    kernel_events)``, ``seconds`` at nominal host speed."""
    from repro import ClusterSpec, SimRuntime, make_scheduler
    from repro.apps import make_app

    app_name, scheduler, overrides = cell
    places, workers = SMOKE_CLUSTER if smoke else STORM_CLUSTER
    with SpeedClock(sample=profiler is None) as clock:
        if profiler is not None:
            profiler.enable()
        rt = SimRuntime(ClusterSpec(n_places=places,
                                    workers_per_place=workers,
                                    max_threads=workers + 4),
                        make_scheduler(scheduler), seed=seed)
        app = make_app(app_name, scale="test" if smoke else "bench",
                       seed=APP_SEED, **({} if smoke else overrides))
        if observe:
            # What ``repro.obs.fleet.observe_run`` attaches to every cell
            # a store worker drains.
            from repro.obs import EventBus, MetricsRegistry
            bus = EventBus()
            bus.subscribe(MetricsRegistry())
            bus.attach(rt)
        stats = app.run(rt, validate=True)
        if profiler is not None:
            profiler.disable()
    return clock.seconds(), stats, rt.env.events_processed


def bare_digest(stats) -> str:
    """Digest of a run's snapshot without the observation block."""
    snap = stats.snapshot()
    snap.pop("obs", None)
    return digest(snap)


class StealStorm:
    """Bare simulator cells with tiny task bodies: kernel, steal scan
    and scheduler policy carry the time."""

    name = "steal-storm"
    imports = ("repro", "repro.apps")
    cpu_bound = True
    cells = STORM_CELLS
    observe = False

    def setup(self, seed: int, smoke: bool) -> dict:
        for module in self.imports:
            __import__(module)
        # One untimed test-scale cell warms lazy imports and caches.
        run_cell(("uts", "DistWS", {}), seed, smoke=True,
                 observe=self.observe)
        return {"seed": seed, "smoke": smoke}

    def unit(self, state: dict, index: int, profiler=None) -> Unit:
        walls, stats_list, digests = [], [], {}
        events = 0
        for cell in self.cells:
            wall, stats, ev = run_cell(cell, state["seed"], state["smoke"],
                                       observe=self.observe,
                                       profiler=profiler)
            walls.append(wall)
            stats_list.append(stats)
            events += ev
            digests[cell_key(cell)] = bare_digest(stats)
        counters = sim_counters(stats_list, events)
        return Unit(wall=sum(walls),
                    latency_ms={cell_key(cell): w * 1e3
                                for cell, w in zip(self.cells, walls)},
                    attempted=len(self.cells), failed=0,
                    counters=counters, digests=digests)

    def close(self, state: dict) -> dict:
        return {}


class StealStormObserved(StealStorm):
    """The same layers with the metrics bus attached, as every
    store-drained cell runs by default."""

    name = "steal-storm-observed"
    imports = ("repro", "repro.apps", "repro.obs")
    cells = OBSERVED_CELLS
    observe = True

    def close(self, state: dict) -> dict:
        """Observation must not change what is simulated: each cell's
        observed snapshot, ``obs`` block stripped, equals a bare run."""
        bare = {}
        for cell in self.cells:
            _, stats, _ = run_cell(cell, state["seed"], state["smoke"])
            bare[cell_key(cell)] = bare_digest(stats)
        return {"bare_digests": bare}


# ---------------------------------------------------------------------------
# The paper's reproduce path: store drain + four rendered artifacts.

class ReproducePaper:
    """The matrix is drained one cell at a time through one store, in
    this process, where :class:`SpeedClock` can sample the host's speed.
    One two-worker drain of the whole matrix swung by a sixth from run
    to run (claim order, and which core a neighbour slowed), wider than
    any bound a regression gate can use."""

    name = "reproduce-paper"
    imports = ("repro", "repro.apps", "repro.harness.paper",
               "repro.harness.db", "repro.obs.fleet")
    cpu_bound = True

    def _cells(self, seed: int, smoke: bool):
        """``(apps, [((app, scheduler), CellRequest), ...])``."""
        from repro import ClusterSpec
        from repro.apps import PAPER_APPS
        from repro.harness.paper import MAIN_SCHEDULERS
        from repro.harness.parallel import CellRequest

        places, workers = SMOKE_CLUSTER if smoke else REPRODUCE_CLUSTER
        spec = ClusterSpec(n_places=places, workers_per_place=workers,
                           max_threads=workers + 4)
        apps = PAPER_APPS[:2] if smoke else PAPER_APPS
        return apps, [((app, sched),
                       CellRequest.build(app, sched, spec, sched_seeds=(seed,),
                                         scale="test", validate=True))
                      for app in apps for sched in MAIN_SCHEDULERS]

    def _new_store(self, state: dict):
        from repro.harness.db import ExperimentStore

        path = os.path.join(state["dir"], f"unit{state['stores']}.db")
        state["stores"] += 1
        state["store"] = ExperimentStore(path)

    def setup(self, seed: int, smoke: bool) -> dict:
        for module in self.imports:
            __import__(module)
        run_cell(("uts", "DistWS", {}), seed, smoke=True)
        apps, cells = self._cells(seed, smoke)
        state = {"seed": seed, "smoke": smoke, "apps": apps, "cells": cells,
                 "stores": 0,
                 "dir": tempfile.mkdtemp(prefix="reproduce-",
                                         dir=work_dir())}
        self._new_store(state)
        return state

    def unit(self, state: dict, index: int, profiler=None) -> Unit:
        from repro.harness.paper import fig6, fig7, table2, table3
        from repro.harness.parallel import execution, run_cells

        def timed(fn):
            with SpeedClock(sample=profiler is None) as clock:
                if profiler is not None:
                    profiler.enable()
                out = fn()
                if profiler is not None:
                    profiler.disable()
            return out, clock.seconds()

        apps, store = state["apps"], state["store"]
        cells, latency, wall = {}, {}, 0.0
        with execution(store=store):
            for cell, request in state["cells"]:
                # A cell's time through the store: claim, simulate, ship
                # telemetry, complete.
                (result,), seconds = timed(lambda: run_cells([request]))
                wall += seconds
                cells[cell] = result
                latency[cell_key(cell)] = seconds * 1e3
            artifacts, seconds = timed(lambda: [
                table2(apps, cells=cells), table3(apps, cells=cells),
                fig6(apps, cells=cells), fig7(apps, cells=cells)])
            wall += seconds
        telemetry = store.telemetry_rows()
        rows = store.rows()
        store.close()
        self._new_store(state)
        stats_list = [run.stats for cell in cells.values()
                      for run in cell.runs]
        counters = sim_counters(stats_list)
        counters["obs.events"] = sum(sum(t.data["obs"]["events"].values())
                                     for t in telemetry)
        counters["harness.store_attempts"] = sum(r.attempts for r in rows)
        counters["harness.telemetry_rows"] = len(telemetry)
        not_done = sum(1 for r in rows if r.status != "done")
        rendered = "\n".join(a.rendered for a in artifacts)
        return Unit(wall=wall, latency_ms=latency, attempted=len(rows),
                    failed=not_done, counters=counters,
                    digests={self.name: digest(rendered)})

    def close(self, state: dict) -> dict:
        state["store"].close()
        shutil.rmtree(state["dir"], ignore_errors=True)
        return {}


# ---------------------------------------------------------------------------
# The live serving tier.

def request_failed(rec) -> bool:
    """A request must end ``ok``, a sticky one at home."""
    if rec.outcome != "ok" or not rec.future.done():
        return True
    return not rec.task["flexible"] and rec.place != rec.task["home"]


def ledger_errors(snapshot: dict) -> List[str]:
    """Exactly-once checks over a stopped service's counters.

    In a run without faults every offered request runs exactly once, so
    the places' executions must equal the router's offers, and no
    response may be a duplicate or a request be re-dispatched.
    """
    router = snapshot["router"]
    executed = sum(p.get("executed", 0)
                   for p in snapshot["places"].values())
    offered = router.get("offered", 0)
    errors = []
    if executed != offered:
        errors.append(f"serve: places executed {executed} requests, "
                      f"the router offered {offered}")
    for key in ("duplicate_responses", "redispatched"):
        if router.get(key, 0):
            errors.append(f"serve: router counted {router[key]} {key}")
    return errors


def rung_verdict(latencies_ms: List[float], failed: int, last_due: float,
                 last_done: float) -> tuple:
    """``(passed, p99_ms)`` of one rung under the capacity rule (see
    ``CAPACITY_P99_MS``)."""
    from repro.serve.recorder import exact_percentile

    p99 = exact_percentile(sorted(latencies_ms), 0.99)
    passed = (failed == 0 and bool(latencies_ms) and p99 <= CAPACITY_P99_MS
              and last_done - last_due <= BACKLOG_S)
    return passed, p99


def climb(start: float, run_rung, step: float = RUNG_STEP,
          max_rungs: int = MAX_RUNGS) -> float:
    """Capacity in r/s from a ladder of rungs.

    ``run_rung(rate)`` returns ``(passed, p99_ms)``.  The ladder starts
    at ``start`` and moves one ``step`` up while rungs pass, or down
    while they fail, until the verdict flips or ``max_rungs`` ran.  The
    result is the highest passing rate plus the share of a step at which
    p99 reaches ``CAPACITY_P99_MS``, interpolated linearly towards the
    failing rung above it: a whole-rung answer would read the same on
    most runs and hide any change smaller than a rung.  0 when no rung
    passed; the highest rate tried when none failed.
    """
    results = {}
    rate = start
    for _ in range(max_rungs):
        if rate <= 0:
            break
        results[rate] = run_rung(rate)
        passed = results[rate][0]
        if passed != results[start][0]:
            break
        rate += step if passed else -step
    passing = [r for r, (ok, _) in results.items() if ok]
    if not passing:
        return 0.0
    best = max(passing)
    above = results.get(best + step)
    if above is None:
        return best
    p99_pass, p99_fail = results[best][1], above[1]
    if p99_fail <= CAPACITY_P99_MS:
        return best
    return best + step * (CAPACITY_P99_MS - p99_pass) / (p99_fail - p99_pass)


class ServeHotspot:
    name = "serve-hotspot"
    imports = ("repro.serve.service", "repro.serve.traffic")
    #: Set-up waits on spawned place processes and sockets, and requests
    #: mostly on sleeps: scaling by the ruler doubled the set-up spread.
    cpu_bound = False

    def _arrivals(self, state: dict, seed: int, rate: float,
                  duration_s: float, backlog: Optional[int] = None):
        """A seeded Poisson trace, numbered after every earlier request.
        With ``backlog``, its first ``backlog`` requests, all due at once."""
        from repro.serve.traffic import TrafficSpec, make_trace

        arrivals = make_trace(TrafficSpec(
            pattern="poisson", n_places=SERVE_PLACES, rate=rate,
            duration_s=duration_s, seed=seed, sticky_fraction=0.5,
            service_ms=10.0, skew=1.5))
        if backlog is not None:
            arrivals = [dataclasses.replace(a, t=0.0)
                        for a in arrivals[:backlog]]
        offset = state["next_id"]
        state["next_id"] += len(arrivals)
        return [dataclasses.replace(a, rid=a.rid + offset) for a in arrivals]

    def _backlog(self, state: dict, seed: int, count: int):
        # Twice the requests needed, on average, to cut ``count`` from.
        return self._arrivals(state, seed, 4.0 * count, 0.5, backlog=count)

    async def _drive(self, service, arrivals) -> dict:
        """Replay ``arrivals`` open loop; time each from its due time."""
        t0 = time.perf_counter() + 0.01
        sent, lags_ms = [], []
        for arrival in arrivals:
            due = t0 + arrival.t
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lags_ms.append((time.perf_counter() - due) * 1e3)
            sent.append((due, await service.submit(arrival.payload())))
        pending = [rec.future for _, rec in sent if not rec.future.done()]
        if pending:
            await asyncio.wait(pending, timeout=COMPLETION_TIMEOUT)
        failed = sum(1 for _, rec in sent if request_failed(rec))
        done = [rec.t_done for _, rec in sent if rec.t_done is not None]
        return {"latency_ms": {f"r{rec.task['id']}": (rec.t_done - due) * 1e3
                               for due, rec in sent
                               if rec.t_done is not None},
                "lags_ms": lags_ms, "start": t0,
                "last_due": t0 + arrivals[-1].t,
                "last_done": max(done) if done else float("nan"),
                "attempted": len(sent), "failed": failed}

    def setup(self, seed: int, smoke: bool) -> dict:
        from repro.serve.service import ServeService

        loop = asyncio.new_event_loop()
        service = ServeService(
            n_places=SERVE_PLACES, workers_per_place=SERVE_WORKERS,
            balancer="selective", seed=seed,
            shared_cap=SERVE_SHARED_CAP, private_cap=SERVE_PRIVATE_CAP)
        state = {"loop": loop, "service": service, "next_id": 0,
                 "smoke": smoke, "attempted": 0, "failed": 0,
                 "rate": SERVE_RATE / 2 if smoke else SERVE_RATE,
                 "phase_s": 1.0 if smoke else SERVE_PHASE_S,
                 "burst": SERVE_BURST // 4 if smoke else SERVE_BURST}
        loop.run_until_complete(service.start())
        # A small backlog opens the lazy place-to-place steal links.
        warmup = self._backlog(state, TRAFFIC_SEED * 1000 - 1, SERVE_WARMUP)
        loop.run_until_complete(self._drive(service, warmup))
        return state

    def unit(self, state: dict, index: int, profiler=None) -> Unit:
        loop, service = state["loop"], state["service"]
        seed = TRAFFIC_SEED * 1000 + 2 * index
        phase_arrivals = self._arrivals(state, seed, state["rate"],
                                        state["phase_s"])
        burst_arrivals = self._backlog(state, seed + 1, state["burst"])
        if profiler is not None:
            profiler.enable()
        phase = loop.run_until_complete(self._drive(service, phase_arrivals))
        burst = loop.run_until_complete(self._drive(service, burst_arrivals))
        if profiler is not None:
            profiler.disable()
        lags = phase["lags_ms"]
        counters = {"serve.loadgen.late_ratio":
                    sum(1 for lag in lags if lag > LATE_MS) / len(lags)}
        return Unit(wall=burst["last_done"] - burst["start"],
                    latency_ms=phase["latency_ms"],
                    attempted=phase["attempted"] + burst["attempted"],
                    failed=phase["failed"] + burst["failed"],
                    counters=counters)

    def traced_counters(self, state: dict) -> dict:
        """Climb the capacity ladder (traced runs only: it has no bound,
        and an untraced run's budget goes to the 200 r/s point)."""
        loop, service = state["loop"], state["service"]

        def run_rung(rate: float) -> tuple:
            arrivals = self._arrivals(
                state, TRAFFIC_SEED * 1000 + 500 + int(rate), rate,
                2.0 if state["smoke"] else RUNG_S)
            out = loop.run_until_complete(self._drive(service, arrivals))
            state["attempted"] += out["attempted"]
            state["failed"] += out["failed"]
            return rung_verdict(list(out["latency_ms"].values()),
                                out["failed"], out["last_due"],
                                out["last_done"])

        capacity = climb(state["rate"] if state["smoke"] else RUNG_START,
                         run_rung,
                         max_rungs=2 if state["smoke"] else MAX_RUNGS)
        return {"serve.service.capacity_rps": capacity}

    def close(self, state: dict) -> dict:
        loop, service = state["loop"], state["service"]
        try:
            loop.run_until_complete(service.stop())
            loop.run_until_complete(loop.shutdown_default_executor())
        finally:
            loop.close()
        snap = service.snapshot()
        router = snap["router"]
        places = snap["places"].values()
        probes = sum(p.get("steal_probes", 0) for p in places)
        hits = sum(p.get("steal_hits", 0) for p in places)
        executed = sum(p.get("executed", 0) for p in places)
        warm = sum(p.get("executed_warm", 0) for p in places)
        counters = {
            "serve.service.migrations_per_req": (
                router.get("migrations", 0)
                / max(router.get("offered", 0), 1)),
            "serve.place.steal_hit_ratio": hits / probes if probes else 0.0,
            "serve.place.warm_ratio": warm / executed if executed else 0.0,
        }
        return {"counters": counters, "errors": ledger_errors(snap),
                "attempted": state["attempted"], "failed": state["failed"]}


WORKLOADS = {wl.name: wl for wl in (StealStorm(), StealStormObserved(),
                                    ReproducePaper(), ServeHotspot())}


_WORK: Optional[str] = None


def work_dir() -> str:
    """This process's scratch directory (stores, temp files): a fresh
    directory under ``.perf_work/`` in the checkout, created on first use
    and deleted by :func:`remove_work_dir`."""
    global _WORK
    if _WORK is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        parent = os.path.join(root, ".perf_work")
        os.makedirs(parent, exist_ok=True)
        _WORK = tempfile.mkdtemp(dir=parent)
    return _WORK


def remove_work_dir() -> None:
    """Delete this process's scratch directory, and ``.perf_work/`` too
    once no other run holds a directory there."""
    global _WORK
    if _WORK is None:
        return
    shutil.rmtree(_WORK, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(_WORK))
    except OSError:
        pass
    _WORK = None
