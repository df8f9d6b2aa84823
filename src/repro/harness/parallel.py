"""Parallel sharded experiment execution over the experiment store.

The paper's evaluation (§VIII) is a grid: every (application, scheduler,
cluster, seed) cell is one independent, deterministic simulation.  This
module runs that grid through the :mod:`repro.harness.db` experiment
store — the one backend that memoises cells and spreads them over
helper processes — so ``examples/reproduce_paper.py`` scales with the
host's cores and repeated runs against the same store (including the
``--faults`` calibration pre-runs) skip simulation entirely.

Two layers:

- :class:`RunSpec` — a frozen, picklable description of *one* simulation
  run.  Its :meth:`RunSpec.cache_key` is a stable SHA-256 over every
  input that can change the resulting :class:`RunStats` (app + scale +
  seeds, scheduler + kwargs, cluster spec, cost model, fault plan), so
  equal keys imply byte-identical ``RunStats.snapshot()`` output; it is
  the store's row key.
- :class:`ExecutionContext` — how runs execute right now: a worker
  budget (``parallel``) and optionally a durable
  :class:`~repro.harness.db.ExperimentStore` job queue.  A parallel
  grid without a store drains a private, telemetry-off store in a
  temporary directory.  The active context is process-global and
  installed with :func:`execution`; the serial default keeps every
  existing entry point byte-identical to the pre-parallel behaviour.

Determinism contract: a cell's result depends only on its
:class:`RunSpec`.  Sharding changes *where* a cell simulates, never its
seeds, so for any worker count (and any store state) the grid's
``RunStats.snapshot()`` JSON is byte-identical to serial execution.
Only ``RunResult.wall_seconds`` (host-side timing) varies between
executions; it never enters a snapshot.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.cluster.topology import ClusterSpec, paper_cluster
from repro.errors import ConfigError

#: Bump when the simulation's observable behaviour changes in a way the
#: spec payload cannot express (schema migrations invalidate old entries).
CACHE_SCHEMA_VERSION = 1


def _freeze_kwargs(kwargs: Optional[dict]) -> Tuple[Tuple[str, object], ...]:
    """Canonicalise an optional kwargs dict into a sorted item tuple."""
    if not kwargs:
        return ()
    return tuple(sorted(kwargs.items()))


def _jsonable(value):
    """Recursively convert specs/cost models/fault plans to JSON shapes."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): _jsonable(value[k]) for k in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """Everything that determines one simulation run's statistics."""

    app: str
    scheduler: str
    spec: ClusterSpec
    app_seed: int = 12345
    sched_seed: int = 1
    scale: str = "bench"
    costs: CostModel = DEFAULT_COST_MODEL
    validate: bool = True
    #: Sorted ``(key, value)`` items; use :meth:`build` to pass dicts.
    sched_kwargs: Tuple[Tuple[str, object], ...] = ()
    app_overrides: Tuple[Tuple[str, object], ...] = ()
    fault_plan: Optional[object] = None  # a resolved FaultPlan, or None

    @classmethod
    def build(cls, app: str, scheduler: str,
              spec: Optional[ClusterSpec] = None,
              app_seed: int = 12345, sched_seed: int = 1,
              scale: str = "bench",
              costs: CostModel = DEFAULT_COST_MODEL,
              validate: bool = True,
              sched_kwargs: Optional[dict] = None,
              app_overrides: Optional[dict] = None,
              fault_plan=None) -> "RunSpec":
        """Normalising constructor: ``None`` spec is the paper cluster,
        kwargs dicts are frozen to sorted item tuples."""
        return cls(app=app, scheduler=scheduler,
                   spec=spec or paper_cluster(),
                   app_seed=app_seed, sched_seed=sched_seed, scale=scale,
                   costs=costs, validate=validate,
                   sched_kwargs=_freeze_kwargs(sched_kwargs),
                   app_overrides=_freeze_kwargs(app_overrides),
                   fault_plan=fault_plan)

    def payload(self) -> Dict[str, object]:
        """Canonical JSON-shaped view of every result-determining input."""
        return {
            "version": CACHE_SCHEMA_VERSION,
            "app": self.app,
            "scheduler": self.scheduler,
            "spec": _jsonable(self.spec),
            "app_seed": self.app_seed,
            "sched_seed": self.sched_seed,
            "scale": self.scale,
            "costs": _jsonable(self.costs),
            "validate": self.validate,
            "sched_kwargs": _jsonable(dict(self.sched_kwargs)),
            "app_overrides": _jsonable(dict(self.app_overrides)),
            "fault_plan": _jsonable(self.fault_plan),
        }

    def cache_key(self) -> str:
        """Stable content hash: equal keys => byte-identical snapshots."""
        canon = json.dumps(self.payload(), sort_keys=True,
                           separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def simulate(spec: RunSpec, bus=None):
    """Execute one :class:`RunSpec` in this process.

    The inline path and every store worker (coordinator or helper) call
    this; it builds a fresh app + scheduler + runtime, so runs are
    independent whichever process hosts them.

    ``bus`` (an :class:`repro.obs.EventBus`, optional) attaches before
    the run so fleet workers can observe without touching this hot path
    for everyone else — with no bus the run is byte-identical to PR-2's
    no-sink contract.
    """
    import time

    from repro.apps import make_app
    from repro.harness.experiment import RunResult
    from repro.runtime.runtime import SimRuntime
    from repro.sched import make_scheduler

    app = make_app(spec.app, scale=spec.scale, seed=spec.app_seed,
                   **dict(spec.app_overrides))
    sched = make_scheduler(spec.scheduler, **dict(spec.sched_kwargs))
    rt = SimRuntime(spec.spec, sched, costs=spec.costs,
                    seed=spec.sched_seed)
    if spec.fault_plan is not None:
        from repro.faults import FaultInjector
        FaultInjector(spec.fault_plan).attach(rt)
    if bus is not None:
        bus.attach(rt)
    t0 = time.perf_counter()
    stats = app.run(rt, validate=spec.validate)
    wall = time.perf_counter() - t0
    return RunResult(spec.app, spec.scheduler, spec.spec, spec.app_seed,
                     spec.sched_seed, stats, wall)


@dataclasses.dataclass(frozen=True)
class CellRequest:
    """One experiment-grid cell: a :class:`RunSpec` run once per
    scheduler seed, aggregated.

    ``run`` names every input but the seed; like the serial path, only
    the first seed validates application output (repeating validation
    on a deterministic app is redundant).
    """

    run: RunSpec
    sched_seeds: Tuple[int, ...] = (1, 2, 3)

    @classmethod
    def build(cls, app: str, scheduler: str,
              spec: Optional[ClusterSpec] = None,
              sched_seeds: Sequence[int] = (1, 2, 3),
              **run_kwargs) -> "CellRequest":
        """``sched_seeds`` plus :meth:`RunSpec.build`'s keywords."""
        if not sched_seeds:
            raise ConfigError("a cell needs at least one scheduler seed")
        return cls(RunSpec.build(app, scheduler, spec, **run_kwargs),
                   tuple(sched_seeds))

    def to_specs(self) -> List[RunSpec]:
        """Expand into per-seed :class:`RunSpec`\\ s (validate-first)."""
        return [dataclasses.replace(self.run, sched_seed=s,
                                    validate=self.run.validate and i == 0)
                for i, s in enumerate(self.sched_seeds)]


class ExecutionContext:
    """How experiment runs execute: a worker budget and, optionally, a
    durable :class:`~repro.harness.db.ExperimentStore`.

    With ``store=`` set, specs are enqueued as rows and drained through
    the store's lease/heartbeat/reaper protocol with fleet telemetry on:
    :func:`~repro.harness.db.drain_with_helpers` spawns up to
    ``parallel - 1`` helper worker processes, as ``repro workers``
    does, and drains in this process too; an interrupt (SIGINT, or
    SIGTERM under ``graceful_signals``) terminates and joins the
    helpers, each releasing its lease, before it propagates.  Cells
    finished by a *previous* run of the same store are never
    re-simulated, and external ``repro workers`` processes on the same
    host may drain the same store concurrently (WAL does not span
    machines — see the db module docstring).

    With ``parallel > 1`` and no store, a grid of more than one spec
    drains a private store in a temporary directory the same way, with
    telemetry off: nothing can read a private store's telemetry rows.
    Otherwise every spec simulates inline.
    """

    def __init__(self, parallel: int = 1, store=None) -> None:
        if parallel < 1:
            raise ConfigError(f"parallel must be >= 1, got {parallel}")
        self.parallel = parallel
        self.store = store
        #: Simulations actually executed by this context (store rows
        #: finished elsewhere excluded).
        self.simulations = 0

    # -- execution ---------------------------------------------------------
    def run_specs(self, specs: Sequence[RunSpec],
                  on_result: Optional[Callable[[int, RunSpec, object],
                                               None]] = None) -> List[object]:
        """Execute ``specs``, returning results in input order.

        Identical specs are simulated once and fanned back out.
        ``on_result(index, spec, result)`` streams each run back as it
        is delivered (the returned list is always input-ordered).
        """
        results: List[object] = [None] * len(specs)
        pending: Dict[str, List[int]] = {}

        def deliver(indices: List[int], result) -> None:
            for i in indices:
                results[i] = result
                if on_result is not None:
                    on_result(i, specs[i], result)

        for i, spec in enumerate(specs):
            pending.setdefault(spec.cache_key(), []).append(i)
        todo = [(indices, specs[indices[0]])
                for indices in pending.values()]
        if self.store is not None and todo:
            self._run_store(self.store, todo, deliver)
        elif len(todo) > 1 and self.parallel > 1:
            from repro.harness.db import ExperimentStore
            from repro.obs.fleet import FleetTelemetry

            with tempfile.TemporaryDirectory(prefix="repro-sweep-") as tmp, \
                    ExperimentStore(os.path.join(tmp, "sweep.db")) as store:
                self._run_store(store, todo, deliver,
                                fleet=FleetTelemetry(enabled=False))
        else:
            for indices, spec in todo:
                result = simulate(spec)
                self.simulations += 1
                deliver(indices, result)
        return results

    def _run_store(self, store, todo, deliver, fleet=None) -> None:
        """Drain ``todo`` through ``store``'s job queue.

        Rows already ``done`` in the store (a previous — possibly
        killed — run of the same sweep) are served without simulating;
        quarantined rows raise with their captured tracebacks after the
        rest of the grid completes.  ``fleet`` is the telemetry config
        of the coordinator and its helpers (``None``: default-on).
        """
        from repro.harness.db import QuarantinedError, drain_with_helpers

        keyed = {spec.cache_key(): indices for indices, spec in todo}
        store.add_specs([spec for _, spec in todo])
        self.simulations += drain_with_helpers(
            store, min(self.parallel, len(todo)) - 1, fleet=fleet)
        statuses = store.statuses(keyed)
        failures = {key: store.get_error(key) or ""
                    for key, status in sorted(statuses.items())
                    if status == "failed"}
        if failures:
            raise QuarantinedError(failures)
        for key, indices in keyed.items():
            result = store.get_result(key)
            if result is None:  # pragma: no cover - defensive
                raise ConfigError(
                    f"store row {key[:12]} vanished mid-sweep")
            deliver(indices, result)

    def run_cells(self, requests: Sequence[CellRequest]) -> List[object]:
        """Execute a grid of cells; one :class:`CellResult` per request.

        The whole grid is flattened to runs first, so helpers share
        work across cells (not just within one cell's seeds).
        """
        from repro.harness.experiment import CellResult

        specs: List[RunSpec] = []
        slices: List[Tuple[int, int]] = []
        for req in requests:
            start = len(specs)
            specs.extend(req.to_specs())
            slices.append((start, len(specs)))
        flat = self.run_specs(specs)
        return [CellResult(runs=flat[start:stop])
                for start, stop in slices]


#: The active context; the serial, store-less default reproduces the
#: original single-process behaviour exactly.
_current = ExecutionContext()


def current_context() -> ExecutionContext:
    """The execution context harness entry points route through."""
    return _current


@contextmanager
def execution(parallel: int = 1, store=None,
              store_path: Optional[str] = None):
    """Install an :class:`ExecutionContext` for the enclosed block.

    ``with execution(parallel=4): fig5()`` shards every cell fig5 runs
    over four processes.  ``store_path`` (or an open ``store``) routes
    the same cells through a durable
    :class:`~repro.harness.db.ExperimentStore` job queue that memoises
    them — resumable after any crash, drainable by other worker
    processes on the same host.
    """
    global _current
    owns_store = False
    if store is None and store_path is not None:
        from repro.harness.db import ExperimentStore
        store = ExperimentStore(store_path)
        owns_store = True
    ctx = ExecutionContext(parallel=parallel, store=store)
    previous = _current
    _current = ctx
    try:
        yield ctx
    finally:
        _current = previous
        if owns_store:
            store.close()


def run_cells(requests: Sequence[CellRequest]) -> List[object]:
    """Execute cells under the active context (module-level convenience)."""
    return current_context().run_cells(requests)
