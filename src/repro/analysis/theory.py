"""Latency-theory validation: measured makespans vs the λ·log₂W bound.

Gast/Khatiri/Trystram (arXiv 1805.01768 / 1805.00857) prove that
randomized work stealing with steal latency λ finishes a load of W work
on p processors in expected makespan

    C(W, p, λ)  ≈  W/p  +  c · λ · log₂ W

for a small constant c (their analysis gives c ≈ 4 for the classic
unit-steal protocol and tighter constants for steal-half).  The paper
this repository reproduces only *benchmarks* its schedulers; this module
checks them against the theory:

- sweep ``CostModel.net_latency`` over a λ grid, holding everything else
  fixed, through the ambient execution context (so ``--parallel``
  helpers and the SQLite experiment store both apply);
- per scheduler × app, fit measured makespan against the two-parameter
  model ``y = a + c · (λ·log₂W)`` by least squares and report the
  fitted constant ``c``, the intercept ``a`` (to be compared with the
  structural floor W/p), R², and per-point residuals;
- check the *unconditional* lower bound makespan ≥ W/p, which no
  scheduler may beat;
- emit a bound-vs-measured SVG per app (:func:`repro.analysis.svg.
  line_chart`) and a machine-readable JSON verdict.

The fit is meaningful for the schedulers the theory actually analyses
(RandomWS, and the steal-half/multi-steal variants of this repo's PR 8);
for locality-aware policies the fitted c quantifies how much steal
latency they manage to hide.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigError
from repro.harness.parallel import CellRequest, run_cells

#: λ grids in cycles.  Every point must exceed the cost model's
#: ``local_steal_success`` (250 cycles) — ``CostModel.validate`` enforces
#: that a network hop is dearer than a local steal.
LAMBDA_GRID_QUICK: Tuple[float, ...] = (1_000.0, 3_000.0, 9_000.0,
                                        27_000.0)
LAMBDA_GRID_FULL: Tuple[float, ...] = (500.0, 1_500.0, 5_000.0, 15_000.0,
                                       45_000.0, 135_000.0)


@dataclass(frozen=True)
class LatencyFit:
    """Least-squares fit of ``makespan = a + c·(λ·log₂W)`` for one cell
    column (one scheduler × app over the λ grid)."""

    scheduler: str
    app: str
    lambdas: Tuple[float, ...]
    #: Mean measured makespan (cycles) per λ, seed-averaged.
    measured: Tuple[float, ...]
    #: Sequential work W (cycles) and worker count p.
    work_cycles: float
    workers: int
    #: Fitted latency constant c and intercept a.
    c: float
    intercept: float
    r_squared: float
    residuals: Tuple[float, ...]
    #: Smallest constant making ``W/p + c·λ·log₂W`` dominate every
    #: measurement — an empirical upper-bound certificate.
    bound_c: float
    #: Whether every measurement respects the structural floor W/p.
    lower_bound_holds: bool

    @property
    def makespan_floor(self) -> float:
        """The structural lower bound W/p (cycles)."""
        return self.work_cycles / self.workers

    def predicted(self, lam: float) -> float:
        """The fitted model evaluated at steal latency ``lam``."""
        return self.intercept + self.c * lam * math.log2(self.work_cycles)

    def bound(self, lam: float) -> float:
        """The certified upper bound ``W/p + bound_c·λ·log₂W``."""
        return (self.makespan_floor
                + self.bound_c * lam * math.log2(self.work_cycles))

    def as_dict(self) -> Dict[str, object]:
        return {
            "scheduler": self.scheduler,
            "app": self.app,
            "lambdas": list(self.lambdas),
            "measured_makespan_cycles": list(self.measured),
            "work_cycles": self.work_cycles,
            "workers": self.workers,
            "makespan_floor": self.makespan_floor,
            "c": self.c,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "residuals": list(self.residuals),
            "bound_c": self.bound_c,
            "lower_bound_holds": self.lower_bound_holds,
        }


def fit_latency_model(lambdas: Sequence[float],
                      makespans: Sequence[float],
                      work_cycles: float, workers: int,
                      scheduler: str = "?", app: str = "?") -> LatencyFit:
    """Fit ``makespan = a + c·(λ·log₂W)`` by ordinary least squares.

    Pure and deterministic — unit-testable on synthetic data.  Requires
    at least two distinct λ points; R² is reported against the variance
    of the measurements (1.0 for an exact fit).
    """
    if len(lambdas) != len(makespans):
        raise ConfigError("lambdas and makespans must align")
    if len(set(lambdas)) < 2:
        raise ConfigError("fitting needs at least two distinct lambdas")
    if work_cycles <= 1 or workers < 1:
        raise ConfigError("need positive work and at least one worker")
    log2w = math.log2(work_cycles)
    xs = [lam * log2w for lam in lambdas]
    ys = list(makespans)
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    c = sxy / sxx
    intercept = mean_y - c * mean_x
    predicted = [intercept + c * x for x in xs]
    residuals = tuple(y - p for y, p in zip(ys, predicted))
    ss_res = sum(r * r for r in residuals)
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res == 0.0 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    floor = work_cycles / workers
    bound_c = max((y - floor) / x for x, y in zip(xs, ys))
    lower_bound_holds = all(y >= floor for y in ys)
    return LatencyFit(scheduler=scheduler, app=app,
                      lambdas=tuple(float(l) for l in lambdas),
                      measured=tuple(float(y) for y in ys),
                      work_cycles=float(work_cycles), workers=int(workers),
                      c=c, intercept=intercept, r_squared=r_squared,
                      residuals=residuals, bound_c=bound_c,
                      lower_bound_holds=lower_bound_holds)


@dataclass
class TheoryReport:
    """All fits of one λ sweep plus figure/JSON renderers."""

    fits: List[LatencyFit] = field(default_factory=list)
    scale: str = "test"
    sched_seeds: Tuple[int, ...] = ()

    @property
    def apps(self) -> List[str]:
        seen: List[str] = []
        for f in self.fits:
            if f.app not in seen:
                seen.append(f.app)
        return seen

    def verdict(self) -> Dict[str, object]:
        """The machine-readable JSON verdict."""
        violations = [f"{f.scheduler}|{f.app}" for f in self.fits
                      if not f.lower_bound_holds]
        return {
            "model": "makespan = W/p + c * lambda * log2(W)",
            "scale": self.scale,
            "sched_seeds": list(self.sched_seeds),
            "lower_bound_violations": violations,
            "lower_bound_holds": not violations,
            "fits": [f.as_dict() for f in self.fits],
        }

    def to_json(self) -> str:
        return json.dumps(self.verdict(), indent=1, sort_keys=True)

    def figure(self, app: str) -> str:
        """Bound-vs-measured SVG for one app (all schedulers)."""
        from repro.analysis.svg import line_chart

        fits = [f for f in self.fits if f.app == app]
        if not fits:
            raise ConfigError(f"no fits for app {app!r}")
        lambdas = fits[0].lambdas
        series: Dict[str, Sequence[float]] = {}
        for f in fits:
            series[f"{f.scheduler} measured"] = list(f.measured)
            series[f"{f.scheduler} fit c={f.c:.2f}"] = [
                f.predicted(lam) for lam in lambdas]
        series["W/p floor"] = [fits[0].makespan_floor] * len(lambdas)
        return line_chart(
            list(lambdas), series,
            title=f"{app}: makespan vs steal latency "
                  f"(W/p + c*lambda*log2 W)",
            x_label="net_latency lambda (cycles)",
            y_label="makespan (cycles)")

    def rendered(self) -> str:
        """Human-readable summary table."""
        lines = ["theory: makespan = W/p + c*lambda*log2(W)",
                 f"{'scheduler':<16} {'app':<12} {'c':>8} {'R^2':>7} "
                 f"{'bound_c':>8} {'floor ok':>9}"]
        for f in self.fits:
            lines.append(
                f"{f.scheduler:<16} {f.app:<12} {f.c:>8.3f} "
                f"{f.r_squared:>7.3f} {f.bound_c:>8.3f} "
                f"{'yes' if f.lower_bound_holds else 'NO':>9}")
        return "\n".join(lines)


def run_theory_sweep(cells: Sequence[CellRequest],
                     lambdas: Sequence[float] = LAMBDA_GRID_QUICK,
                     ) -> TheoryReport:
    """Sweep λ = ``net_latency`` over each cell and fit the latency model.

    Each :class:`CellRequest` (one app × scheduler column, every
    scheduler seed) runs once per λ with that ``net_latency`` in its
    cost model, through the ambient
    :class:`~repro.harness.parallel.ExecutionContext`, so the sweep
    shards over helper processes or drains through a crash-resilient
    experiment store, exactly like ``repro reproduce``.  Per-λ cost
    models flow into every ``RunSpec.cache_key``, so no two λ points
    can ever collide in a store.  The report's scale and seeds are the
    first cell's.
    """
    if len(set(lambdas)) < 2:
        raise ConfigError("a theory sweep needs >= 2 distinct lambdas")
    if not cells:
        raise ConfigError("a theory sweep needs at least one cell")
    requests = []
    for cell in cells:
        for lam in lambdas:
            costs = dataclasses.replace(cell.run.costs,
                                        net_latency=float(lam))
            costs.validate()
            requests.append(CellRequest(
                dataclasses.replace(cell.run, costs=costs),
                cell.sched_seeds))
    results = run_cells(requests)
    report = TheoryReport(scale=cells[0].run.scale,
                          sched_seeds=cells[0].sched_seeds)
    per_column = len(lambdas)
    for i, cell in enumerate(cells):
        column = results[i * per_column:(i + 1) * per_column]
        measured = [c.mean(lambda r: r.stats.makespan_cycles)
                    for c in column]
        work = column[0].mean(lambda r: r.stats.work_sum_cycles)
        report.fits.append(fit_latency_model(
            list(lambdas), measured, work, cell.run.spec.total_workers,
            scheduler=cell.run.scheduler, app=cell.run.app))
    return report
