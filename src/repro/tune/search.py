"""Offline scheduler tuning: search engines + ranked tuning reports.

A tuning target is a :class:`~repro.harness.parallel.CellRequest`: one
(application, scheduler, cluster) cell and its scheduler seeds.  A
*trial* is one configuration of that scheduler's
:class:`~repro.tune.space.ParamSpace` evaluated over one or more
scheduler seeds.  Three engines are provided:

- :class:`GridSearch` — exhaustive cartesian product of each knob's grid
  points (optionally budget-truncated, deterministic order);
- :class:`RandomSearch` — seeded uniform sampling; the same seed always
  produces the same trial sequence and the same winner;
- :class:`SuccessiveHalving` — ASHA-style: a large population evaluated
  at a cheap fidelity (small app scale, one seed), the top ``1/eta``
  promoted rung by rung to increasingly expensive fidelities.

Every trial is expressed as a :class:`~repro.harness.parallel.RunSpec`
and executed through the ambient
:class:`~repro.harness.parallel.ExecutionContext`, so searches shard
over helper processes (``--parallel``).  With
``execution(store_path=...)`` (CLI: ``repro tune --store``) trials
become rows of the durable :class:`~repro.harness.db.ExperimentStore`
job queue: ``repro workers`` processes on the same host can help drain
them, a SIGKILLed search resumes exactly where it stopped, and
repeating a search replays finished trials with **zero** simulations.

The paper-default configuration (the empty config: every knob at its
built-in default) is force-evaluated at every fidelity, so each trial
carries a *regret* — its median makespan minus the default's at the
same fidelity.  Negative regret means the search found something the
paper's fixed constants leave on the table.
"""

from __future__ import annotations

import dataclasses
import json
import random
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.harness.parallel import CellRequest, current_context
from repro.harness.tables import render_table
from repro.tune.space import ParamSpace


def _config_key(config: Dict[str, object]) -> str:
    """Canonical identity of a configuration (ties, dedup, JSON)."""
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def _config_label(config: Dict[str, object]) -> str:
    """Compact human-readable rendering for report tables."""
    if not config:
        return "(default)"
    parts = []
    for name in sorted(config):
        value = config[name]
        if isinstance(value, float):
            parts.append(f"{name}={value:g}")
        else:
            parts.append(f"{name}={value}")
    return " ".join(parts)


@dataclass(frozen=True)
class Fidelity:
    """One evaluation fidelity: the app scale and the seeds averaged."""

    scale: str
    sched_seeds: Tuple[int, ...]


@dataclass
class Trial:
    """One configuration evaluated at one fidelity."""

    config: Dict[str, object]
    rung: int
    scale: str
    sched_seeds: Tuple[int, ...]
    makespans: Tuple[float, ...]
    #: Median makespan (cycles) over the fidelity's seeds.
    median_makespan: float = 0.0
    #: ``median - default_median`` at the same fidelity (< 0 beats the
    #: paper default).
    regret: float = 0.0

    @property
    def is_default(self) -> bool:
        return not self.config

    def key(self) -> str:
        return _config_key(self.config)

    def as_row(self) -> Dict[str, object]:
        """JSON-shaped view (no host-side timing: byte-deterministic)."""
        return {
            "config": {k: self.config[k] for k in sorted(self.config)},
            "rung": self.rung,
            "scale": self.scale,
            "sched_seeds": list(self.sched_seeds),
            "makespans": list(self.makespans),
            "median_makespan": self.median_makespan,
            "regret": self.regret,
        }


def evaluate_configs(cell: CellRequest,
                     configs: Sequence[Dict[str, object]],
                     fidelity: Fidelity, rung: int = 0) -> List[Trial]:
    """Run every config at ``fidelity`` through the ambient context.

    Each config is laid over the cell's own ``sched_kwargs``; no run
    validates.  The whole batch is flattened to
    :class:`~repro.harness.parallel.RunSpec`\\ s first so a parallel
    context shards across configs *and* seeds; identical configs (and
    rows already done in a store) are simulated only once.  Each
    returned trial carries its regret against the default config, which
    is force-included in the batch.
    """
    configs = list(configs)
    if not any(not c for c in configs):
        configs.append({})
    base = dataclasses.replace(cell.run, scale=fidelity.scale,
                               validate=False)
    specs = [dataclasses.replace(base, sched_seed=seed, sched_kwargs=tuple(
        sorted({**dict(base.sched_kwargs), **config}.items())))
        for config in configs for seed in fidelity.sched_seeds]
    results = current_context().run_specs(specs)
    trials: List[Trial] = []
    cursor = 0
    for config in configs:
        runs = results[cursor:cursor + len(fidelity.sched_seeds)]
        cursor += len(fidelity.sched_seeds)
        makespans = tuple(r.stats.makespan_cycles for r in runs)
        trials.append(Trial(config=dict(config), rung=rung,
                            scale=fidelity.scale,
                            sched_seeds=fidelity.sched_seeds,
                            makespans=makespans,
                            median_makespan=statistics.median(makespans)))
    default_median = next(t.median_makespan for t in trials if t.is_default)
    for t in trials:
        t.regret = t.median_makespan - default_median
    return trials


# ---------------------------------------------------------------------------
class SearchEngine:
    """Base class: produce the full trial history for one cell."""

    name: str = "abstract"

    def search(self, cell: CellRequest, space: ParamSpace) -> List[Trial]:
        raise NotImplementedError

    def _rng(self, seed: int, cell: CellRequest) -> random.Random:
        # Seed with a string so determinism survives hash randomization
        # (random.Random(str) hashes via sha512, not PYTHONHASHSEED).
        return random.Random(f"{seed}:{cell.run.app}:{cell.run.scheduler}")


class GridSearch(SearchEngine):
    """Exhaustive sweep of every knob's grid points."""

    name = "grid"

    def __init__(self, budget: Optional[int] = None) -> None:
        if budget is not None and budget < 1:
            raise ConfigError(f"budget must be >= 1, got {budget}")
        self.budget = budget

    def search(self, cell: CellRequest, space: ParamSpace) -> List[Trial]:
        configs: List[Dict[str, object]] = [{}]
        seen = {_config_key({})}
        for config in space.grid():
            key = _config_key(config)
            if key in seen:
                continue
            seen.add(key)
            configs.append(config)
            if self.budget is not None and len(configs) >= self.budget:
                break
        fidelity = Fidelity(cell.run.scale, cell.sched_seeds)
        return evaluate_configs(cell, configs, fidelity)


class RandomSearch(SearchEngine):
    """Seeded uniform random sampling (same seed => same trials)."""

    name = "random"

    def __init__(self, budget: int = 16, seed: int = 0) -> None:
        if budget < 1:
            raise ConfigError(f"budget must be >= 1, got {budget}")
        self.budget = budget
        self.seed = seed

    def search(self, cell: CellRequest, space: ParamSpace) -> List[Trial]:
        rng = self._rng(self.seed, cell)
        configs: List[Dict[str, object]] = [{}]
        for _ in range(self.budget - 1):
            configs.append(space.sample(rng))
        fidelity = Fidelity(cell.run.scale, cell.sched_seeds)
        return evaluate_configs(cell, configs, fidelity)


class SuccessiveHalving(SearchEngine):
    """ASHA-style successive halving over increasing fidelities.

    ``rungs`` lists the fidelity ladder, cheapest first; the default
    ladder re-uses the cell's scale with a growing seed set (one seed,
    then the cell's full seed tuple), which is the cheap/robust split
    available to every app.  Pass explicit :class:`Fidelity` rungs to
    climb app scales instead (e.g. ``test`` -> ``bench``).

    The planned population of rung ``r`` is ``ceil(n0 / eta**r)``; the
    paper-default config occupies one slot of every rung so regret stays
    defined at each fidelity, and the remaining slots go to the
    best-performing survivors of the previous rung.
    """

    name = "asha"

    def __init__(self, budget: int = 16, seed: int = 0, eta: int = 2,
                 rungs: Optional[Sequence[Fidelity]] = None) -> None:
        if budget < 1:
            raise ConfigError(f"budget must be >= 1, got {budget}")
        if eta < 2:
            raise ConfigError(f"eta must be >= 2, got {eta}")
        self.budget = budget
        self.seed = seed
        self.eta = eta
        self.rungs = tuple(rungs) if rungs is not None else None

    def plan(self, n_rungs: int) -> List[int]:
        """Per-rung population sizes fitting the trial budget."""
        if n_rungs < 1:
            raise ConfigError("need at least one rung")
        if self.budget < n_rungs:
            raise ConfigError(
                f"budget {self.budget} cannot cover {n_rungs} rungs")
        n0 = 1
        while True:
            candidate = [max(1, -(-(n0 + 1) // self.eta ** r))
                         for r in range(n_rungs)]
            if sum(candidate) > self.budget:
                break
            n0 += 1
        return [max(1, -(-n0 // self.eta ** r)) for r in range(n_rungs)]

    def _default_rungs(self, cell: CellRequest) -> Tuple[Fidelity, ...]:
        first = Fidelity(cell.run.scale, cell.sched_seeds[:1])
        if len(cell.sched_seeds) > 1:
            return (first, Fidelity(cell.run.scale, cell.sched_seeds))
        return (first,)

    def search(self, cell: CellRequest, space: ParamSpace) -> List[Trial]:
        rungs = self.rungs if self.rungs is not None \
            else self._default_rungs(cell)
        sizes = self.plan(len(rungs))
        rng = self._rng(self.seed, cell)
        population: List[Dict[str, object]] = [{}]
        seen = {_config_key({})}
        attempts = 0
        while len(population) < sizes[0] and attempts < sizes[0] * 20:
            config = space.sample(rng)
            attempts += 1
            key = _config_key(config)
            if key in seen:
                continue
            seen.add(key)
            population.append(config)
        history: List[Trial] = []
        for r, fidelity in enumerate(rungs):
            trials = evaluate_configs(cell, population, fidelity, rung=r)
            history.extend(trials)
            if r + 1 == len(rungs):
                break
            ranked = sorted(
                (t for t in trials if not t.is_default),
                key=lambda t: (t.median_makespan, t.key()))
            survivors = [t.config for t in ranked[:sizes[r + 1] - 1]]
            population = [{}] + survivors
        return history


ENGINES = {
    "grid": GridSearch,
    "random": RandomSearch,
    "asha": SuccessiveHalving,
}


# ---------------------------------------------------------------------------
@dataclass
class CellReport:
    """Ranked tuning outcome for one (app, scheduler) cell."""

    cell: CellRequest
    engine: str
    space: ParamSpace
    trials: List[Trial]

    @property
    def final_rung(self) -> int:
        return max(t.rung for t in self.trials)

    def ranked(self) -> List[Trial]:
        """Final-rung trials, best (lowest median makespan) first."""
        final = [t for t in self.trials if t.rung == self.final_rung]
        return sorted(final, key=lambda t: (t.median_makespan, t.key()))

    @property
    def best(self) -> Trial:
        return self.ranked()[0]

    @property
    def default_trial(self) -> Trial:
        return next(t for t in self.ranked() if t.is_default)

    def default_rank(self) -> int:
        """1-based rank of the paper-default config at the final rung."""
        for i, t in enumerate(self.ranked()):
            if t.is_default:
                return i + 1
        raise ConfigError("default config missing from final rung")

    def sensitivity_rows(self) -> List[List[object]]:
        """Per-knob sensitivity over final-rung trials.

        For each knob: the values tried, the value whose trials achieved
        the lowest mean median-makespan, and the spread between the best
        and worst value means as a percent of the default median — a
        large spread means the knob matters on this cell.
        """
        final = self.ranked()
        default_median = self.default_trial.median_makespan
        rows: List[List[object]] = []
        for knob in self.space.knobs:
            groups: Dict[str, List[float]] = {}
            values: Dict[str, object] = {}
            for t in final:
                if knob.name not in t.config:
                    continue
                value = t.config[knob.name]
                label = f"{value:g}" if isinstance(value, float) else str(value)
                groups.setdefault(label, []).append(t.median_makespan)
                values[label] = value
            if not groups:
                continue
            means = {label: statistics.fmean(v) for label, v in groups.items()}
            best_label = min(sorted(means), key=lambda k: means[k])
            spread = max(means.values()) - min(means.values())
            spread_pct = (100.0 * spread / default_median
                          if default_median > 0 else 0.0)
            rows.append([knob.name, len(groups), best_label,
                         round(spread_pct, 2)])
        return rows

    # -- rendering ---------------------------------------------------------
    def rendered(self, top: int = 12) -> str:
        ms = self.cell.run.costs.cycles_per_ms
        ranked = self.ranked()
        default_median = self.default_trial.median_makespan
        rows = []
        for i, t in enumerate(ranked[:top]):
            pct = (100.0 * t.regret / default_median
                   if default_median > 0 else 0.0)
            rows.append([i + 1, _config_label(t.config),
                         round(t.median_makespan / ms, 3),
                         round(t.regret / ms, 3), f"{pct:+.2f}%"])
        title = (f"tuning {self.cell.run.app} x {self.cell.run.scheduler} "
                 f"({self.engine}, {len(self.trials)} trials, "
                 f"default rank {self.default_rank()}/{len(ranked)})")
        out = render_table(
            ["rank", "config", "median makespan (ms)", "regret (ms)",
             "vs default"], rows, title=title)
        sens = self.sensitivity_rows()
        if sens:
            out += "\n\n" + render_table(
                ["knob", "values tried", "best value", "spread % of default"],
                sens,
                title=f"knob sensitivity ({self.cell.run.app} x "
                      f"{self.cell.run.scheduler})")
        return out

    def as_dict(self) -> Dict[str, object]:
        return {
            "app": self.cell.run.app,
            "scheduler": self.cell.run.scheduler,
            "scale": self.cell.run.scale,
            "engine": self.engine,
            "n_trials": len(self.trials),
            "default_rank": self.default_rank(),
            "default_median_makespan": self.default_trial.median_makespan,
            "best": self.best.as_row(),
            "trials": [t.as_row() for t in self.trials],
            "sensitivity": self.sensitivity_rows(),
        }


@dataclass
class TuningReport:
    """Aggregated report over every tuned cell."""

    cells: List[CellReport]

    def rendered(self, top: int = 12) -> str:
        parts = [c.rendered(top=top) for c in self.cells]
        if len(self.cells) > 1:
            rows = []
            for c in self.cells:
                ms = c.cell.run.costs.cycles_per_ms
                default = c.default_trial.median_makespan
                pct = (100.0 * c.best.regret / default if default > 0
                       else 0.0)
                rows.append([c.cell.run.app, c.cell.run.scheduler,
                             _config_label(c.best.config),
                             round(c.best.median_makespan / ms, 3),
                             f"{pct:+.2f}%"])
            parts.append(render_table(
                ["app", "scheduler", "best config", "median (ms)",
                 "vs default"], rows,
                title="best config per app x scheduler"))
        return "\n\n".join(parts)

    def to_json(self) -> str:
        """Byte-deterministic JSON (no wall-clock, sorted keys)."""
        return json.dumps({"cells": [c.as_dict() for c in self.cells]},
                          sort_keys=True, indent=1)


def tune(cells: Sequence[CellRequest], engine: SearchEngine,
         knob_names: Optional[Sequence[str]] = None) -> TuningReport:
    """Search every cell with ``engine`` under the ambient context.

    Wrap the call in ``with execution(parallel=N, store_path=...)`` to
    shard trials over helper processes and make the search resumable.
    """
    if not cells:
        raise ConfigError("nothing to tune: no cells given")
    reports = []
    for cell in cells:
        space = ParamSpace.for_scheduler(cell.run.scheduler, knob_names)
        trials = engine.search(cell, space)
        reports.append(CellReport(cell=cell, engine=engine.name,
                                  space=space, trials=trials))
    return TuningReport(reports)
