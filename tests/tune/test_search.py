"""Search engines: determinism, ASHA accounting, regret, store replay."""

from __future__ import annotations

import pytest

from repro.cluster.topology import ClusterSpec
from repro.errors import ConfigError
from repro.harness.parallel import CellRequest, execution
from repro.tune import (
    Fidelity,
    GridSearch,
    RandomSearch,
    SuccessiveHalving,
    tune,
)

#: A deliberately tiny cell so every engine test stays cheap.
CELL = CellRequest.build(
    "uts", "DistWS",
    ClusterSpec(n_places=2, workers_per_place=2, max_threads=4),
    sched_seeds=(1,), scale="test")

#: Restricting to one knob keeps grids small and sample spaces cheap.
KNOBS = ["remote_chunk_size"]


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    """Module-shared experiment store: later tests replay earlier sims."""
    return str(tmp_path_factory.mktemp("tune-store") / "trials.db")


def _tune(engine, store_path, knobs=KNOBS, cell=CELL, parallel=1):
    with execution(parallel=parallel, store_path=store_path) as ctx:
        report = tune([cell], engine, knob_names=knobs)
    return report, ctx


class TestGridSearch:
    def test_includes_default_and_respects_budget(self, store_path):
        report, _ = _tune(GridSearch(budget=3), store_path)
        trials = report.cells[0].trials
        assert len(trials) == 3
        assert trials[0].is_default
        keys = {t.key() for t in trials}
        assert len(keys) == 3

    def test_full_grid_covers_every_point(self, store_path):
        report, _ = _tune(GridSearch(), store_path)
        trials = report.cells[0].trials
        # default + the 4 chunk-size grid points, minus nothing: the
        # explicit chunk=2 point is kept (distinct key from {}).
        assert len(trials) == 5
        chunks = sorted(t.config.get("remote_chunk_size", 2)
                        for t in trials)
        assert chunks == [1, 2, 2, 4, 8]

    def test_regret_is_relative_to_default(self, store_path):
        report, _ = _tune(GridSearch(), store_path)
        trials = report.cells[0].trials
        default = next(t for t in trials if t.is_default)
        assert default.regret == 0.0
        for t in trials:
            assert t.regret == t.median_makespan - default.median_makespan

    def test_report_ranking_and_default_rank(self, store_path):
        report, _ = _tune(GridSearch(), store_path)
        cell = report.cells[0]
        ranked = cell.ranked()
        medians = [t.median_makespan for t in ranked]
        assert medians == sorted(medians)
        assert 1 <= cell.default_rank() <= len(ranked)
        assert cell.best.median_makespan == medians[0]


class TestRandomSearch:
    def test_same_seed_same_trials_and_winner(self, store_path):
        a, _ = _tune(RandomSearch(budget=4, seed=3), store_path)
        b, _ = _tune(RandomSearch(budget=4, seed=3), store_path)
        assert [t.key() for t in a.cells[0].trials] == \
            [t.key() for t in b.cells[0].trials]
        assert a.cells[0].best.config == b.cells[0].best.config
        assert a.to_json() == b.to_json()

    def test_different_seed_different_trials(self):
        # No evaluation needed: compare the sampled configs directly.
        from repro.tune import ParamSpace
        space = ParamSpace.for_scheduler("DistWS")
        a = RandomSearch(budget=8, seed=0)
        b = RandomSearch(budget=8, seed=1)
        sa = [space.sample(a._rng(a.seed, CELL)) for _ in range(8)]
        sb = [space.sample(b._rng(b.seed, CELL)) for _ in range(8)]
        assert sa != sb

    def test_first_trial_is_default(self, store_path):
        report, _ = _tune(RandomSearch(budget=4, seed=3), store_path)
        assert report.cells[0].trials[0].is_default

    def test_budget_validated(self):
        with pytest.raises(ConfigError, match="budget"):
            RandomSearch(budget=0)


class TestSuccessiveHalving:
    def test_plan_fits_budget_and_decays(self):
        engine = SuccessiveHalving(budget=16, eta=2)
        sizes = engine.plan(2)
        assert sum(sizes) <= 16
        assert sizes[0] >= sizes[1] >= 1
        # ceil-division ladder: each rung is ceil(prev-rung-base / eta).
        assert sizes[1] == -(-sizes[0] // 2)
        assert engine.plan(1) == [16]

    def test_plan_rejects_budget_smaller_than_rungs(self):
        with pytest.raises(ConfigError, match="cannot cover"):
            SuccessiveHalving(budget=2).plan(3)

    def test_promotion_accounting(self, store_path):
        cell = CellRequest(CELL.run, sched_seeds=(1, 2))
        engine = SuccessiveHalving(budget=8, seed=0, eta=2)
        report, _ = _tune(engine, store_path, cell=cell)
        trials = report.cells[0].trials
        sizes = engine.plan(2)
        rung0 = [t for t in trials if t.rung == 0]
        rung1 = [t for t in trials if t.rung == 1]
        assert len(rung0) == sizes[0]
        assert len(rung1) == sizes[1]
        # The default config holds a slot at every rung.
        assert sum(t.is_default for t in rung0) == 1
        assert sum(t.is_default for t in rung1) == 1
        # Rung 0 runs the cheap fidelity, rung 1 the full seed set.
        assert all(t.sched_seeds == (1,) for t in rung0)
        assert all(t.sched_seeds == (1, 2) for t in rung1)
        # Promoted survivors are exactly the best non-default configs.
        ranked0 = sorted((t for t in rung0 if not t.is_default),
                         key=lambda t: (t.median_makespan, t.key()))
        expected = {t.key() for t in ranked0[:sizes[1] - 1]}
        promoted = {t.key() for t in rung1 if not t.is_default}
        assert promoted == expected

    def test_explicit_rungs_climb_fidelities(self, store_path):
        engine = SuccessiveHalving(
            budget=6, seed=0, eta=2,
            rungs=[Fidelity("test", (1,)), Fidelity("test", (1, 2))])
        report, _ = _tune(engine, store_path)
        cell = report.cells[0]
        assert cell.final_rung == 1
        assert all(t.sched_seeds == (1, 2)
                   for t in cell.trials if t.rung == 1)


class TestCacheReplay:
    def test_warm_cache_runs_zero_simulations(self, store_path, tmp_path):
        fresh = str(tmp_path / "trials.db")
        engine = RandomSearch(budget=4, seed=9)
        first, ctx1 = _tune(engine, fresh)
        assert ctx1.simulations > 0
        second, ctx2 = _tune(engine, fresh)
        assert ctx2.simulations == 0
        assert second.to_json() == first.to_json()

    def test_parallel_matches_serial(self, store_path, tmp_path):
        engine = GridSearch(budget=3)
        serial, _ = _tune(engine, str(tmp_path / "a.db"))
        sharded, _ = _tune(engine, str(tmp_path / "b.db"), parallel=2)
        assert sharded.to_json() == serial.to_json()


class TestSearchBeatsDefault:
    def test_lifeline_steal_attempts_beat_paper_default(self, store_path):
        """ISSUE acceptance: the search finds a config that beats the
        paper-default median makespan on at least one cell, with regret
        recorded per trial (negative = beats the default)."""
        cell = CellRequest.build(
            "uts", "Lifeline",
            ClusterSpec(n_places=4, workers_per_place=2, max_threads=6),
            sched_seeds=(1, 2), scale="test")
        report, _ = _tune(GridSearch(), store_path,
                          knobs=["attempts_per_round"], cell=cell)
        best = report.cells[0].best
        assert not best.is_default
        assert best.regret < 0.0
        assert all(t.regret == t.median_makespan
                   - report.cells[0].default_trial.median_makespan
                   for t in report.cells[0].trials)


class TestTuneEntryPoint:
    def test_empty_cells_rejected(self):
        with pytest.raises(ConfigError, match="nothing to tune"):
            tune([], GridSearch())

    def test_report_render_mentions_default_rank(self, store_path):
        report, _ = _tune(GridSearch(budget=3), store_path)
        text = report.rendered(top=5)
        assert "default rank" in text
        assert "(default)" in text
        assert "knob sensitivity" in text
