"""Tests for the Barnes-Hut tree and the n-body application."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterSpec, DistWS, SimRuntime, X10WS
from repro.apps import make_app
from repro.apps.bh_tree import QuadTree, direct_forces
from repro.apps.nbody import NBodyApp
from repro.errors import AppError


def small_cluster():
    return ClusterSpec(n_places=4, workers_per_place=2, max_threads=4)


def small_app(**kw):
    defaults = dict(n=300, steps=1, group_size=8, seed=5)
    defaults.update(kw)
    return NBodyApp(**defaults)


class TestQuadTree:
    def make(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        pos = rng.normal(size=(n, 2)) * 10
        masses = rng.uniform(0.5, 2.0, size=n)
        return QuadTree(pos, masses), pos, masses

    def test_rejects_bad_inputs(self):
        with pytest.raises(AppError):
            QuadTree(np.zeros((3, 3)), np.ones(3))
        with pytest.raises(AppError):
            QuadTree(np.zeros((0, 2)), np.ones(0))
        with pytest.raises(AppError):
            QuadTree(np.zeros((3, 2)), np.ones(4))

    def test_total_mass_preserved(self):
        tree, _, masses = self.make()
        assert tree.root.mass == pytest.approx(masses.sum())

    def test_theta_zero_equals_direct(self):
        """With θ=0 the traversal opens everything: exact forces."""
        tree, pos, masses = self.make(n=60)
        direct = direct_forces(pos, masses)
        for i in range(60):
            fx, fy, _ = tree.force_on(i, theta=0.0)
            assert fx == pytest.approx(direct[i, 0], rel=1e-9)
            assert fy == pytest.approx(direct[i, 1], rel=1e-9)

    def test_theta_half_is_close_to_direct(self):
        tree, pos, masses = self.make(n=150)
        direct = direct_forces(pos, masses)
        bh = np.array([tree.force_on(i, 0.5)[:2] for i in range(150)])
        scale = np.abs(direct).max()
        assert np.abs(bh - direct).max() / scale < 0.05

    def test_tree_answers_from_its_construction_snapshot(self):
        """Updating the caller's arrays in place, as n-body's
        integration step does, leaves an existing tree's answers
        unchanged."""
        tree, pos, masses = self.make(n=120)
        before = [tree.force_on(i, 0.5) for i in range(120)]
        pos += 3.0
        pos[::2] *= -1.5
        masses[:] = 7.0
        assert [tree.force_on(i, 0.5) for i in range(120)] == before

    def test_larger_theta_fewer_interactions(self):
        tree, _, _ = self.make(n=400)
        exact = sum(tree.force_on(i, 0.0)[2] for i in range(50))
        approx = sum(tree.force_on(i, 0.9)[2] for i in range(50))
        assert approx < exact

    def test_dense_regions_cost_more(self):
        """Interaction counts vary with local density (the app's
        irregularity source)."""
        rng = np.random.default_rng(0)
        dense = rng.normal(0, 0.5, size=(300, 2))
        sparse = rng.uniform(50, 150, size=(100, 2))
        pos = np.vstack([dense, sparse])
        tree = QuadTree(pos, np.ones(400))
        dense_cost = np.mean([tree.force_on(i, 0.5)[2]
                              for i in range(0, 50)])
        sparse_cost = np.mean([tree.force_on(i, 0.5)[2]
                               for i in range(300, 350)])
        assert dense_cost > sparse_cost


class TestNBodyApp:
    @pytest.mark.parametrize("sched_cls", [DistWS, X10WS])
    def test_matches_sequential_bh(self, sched_cls):
        app = small_app()
        app.run(SimRuntime(small_cluster(), sched_cls(), seed=2))
        pos, forces = app.result()
        want_pos, want_forces = app.sequential()
        assert np.array_equal(pos, want_pos)
        assert np.array_equal(forces, want_forces)

    def test_two_steps(self):
        app = small_app(steps=2)
        app.run(SimRuntime(small_cluster(), DistWS(), seed=2))
        pos, _ = app.result()
        assert np.array_equal(pos, app.sequential()[0])

    def test_validate_reuses_the_sequential_step0_forces(self, monkeypatch):
        """A validated 8x4 test-scale cell traverses the tree 1,425 times:
        225 cost-estimate samples, 600 in the force tasks and 600 in the
        sequential oracle.  The θ-error check reads step 0's forces from
        that oracle run instead of traversing a second tree."""
        calls = []
        force_on = QuadTree.force_on

        def counting(tree, i, theta):
            calls.append(i)
            return force_on(tree, i, theta)

        monkeypatch.setattr(QuadTree, "force_on", counting)
        app = make_app("nbody", scale="test", seed=12345)
        assert (app.n, app.steps) == (600, 1)
        app.run(SimRuntime(ClusterSpec(n_places=8, workers_per_place=4),
                           DistWS(), seed=1), validate=True)
        assert len(calls) == 1425

    def test_result_before_run_rejected(self):
        with pytest.raises(AppError):
            small_app().result()

    def test_invalid_params(self):
        with pytest.raises(AppError):
            NBodyApp(n=2)
        with pytest.raises(AppError):
            NBodyApp(theta=3.0)

    def test_morton_order_groups_are_spatially_tight(self):
        app = small_app(n=400)
        pos = app._pos0
        # Consecutive bodies should be much closer than random pairs.
        consecutive = np.linalg.norm(np.diff(pos, axis=0), axis=1).mean()
        rng = np.random.default_rng(0)
        i = rng.integers(0, 400, 200)
        j = rng.integers(0, 400, 200)
        random_pairs = np.linalg.norm(pos[i] - pos[j], axis=1).mean()
        assert consecutive < random_pairs / 2
