"""The Barnes-Hut and agglomeration kernels against their oracles.

``validate()`` cannot pin these kernels: each app's ``sequential()``
oracle calls the same kernel as its parallel program, so a drift in the
kernel moves both sides at once.  These tests compare the kernels with
the pre-rewrite loops in :mod:`tests.apps.reference_app_kernels`, bit
for bit, at test scale.  ``benchmarks/test_app_kernels_bit_identical.py``
runs the same comparisons at bench scale.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

import repro.apps.agglomerative as agglomerative
from repro.apps import make_app
from repro.apps.bh_tree import QuadTree
from tests.apps import reference_app_kernels as ref


def hexes(values: Sequence[float]) -> List[str]:
    return [float(v).hex() for v in values]


def forces_match_oracle(pos: np.ndarray, masses: np.ndarray,
                        theta: float) -> np.ndarray:
    """Assert every body's ``(fx, fy, interactions)`` equals the
    oracle's, bit for bit, on one tree; return the oracle's forces."""
    tree = QuadTree(pos, masses)
    forces = np.empty_like(pos)
    for i in range(len(pos)):
        fx, fy, inter = tree.force_on(i, theta)
        wfx, wfy, winter = ref.force_on(tree, i, theta)
        assert (hexes((fx, fy)), inter) == (hexes((wfx, wfy)), winter), i
        forces[i] = (wfx, wfy)
    return forces


def assert_same_agglomeration(got, want) -> None:
    (gc, gw, gm), (wc, ww, wm) = got, want
    assert (gc.shape, gc.dtype) == (wc.shape, wc.dtype)
    assert gc.tobytes() == wc.tobytes()
    assert (gw.shape, gw.dtype) == (ww.shape, ww.dtype)
    assert gw.tobytes() == ww.tobytes()
    assert hexes(gm) == hexes(wm)


class CheckedAgglomerate:
    """Stands in for ``agglomerate`` inside the app: runs the kernel
    and the oracle on the same input, asserts they agree, and counts
    the calls."""

    def __init__(self) -> None:
        self.kernel = agglomerative.agglomerate
        self.calls = 0

    def __call__(self, centroids, weights, until):
        got = self.kernel(centroids, weights, until)
        assert_same_agglomeration(
            got, ref.agglomerate(centroids, weights, until))
        self.calls += 1
        return got


def check_every_agglomeration(app, monkeypatch) -> int:
    """Run the app's sequential algorithm (every region, every
    tree-phase merge, the root) with each ``agglomerate`` call checked
    against the oracle; return the number of calls checked."""
    checked = CheckedAgglomerate()
    monkeypatch.setattr(agglomerative, "agglomerate", checked)
    app.sequential()
    return checked.calls


def test_nbody_forces_bit_identical_at_test_scale():
    app = make_app("nbody", scale="test")
    forces_match_oracle(app._pos0, app._masses, app.theta)


def test_nbody_forces_bit_identical_at_wide_opening_angles():
    app = make_app("nbody", scale="test")
    for theta in (0.0, 1.2):
        forces_match_oracle(app._pos0[:200], app._masses[:200], theta)


def test_agglom_bit_identical_over_every_region_and_merge(monkeypatch):
    app = make_app("agglom", scale="test")
    calls = check_every_agglomeration(app, monkeypatch)
    # One call per region plus at least one per tree-phase merge.
    assert calls >= 2 * len(app._regions) - 1


def test_agglom_bit_identical_on_tie_heavy_input():
    """Rounded coordinates repeat distances, so ``argmin``'s
    first-index tie-break decides most merges."""
    rng = np.random.default_rng(0)
    pts = np.round(rng.normal(size=(300, 2)), 1)
    for until in (1, 8, 299, 300):
        assert_same_agglomeration(
            agglomerative.agglomerate(pts, np.ones(300), until),
            ref.agglomerate(pts, np.ones(300), until))


def test_agglom_bit_identical_on_weighted_higher_dimensional_input():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(60, 11))
    ws = rng.integers(1, 5, size=60).astype(float)
    assert_same_agglomeration(agglomerative.agglomerate(pts, ws, 4),
                              ref.agglomerate(pts, ws, 4))
