"""Bench-scale bit-identity of the Barnes-Hut and agglomeration kernels.

The tier-1 copy (``tests/apps/test_app_kernel_oracles.py``) pins the
kernels to their pre-rewrite oracles at test scale.  This one runs the
same comparisons on the instances the paper artifacts simulate:

- n-body: all 3,000 bodies over both steps, ``(fx, fy, interactions)``
  compared with ``float.hex``; positions advance with the oracle's
  forces, exactly as ``NBodyApp._bh_step`` integrates;
- agglom: the app's sequential algorithm over all 320 regions, every
  tree-phase merge and the root, each ``agglomerate`` call compared
  with the oracle byte for byte.
"""

from __future__ import annotations

from repro.apps import make_app
from tests.apps.test_app_kernel_oracles import (
    check_every_agglomeration,
    forces_match_oracle,
)


def test_nbody_forces_bit_identical_at_bench_scale():
    app = make_app("nbody", scale="bench")
    assert (app.n, app.steps) == (3_000, 2)
    pos, vel = app._pos0.copy(), app._vel0.copy()
    for _ in range(app.steps):
        forces = forces_match_oracle(pos, app._masses, app.theta)
        vel = vel + app.DT * forces
        pos = pos + app.DT * vel


def test_agglom_bit_identical_at_bench_scale(monkeypatch):
    app = make_app("agglom", scale="bench")
    assert len(app._regions) == 320
    calls = check_every_agglomeration(app, monkeypatch)
    assert calls >= 2 * len(app._regions) - 1
