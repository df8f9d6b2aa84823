"""Golden-snapshot regression for the steal-variant schedulers.

Two halves of the registry-growth contract:

- the *existing* schedulers must stay byte-identical after StealHalfWS /
  MultiStealWS / LocalizedWS are registered — that is pinned by
  ``tests/sim/test_kernel_fastpath.py`` against its pre-existing golden
  file, which runs in the same tree as the new registrations (named RNG
  streams make new policies unable to perturb old draws);
- the new schedulers themselves must stay deterministic from PR to PR —
  pinned here by ``golden_variant_snapshots.json``, captured at
  introduction time with the same harness (4 places x 2 workers,
  ``scale="test"``, app seed 12345) as the kernel goldens.  DistWS's
  ablation knobs (nearest-first victims on a ring, a LIFO shared deque)
  are pinned the same way: no kernel golden runs them.

Each cell pins what a kernel golden pins: the bare run's
``RunStats.snapshot()`` byte for byte, its ``events_processed``, and the
SHA-256 of the ``JsonlSink`` stream of the same cell observed with
``EventBus(sample_interval=100_000)`` + ``MetricsRegistry``.  The faulted
cells are the only goldens that run MultiStealWS's token path and
LocalizedWS under message loss, so they pin the remote steal take
under fault plans down to the event stream.

Regenerate deliberately after an intentional physics change::

    PYTHONPATH=src python -c "from tests.sched.test_variants import \
regenerate; regenerate()"
"""

from __future__ import annotations

import hashlib
import io
import json
import os

import pytest

from repro.apps import make_app
from repro.cluster.topology import ClusterSpec
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs import EventBus, JsonlSink, MetricsRegistry
from repro.runtime.runtime import SimRuntime
from repro.runtime.task import _reset_task_ids
from repro.sched import make_scheduler

GOLDEN = os.path.join(os.path.dirname(__file__),
                      "golden_variant_snapshots.json")

#: cell label -> (scheduler, constructor kwargs exercising its
#: distinctive knob, topology).  DistWS is pinned once per ablation knob,
#: so its labels name the knob.
VARIANTS = {
    "StealHalfWS": ("StealHalfWS", {}, "full"),
    "MultiStealWS": ("MultiStealWS", {"steal_width": 3}, "full"),
    "LocalizedWS": ("LocalizedWS",
                    {"steal_radius": 1, "radius_strikes": 2}, "ring"),
    "DistWS[victim_order=nearest]": ("DistWS", {"victim_order": "nearest"},
                                     "ring"),
    "DistWS[shared_fifo=False]": ("DistWS", {"shared_fifo": False}, "full"),
}

#: The pinned grid: every variant on two apps plus one faulted cell.
CELL_KEYS = tuple(
    f"{sched}|{app}|{seed}"
    for sched in sorted(VARIANTS)
    for app, seed in (("uts", 1), ("mcpi", 7))
) + tuple(
    f"{sched}|uts|1|crash:p2@600000,loss:steal=0.05,seed:3"
    for sched in sorted(VARIANTS)
)


def _run_cell(key: str, stream: "io.StringIO | None" = None):
    """Run one pinned cell; observed when ``stream`` is given."""
    parts = key.split("|")
    _reset_task_ids()
    name, knobs, topology = VARIANTS[parts[0]]
    spec = ClusterSpec(n_places=4, workers_per_place=2, max_threads=4,
                       topology=topology)
    sched = make_scheduler(name, **knobs)
    rt = SimRuntime(spec, sched, seed=int(parts[2]))
    if len(parts) > 3:
        FaultInjector(FaultPlan.parse(parts[3])).attach(rt)
    if stream is not None:
        bus = EventBus(sample_interval=100_000)
        bus.subscribe(MetricsRegistry())
        bus.subscribe(JsonlSink(stream=stream))
        bus.attach(rt)
    app = make_app(parts[1], scale="test", seed=12345)
    stats = app.run(rt)
    return stats.snapshot(), rt.env.events_processed


def cell_record(key: str) -> dict:
    """Bare snapshot + event count, and the observed run's stream hash."""
    snapshot, events = _run_cell(key)
    stream = io.StringIO()
    _run_cell(key, stream)
    return {
        "snapshot": snapshot,
        "events_processed": events,
        "stream_sha256": hashlib.sha256(
            stream.getvalue().encode()).hexdigest(),
    }


def regenerate() -> None:  # pragma: no cover - maintenance helper
    cells = {key: cell_record(key) for key in CELL_KEYS}
    with open(GOLDEN, "w") as fh:
        json.dump(cells, fh, sort_keys=True, indent=1)
        fh.write("\n")


with open(GOLDEN) as _fh:
    _GOLDEN_CELLS = json.load(_fh)


def test_golden_covers_the_pinned_grid():
    assert sorted(_GOLDEN_CELLS) == sorted(CELL_KEYS)


@pytest.mark.parametrize("key", sorted(_GOLDEN_CELLS))
def test_variant_matches_golden(key):
    expected = _GOLDEN_CELLS[key]
    got = cell_record(key)
    assert (json.dumps(got["snapshot"], sort_keys=True, indent=1)
            == json.dumps(expected["snapshot"], sort_keys=True, indent=1))
    assert got["events_processed"] == expected["events_processed"]
    assert got["stream_sha256"] == expected["stream_sha256"]
