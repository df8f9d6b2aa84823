"""Scheduler auto-tuning: offline search + online feedback control.

The paper fixes its scheduler parameters by fiat (remote steals take a
chunk of 2, a place goes idle after one failed round per worker, ...).
``repro.tune`` searches over those constants.  Each scheduler declares
them once, as the :class:`Knob` tuple in its ``knobs`` class attribute
(:mod:`repro.sched.knobs`; re-exported here):

- :mod:`repro.tune.space` — per-scheduler knob tables derived from the
  scheduler registry, search spaces (:class:`ParamSpace`), and CLI
  ``key=value`` parsing;
- :mod:`repro.tune.search` — grid / seeded-random / successive-halving
  engines that fan trials through the parallel harness and result
  cache, producing ranked reports with regret-vs-default and per-knob
  sensitivity;
- :mod:`repro.tune.controllers` — online AIMD chunk-size and
  idle-threshold controllers pluggable into the distributed schedulers
  via ``controller=`` (``None`` keeps runs byte-identical to the static
  build).
"""

from repro.tune.controllers import (
    CONTROLLERS,
    AIMDChunkController,
    Controller,
    IdleThresholdController,
    make_controller,
)
from repro.tune.search import (
    ENGINES,
    CellReport,
    Fidelity,
    GridSearch,
    RandomSearch,
    SearchEngine,
    SuccessiveHalving,
    Trial,
    TuningReport,
    evaluate_configs,
    tune,
)
from repro.tune.space import (
    SCHEDULER_KNOBS,
    Knob,
    ParamSpace,
    accepted_kwargs,
    knob_table,
    parse_sched_args,
    parse_sched_args_any,
    union_knob_names,
)

__all__ = [
    "AIMDChunkController",
    "CellReport",
    "CONTROLLERS",
    "Controller",
    "ENGINES",
    "Fidelity",
    "GridSearch",
    "IdleThresholdController",
    "Knob",
    "ParamSpace",
    "RandomSearch",
    "SCHEDULER_KNOBS",
    "SearchEngine",
    "SuccessiveHalving",
    "Trial",
    "TuningReport",
    "accepted_kwargs",
    "evaluate_configs",
    "knob_table",
    "make_controller",
    "parse_sched_args",
    "parse_sched_args_any",
    "tune",
    "union_knob_names",
]
