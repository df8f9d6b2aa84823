"""Typed parameter spaces over the tunable knobs of every scheduler.

The paper fixes its scheduler parameters by fiat — distributed steals
take a chunk of 2 (§V-B3), a place turns inactive after ``n`` failed
steal attempts (§VI-B), victims are probed in a fixed order — but both
Gast/Khatiri/Trystram (latency-aware work stealing) and
John/Milthorpe/Strazdins (distributed dataflow stealing) show these
knobs dominate performance once steal latency is non-trivial.  Each
scheduler declares its knobs once, as the :class:`Knob` tuple in its
``knobs`` class attribute (:mod:`repro.sched.knobs`); this module only
reads those declarations:

- :data:`SCHEDULER_KNOBS` — the knob table per registered scheduler,
  derived from :data:`repro.sched.SCHEDULERS`;
- :class:`ParamSpace` — a validated subset of one scheduler's knobs that
  can sample random configurations and enumerate a grid;
- :func:`parse_sched_args` / :func:`parse_sched_args_any` — ``key=value``
  strings from the CLI (``--sched-arg``), for one scheduler or any;
  :func:`accepted_kwargs` slices a union-parsed set per scheduler.

A *configuration* is a plain ``{knob: value}`` dict, directly usable as
``sched_kwargs`` in :class:`~repro.harness.parallel.RunSpec` — which is
what makes tuning trials content-addressable and cache-replayable.
Omitting a knob from a configuration keeps its default, so the empty
configuration is the paper's behaviour, byte for byte.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.sched import SCHEDULERS
from repro.sched.knobs import Knob

#: scheduler registry name -> its knobs, in the scheduler's own order.
SCHEDULER_KNOBS: Dict[str, Tuple[Knob, ...]] = {
    name: cls.knobs for name, cls in SCHEDULERS.items()}


def knob_table(scheduler: str) -> Tuple[Knob, ...]:
    """The knob tuple for ``scheduler`` (ConfigError on unknown names)."""
    try:
        return SCHEDULER_KNOBS[scheduler]
    except KeyError:
        raise ConfigError(
            f"no knob table for scheduler {scheduler!r}; known: "
            f"{sorted(SCHEDULER_KNOBS)}") from None


def accepted_kwargs(scheduler: str, kwargs: Optional[dict]) -> Optional[dict]:
    """Filter ``kwargs`` down to the knobs ``scheduler`` understands.

    Used when one ``--sched-arg`` set is applied across a multi-scheduler
    experiment grid (``repro reproduce``): each scheduler receives only
    the knobs it has, so e.g. ``remote_chunk_size`` silently skips X10WS.
    Returns ``None`` when nothing survives, keeping cache keys identical
    to an un-tuned run.
    """
    if not kwargs:
        return None
    names = {k.name for k in knob_table(scheduler)}
    kept = {key: value for key, value in kwargs.items() if key in names}
    return kept or None


@dataclass(frozen=True)
class ParamSpace:
    """A validated subset of one scheduler's knobs, ready to search."""

    scheduler: str
    knobs: Tuple[Knob, ...] = field(default_factory=tuple)

    @classmethod
    def for_scheduler(cls, scheduler: str,
                      names: Optional[Sequence[str]] = None) -> "ParamSpace":
        """The full (or ``names``-restricted) space for ``scheduler``."""
        table = knob_table(scheduler)
        if names is None:
            return cls(scheduler, table)
        by_name = {k.name: k for k in table}
        knobs: List[Knob] = []
        for name in names:
            if name not in by_name:
                raise ConfigError(
                    f"unknown knob {name!r} for scheduler {scheduler!r}; "
                    f"known: {sorted(by_name)}")
            knobs.append(by_name[name])
        return cls(scheduler, tuple(knobs))

    def knob(self, name: str) -> Knob:
        for k in self.knobs:
            if k.name == name:
                return k
        raise ConfigError(
            f"unknown knob {name!r} for scheduler {self.scheduler!r}; "
            f"known: {[k.name for k in self.knobs]}")

    # -- configurations ----------------------------------------------------
    def sample(self, rng: random.Random) -> Dict[str, object]:
        """One random configuration assigning every knob in the space."""
        return {k.name: k.sample(rng) for k in self.knobs}

    def grid(self) -> Iterator[Dict[str, object]]:
        """Cartesian product of every knob's grid points, lexicographic."""
        active = [(k.name, k.grid_points()) for k in self.knobs
                  if k.grid_points()]
        if not active:
            return iter(())
        names = [name for name, _ in active]
        return ({name: value for name, value in zip(names, combo)}
                for combo in itertools.product(
                    *(points for _, points in active)))


def _parse_pairs(pairs: Sequence[str], knobs: Dict[str, Knob],
                 owner: str) -> dict:
    """Parse ``key=value`` strings against ``knobs`` (ConfigError, never
    a traceback-worthy ValueError, on a missing ``=``, an unknown knob,
    or an unparseable value)."""
    config: Dict[str, object] = {}
    for pair in pairs:
        key, sep, text = pair.partition("=")
        if not sep or not key:
            raise ConfigError(
                f"bad --sched-arg {pair!r} (expected key=value)")
        if key not in knobs:
            raise ConfigError(
                f"unknown knob {key!r}{owner}; known: {list(knobs)}")
        config[key] = knobs[key].parse(text)
    return config


def parse_sched_args(scheduler: str,
                     pairs: Optional[Sequence[str]]) -> Optional[dict]:
    """Parse repeatable ``--sched-arg key=value`` strings for one
    scheduler."""
    if not pairs:
        return None
    return _parse_pairs(pairs, {k.name: k for k in knob_table(scheduler)},
                        f" for scheduler {scheduler!r}")


def union_knob_names() -> Dict[str, Knob]:
    """Every knob any registered scheduler accepts, by name."""
    return {k.name: k for table in SCHEDULER_KNOBS.values() for k in table}


def parse_sched_args_any(pairs: Optional[Sequence[str]]) -> Optional[dict]:
    """Parse ``--sched-arg`` pairs against every scheduler's knobs.

    Used by multi-scheduler entry points (``repro reproduce``, ``repro
    enqueue``); each scheduler later receives its :func:`accepted_kwargs`
    slice.
    """
    if not pairs:
        return None
    return _parse_pairs(pairs, union_knob_names(), "")
