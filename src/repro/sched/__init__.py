"""Work-stealing scheduler policies.

- :class:`DistWS` — the paper's Algorithm 1 (selective locality-aware
  distributed stealing);
- :class:`X10WS` — X10 2.2 baseline (intra-place only);
- :class:`DistWSNS` — non-selective control (round-robin deque mapping);
- :class:`RandomWS` — unorganized randomized distributed stealing;
- :class:`LifelineWS` — lifeline-graph load balancing (UTS comparator);
- :class:`StealHalfWS` — steal-half chunks (ceil of half the victim deque);
- :class:`MultiStealWS` — k concurrent steal requests, first-success-wins;
- :class:`LocalizedWS` — bounded steal radius with strike-based fallback.

Each policy declares its tunable constants once, as the
:class:`~repro.sched.knobs.Knob` tuple in its ``knobs`` class attribute.
"""

from repro.errors import ConfigError
from repro.sched.adaptive import AdaptiveDistWS
from repro.sched.base import Scheduler, StealToken
from repro.sched.distws import DistWS
from repro.sched.distws_ns import DistWSNS
from repro.sched.knobs import Knob
from repro.sched.lifeline import LifelineWS, lifeline_graph
from repro.sched.localized import LocalizedWS
from repro.sched.multisteal import MultiStealWS
from repro.sched.randomws import RandomWS
from repro.sched.stealhalf import StealHalfWS
from repro.sched.x10ws import X10WS

#: Registry used by the harness and CLI entry points.
SCHEDULERS = {
    "X10WS": X10WS,
    "DistWS": DistWS,
    "DistWS-NS": DistWSNS,
    "RandomWS": RandomWS,
    "Lifeline": LifelineWS,
    "AdaptiveDistWS": AdaptiveDistWS,
    "StealHalfWS": StealHalfWS,
    "MultiStealWS": MultiStealWS,
    "LocalizedWS": LocalizedWS,
}


def resolve_scheduler(name: str) -> str:
    """The registry name ``name`` denotes, matched case-insensitively.

    Raises :class:`ConfigError` listing the known names when none
    matches.
    """
    for known in SCHEDULERS:
        if known.lower() == name.lower():
            return known
    raise ConfigError(
        f"unknown scheduler {name!r}; known: {sorted(SCHEDULERS)}")


def make_scheduler(name: str, **kwargs) -> Scheduler:
    """Instantiate a scheduler by (case-insensitive) registry name."""
    return SCHEDULERS[resolve_scheduler(name)](**kwargs)


__all__ = [
    "AdaptiveDistWS",
    "DistWS",
    "DistWSNS",
    "Knob",
    "LifelineWS",
    "LocalizedWS",
    "MultiStealWS",
    "RandomWS",
    "SCHEDULERS",
    "Scheduler",
    "StealHalfWS",
    "StealToken",
    "X10WS",
    "lifeline_graph",
    "make_scheduler",
    "resolve_scheduler",
]
