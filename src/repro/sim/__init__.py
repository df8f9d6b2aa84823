"""Deterministic discrete-event simulation kernel (SimPy-flavoured).

Public surface:

- :class:`Environment` — event heap + simulated clock; ``env.process(gen)``
  turns a generator into a simulated process.
- :class:`Event`, :class:`Timeout`, :class:`AnyOf` — things a process can
  ``yield``.
- :class:`SimLock`, :class:`Gate`, :class:`Mailbox` — synchronization in
  simulated time.
- :class:`RngStreams` — named deterministic random substreams.
"""

from repro.sim.engine import Environment, Interrupt, Process
from repro.sim.events import AnyOf, Event, Timeout
from repro.sim.resources import Gate, Mailbox, SimLock
from repro.sim.rng import RngStreams, derive_seed

__all__ = [
    "AnyOf",
    "Environment",
    "Event",
    "Gate",
    "Interrupt",
    "Mailbox",
    "Process",
    "RngStreams",
    "SimLock",
    "Timeout",
    "derive_seed",
]
