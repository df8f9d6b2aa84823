"""The ``@AnyPlaceTask`` annotation (§VI-A).

The paper's entire programmer interface is one annotation::

    @AnyPlaceTask async(p) S

Here the same hint is available two ways:

- decorate a task body with :func:`any_place_task`; bodies so marked
  default to :data:`~repro.runtime.task.FLEXIBLE` when spawned;
- or pass ``flexible=True`` to :meth:`repro.apgas.api.Apgas.async_at`
  (explicit argument wins over the decorator).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.runtime.task import FLEXIBLE, SENSITIVE, Locality

#: Attribute set on decorated bodies.
_MARK = "_repro_any_place_task"


def any_place_task(body: Callable) -> Callable:
    """Mark ``body`` as locality-flexible (the ``@AnyPlaceTask`` hint).

    Kept: public API that README documents for user programs.
    """
    setattr(body, _MARK, True)
    return body


def is_any_place_task(body: Optional[Callable]) -> bool:
    """Whether ``body`` carries the ``@AnyPlaceTask`` mark."""
    return body is not None and getattr(body, _MARK, False)


def resolve_locality(body: Optional[Callable],
                     flexible: Optional[bool]) -> Locality:
    """Combine the decorator mark and the explicit ``flexible`` argument."""
    if flexible is not None:
        return FLEXIBLE if flexible else SENSITIVE
    return FLEXIBLE if is_any_place_task(body) else SENSITIVE
