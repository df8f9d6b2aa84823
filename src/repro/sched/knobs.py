"""The knob: one tunable scheduler parameter, declared once.

A :class:`Knob` states a parameter's name, type, range (or choices), the
paper's default, its grid points for exhaustive search and a doc line.
Each scheduler lists the knobs it accepts in its ``knobs`` class
attribute; :class:`~repro.sched.base.Scheduler` validates constructor
arguments against that list and :mod:`repro.tune` derives its search
spaces and ``repro list`` tables from it.

A knob whose default is ``None`` is *runtime-derived* (e.g. the idle
threshold defaults to the place's worker count); omitting it keeps the
paper's behaviour byte-identical.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigError

#: Knob value types.
KNOB_KINDS = ("int", "float", "categorical", "bool")


@dataclass(frozen=True)
class Knob:
    """One tunable scheduler parameter."""

    name: str
    kind: str
    #: The paper's default; ``None`` means runtime-derived (see module doc).
    default: object = None
    #: Inclusive numeric range (int/float knobs).
    lo: Optional[float] = None
    hi: Optional[float] = None
    #: Admissible values (categorical knobs).
    choices: Tuple[object, ...] = ()
    #: Representative values for grid search (deterministic order).
    grid: Tuple[object, ...] = ()
    #: Sample numeric values on a log scale (spans >= one decade).
    log: bool = False
    doc: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KNOB_KINDS:
            raise ConfigError(f"unknown knob kind {self.kind!r}; "
                              f"expected one of {KNOB_KINDS}")
        if self.kind in ("int", "float") and (self.lo is None
                                              or self.hi is None):
            raise ConfigError(f"numeric knob {self.name!r} needs lo/hi")
        if self.kind == "categorical" and not self.choices:
            raise ConfigError(f"categorical knob {self.name!r} needs choices")

    # -- validation --------------------------------------------------------
    def validate(self, value: object) -> object:
        """Check ``value`` is admissible; returns it (normalised)."""
        if self.kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(
                    f"knob {self.name!r} expects an int, got {value!r}")
            if not (self.lo <= value <= self.hi):
                raise ConfigError(
                    f"knob {self.name!r}={value} out of range "
                    f"[{self.lo:g}, {self.hi:g}]")
            return value
        if self.kind == "float":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(
                    f"knob {self.name!r} expects a number, got {value!r}")
            value = float(value)
            if not (self.lo <= value <= self.hi):
                raise ConfigError(
                    f"knob {self.name!r}={value:g} out of range "
                    f"[{self.lo:g}, {self.hi:g}]")
            return value
        if self.kind == "bool":
            if not isinstance(value, bool):
                raise ConfigError(
                    f"knob {self.name!r} expects a bool, got {value!r}")
            return value
        if value not in self.choices:
            raise ConfigError(
                f"knob {self.name!r}={value!r} not one of {self.choices}")
        return value

    def parse(self, text: str) -> object:
        """Parse a CLI string into a validated value."""
        try:
            if self.kind == "int":
                value: object = int(text)
            elif self.kind == "float":
                value = float(text)
            elif self.kind == "bool":
                lowered = text.strip().lower()
                if lowered in ("1", "true", "yes", "on"):
                    value = True
                elif lowered in ("0", "false", "no", "off"):
                    value = False
                else:
                    raise ValueError(text)
            else:
                value = text
        except ValueError:
            raise ConfigError(
                f"cannot parse {text!r} as {self.kind} for knob "
                f"{self.name!r}") from None
        return self.validate(value)

    # -- search support ----------------------------------------------------
    def sample(self, rng: random.Random) -> object:
        """Draw one admissible value (deterministic given ``rng``)."""
        if self.kind == "int":
            if self.log:
                lo, hi = math.log(self.lo), math.log(self.hi)
                return max(int(self.lo), min(int(self.hi), int(round(
                    math.exp(rng.uniform(lo, hi))))))
            return rng.randint(int(self.lo), int(self.hi))
        if self.kind == "float":
            if self.log:
                return math.exp(rng.uniform(math.log(self.lo),
                                            math.log(self.hi)))
            return rng.uniform(self.lo, self.hi)
        if self.kind == "bool":
            return bool(rng.getrandbits(1))
        return self.choices[rng.randrange(len(self.choices))]

    def grid_points(self) -> Tuple[object, ...]:
        """Values grid search enumerates for this knob."""
        if self.grid:
            return self.grid
        if self.kind == "categorical":
            return self.choices
        if self.kind == "bool":
            return (True, False)
        return (self.default,) if self.default is not None else ()

    def default_label(self) -> str:
        """Human-readable default for the ``repro list`` knob table."""
        if self.default is None:
            return "auto"
        if isinstance(self.default, float):
            return f"{self.default:g}"
        return str(self.default)
