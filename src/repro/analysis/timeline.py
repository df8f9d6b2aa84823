"""ASCII timeline (Gantt-style) rendering of an execution trace."""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.trace import Trace
from repro.errors import ConfigError

#: Busyness glyphs from idle to saturated.
_SHADES = " .:-=+*#%@"


def place_timeline(trace: Trace, width: int = 72,
                   title: str = "") -> str:
    """One row per place, shaded by the fraction of busy workers."""
    if width < 8:
        raise ConfigError("width must be >= 8")
    if trace.makespan <= 0 or trace.n_places < 1:
        return "(empty trace)"
    if trace.cycles_per_ms <= 0:
        raise ConfigError(
            f"invalid trace clock: cycles_per_ms={trace.cycles_per_ms!r}")
    profile = trace.place_busy_profile(buckets=width)
    out: List[str] = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    for p, row in enumerate(profile):
        cells = "".join(
            _SHADES[min(len(_SHADES) - 1,
                        int(v * (len(_SHADES) - 1) + 0.5))]
            for v in row)
        out.append(f"p{p:02d} |{cells}|")
    out.append(f"     0{' ' * (width - 10)}"
               f"{trace.makespan / trace.cycles_per_ms:8.2f} ms")
    return "\n".join(out)


def steal_flow(trace: Trace, title: str = "") -> str:
    """Matrix of remotely-executed task counts: home place -> thief."""
    n = trace.n_places
    if n < 1:
        return "(empty trace)"
    counts = [[0] * n for _ in range(n)]
    for rec in trace.tasks:
        if rec.exec_place != rec.home_place:
            counts[rec.home_place][rec.exec_place] += 1
    out: List[str] = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    header = "home\\exec" + "".join(f"{p:>5d}" for p in range(n))
    out.append(header)
    for src in range(n):
        row = "".join(f"{counts[src][dst]:>5d}" for dst in range(n))
        out.append(f"{src:>9d}" + row)
    total = sum(sum(r) for r in counts)
    out.append(f"total tasks executed away from home: {total}")
    return "\n".join(out)

