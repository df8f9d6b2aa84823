"""Snapshot diffing for regression tracking (``repro diff-stats``).

Compares two ``RunStats.snapshot()`` JSON documents (as written by
``repro run --snapshot``) leaf-by-leaf: nested dicts flatten to
dotted paths, lists to indexed paths, and every changed numeric leaf
gets an absolute and relative delta.  The CLI exits non-zero when any
relative delta exceeds ``--fail-over`` — the hook a perf-regression CI
job needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


def flatten(obj: object, prefix: str = "") -> Dict[str, object]:
    """Flatten nested dicts/lists into ``{dotted.path[i]: leaf}``."""
    out: Dict[str, object] = {}
    if isinstance(obj, dict):
        for key in sorted(obj):
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten(obj[key], path))
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            out.update(flatten(item, f"{prefix}[{i}]"))
    else:
        out[prefix or "(root)"] = obj
    return out


@dataclass
class DiffRow:
    """One changed leaf between two snapshots."""

    key: str
    base: object
    cand: object
    #: Absolute and relative change; ``None`` for non-numeric leaves or
    #: when one side is missing / the baseline is zero.
    delta: Optional[float] = None
    pct: Optional[float] = None


def _numeric(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def diff_snapshots(base: object, cand: object) -> List[DiffRow]:
    """Changed leaves between two snapshots, sorted by path."""
    fa, fb = flatten(base), flatten(cand)
    rows: List[DiffRow] = []
    for key in sorted(set(fa) | set(fb)):
        a, b = fa.get(key), fb.get(key)
        if key in fa and key in fb and a == b:
            continue
        row = DiffRow(key=key, base=a, cand=b)
        if _numeric(a) and _numeric(b):
            row.delta = b - a
            if a != 0:
                row.pct = 100.0 * (b - a) / a
        rows.append(row)
    return rows


def max_regression_pct(rows: List[DiffRow]) -> float:
    """Largest absolute relative change across numeric rows (0 if none)."""
    pcts = [abs(r.pct) for r in rows if r.pct is not None]
    return max(pcts) if pcts else 0.0
