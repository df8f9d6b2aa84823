"""Fold a cProfile run into per-layer self time.

A layer is a group of ``repro`` modules.  A frame inside the ``repro``
package belongs to the layer of its module.  Every other frame (C
builtins, the standard library, numpy, this benchmark's own code) has
no layer of its own: its self time is charged to the layer of whoever
called it, split over the call edges pstats records and weighted by the
self time spent along each edge.  A foreign frame whose callers are
foreign too inherits their blend, recursively; time no ``repro`` frame
is found above goes to ``other``.

Blocking waits (``epoll``, ``sleep``, lock and child waits) are charged
to ``idle`` and left out of the shares: they are time a process spent
waiting, not work any layer did.
"""

from __future__ import annotations

import os
from typing import Dict, Mapping, Optional, Tuple

#: Layers in report order; each is a metric prefix in BENCHMARK.json.
LAYERS = ("sim", "runtime", "sched", "apps", "cluster", "obs", "harness",
          "serve.service", "serve.protocol", "serve.balancer", "other")

IDLE = "idle"

#: ``repro`` subpackage -> layer.  Modules not listed (``errors``,
#: ``live``, the package ``__init__``) fall in ``other``.
_PACKAGE_LAYER = {
    "sim": "sim",
    "runtime": "runtime", "apgas": "runtime", "faults": "runtime",
    "sched": "sched", "tune": "sched",
    "apps": "apps",
    "cluster": "cluster",
    "obs": "obs",
    "harness": "harness", "analysis": "harness",
}

#: ``repro.serve`` modules with a layer of their own; the rest of the
#: package (router, traffic, recorder) is ``serve.service``.
_SERVE_LAYER = {"protocol.py": "serve.protocol",
                "balancer.py": "serve.balancer"}

#: Builtins whose self time is waiting, not computing.
_IDLE_BUILTINS = frozenset({
    "<method 'poll' of 'select.epoll' objects>",
    "<method 'poll' of 'select.poll' objects>",
    "<built-in method select.select>",
    "<built-in method time.sleep>",
    "<method 'acquire' of '_thread.lock' objects>",
    "<method 'acquire' of '_thread.RLock' objects>",
    "<built-in method posix.waitpid>",
})

Func = Tuple[str, int, str]


def module_layer(filename: str, root: str) -> Optional[str]:
    """The layer of a source file, or ``None`` outside the package.

    ``root`` is the directory of the ``repro`` package itself.
    """
    prefix = root.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return None
    parts = filename[len(prefix):].split(os.sep)
    if len(parts) < 2:
        return "other"
    if parts[0] == "serve":
        return _SERVE_LAYER.get(parts[1], "serve.service")
    return _PACKAGE_LAYER.get(parts[0], "other")


def fold(stats: Mapping[Func, tuple], root: str) -> Dict[str, float]:
    """Self seconds per layer (plus ``idle``) from ``pstats.Stats.stats``.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct,
    callers)``, with ``callers`` mapping each caller to that edge's
    ``(cc, nc, tt, ct)``.
    """
    own = {func: module_layer(func[0], root) for func in stats}
    memo: Dict[Func, Dict[str, float]] = {}

    def blend(func: Func, visiting: set) -> Optional[Dict[str, float]]:
        """Layer mix of the time spent in ``func`` (its callers' blend
        when ``func`` is foreign); ``None`` on a call cycle."""
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        if func in visiting:
            return None
        visiting.add(func)
        callers = stats[func][4] if func in stats else {}
        mixes = [(edge, blend(caller, visiting))
                 for caller, edge in callers.items()]
        visiting.discard(func)
        mixes = [(edge, mix) for edge, mix in mixes if mix]
        # Weight callers by the cumulative time they spent in ``func``;
        # edges too short for the timer fall back to call counts.
        weights = [edge[3] for edge, _ in mixes]
        if sum(weights) <= 0:
            weights = [edge[1] for edge, _ in mixes]
        total = sum(weights)
        if total <= 0:
            result = {"other": 1.0}
        else:
            result = {}
            for weight, (_, mix) in zip(weights, mixes):
                for name, part in mix.items():
                    result[name] = (result.get(name, 0.0)
                                    + part * weight / total)
        memo[func] = result
        return result

    totals = dict.fromkeys(LAYERS + (IDLE,), 0.0)

    def charge(mix: Dict[str, float], seconds: float) -> None:
        for name, part in mix.items():
            totals[name] += part * seconds

    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        if tt <= 0:
            continue
        if func[0] == "~" and func[2] in _IDLE_BUILTINS:
            totals[IDLE] += tt
        elif own[func] is not None:
            totals[own[func]] += tt
        else:
            edges = [(caller, edge[2]) for caller, edge in callers.items()]
            edge_total = sum(t for _, t in edges)
            if edge_total <= 0:
                charge(blend(func, set()) or {"other": 1.0}, tt)
                continue
            for caller, t in edges:
                charge(blend(caller, set()) or {"other": 1.0},
                       tt * t / edge_total)
    return totals


def shares(self_s: Mapping[str, float]) -> Dict[str, float]:
    """Each layer's fraction of the non-idle self time (sums to 1)."""
    busy = sum(self_s[name] for name in LAYERS)
    return {name: (self_s[name] / busy if busy > 0 else 0.0)
            for name in LAYERS}
