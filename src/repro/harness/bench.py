"""Machine-speed calibration for wall-clock reports.

``calibrate`` times a fixed pure-Python workload on the running
interpreter.  Absolute wall-clock numbers mean little across machines,
so a report that records this score next to its timings can be read
relative to the machine that produced it: ``perf/run.py`` stores it in
every benchmark-of-record run and ``repro.serve.recorder.build_report``
in every serve report.
"""

from __future__ import annotations

import time
from typing import Dict, List


def calibrate(rounds: int = 3) -> float:
    """Machine-speed score: ops/sec of a fixed pure-Python workload.

    The workload (integer arithmetic + list/dict traffic) roughly matches
    the simulator's instruction mix, so the ratio between two machines'
    scores predicts the ratio of their simulation wall times well enough
    for a coarse regression gate.
    """
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        acc = 0
        table: Dict[int, int] = {}
        items: List[int] = []
        for i in range(200_000):
            acc += i * 3 + (i >> 2)
            if i & 7 == 0:
                table[i & 1023] = acc
                items.append(i)
                if len(items) > 64:
                    items.pop(0)
        best = min(best, time.perf_counter() - t0)
    return 200_000 / best
