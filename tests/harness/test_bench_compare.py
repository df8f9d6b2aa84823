"""The ``repro.harness.bench.compare`` gate on kernel benchmark reports.

``compare`` fails a candidate whose simulated observables or event
count differ from the baseline's, whatever its wall time, and otherwise
gates the calibration-normalized grid total against a threshold.
"""

from __future__ import annotations

import copy

from repro.harness.bench import compare


def _cell(name: str, wall: float, events: int = 1000,
          makespan: float = 5000.0) -> dict:
    return {
        "cell": name,
        "best_wall_seconds": wall,
        "simulated": {"makespan_cycles": makespan, "tasks_executed": 10,
                      "total_steals": 3},
        "events_processed": events,
    }


def _report(cells, calibration: float = 1e6) -> dict:
    return {"calibration_ops_per_sec": calibration, "cells": cells}


BASE = _report([_cell("a", 1.0), _cell("b", 2.0, events=2000)])


def test_identical_report_passes():
    ok, lines = compare(BASE, copy.deepcopy(BASE))
    assert ok, lines


def test_simulated_drift_fails_even_when_faster():
    cand = copy.deepcopy(BASE)
    cand["cells"][0]["simulated"]["makespan_cycles"] = 5001.0
    cand["cells"][0]["best_wall_seconds"] = 0.1
    ok, lines = compare(BASE, cand)
    assert not ok
    assert any("SIMULATED METRICS DRIFTED" in ln for ln in lines)


def test_events_processed_drift_fails_with_same_physics():
    cand = copy.deepcopy(BASE)
    cand["cells"][1]["events_processed"] = 1999
    ok, lines = compare(BASE, cand)
    assert not ok
    assert any("b: EVENTS_PROCESSED DRIFTED 2000 -> 1999" in ln
               for ln in lines)


def test_missing_events_processed_counts_as_drift():
    cand = copy.deepcopy(BASE)
    del cand["cells"][0]["events_processed"]
    ok, _ = compare(BASE, cand)
    assert not ok


def test_wall_regression_over_threshold_fails():
    cand = _report([_cell("a", 1.3), _cell("b", 2.6, events=2000)])
    ok, lines = compare(BASE, cand, max_regression_pct=20.0)
    assert not ok
    assert lines[-1] == "FAIL: wall-clock regression over threshold"


def test_wall_regression_within_threshold_passes():
    cand = _report([_cell("a", 1.1), _cell("b", 2.2, events=2000)])
    ok, lines = compare(BASE, cand, max_regression_pct=20.0)
    assert ok, lines


def test_wall_time_is_normalized_by_calibration():
    # 1.5x slower wall time, measured on a machine 1.5x slower: no
    # regression once scaled back to the baseline machine's speed.
    cand = _report([_cell("a", 1.5), _cell("b", 3.0, events=2000)],
                   calibration=BASE["calibration_ops_per_sec"] / 1.5)
    ok, lines = compare(BASE, cand, max_regression_pct=5.0)
    assert ok, lines
    assert "(+0.0%)" in lines[-1]
    # The same wall times on an equally fast machine regress by 50%.
    same_speed = _report([_cell("a", 1.5), _cell("b", 3.0, events=2000)])
    ok, _ = compare(BASE, same_speed, max_regression_pct=5.0)
    assert not ok


def test_cells_missing_from_baseline_are_skipped():
    cand = copy.deepcopy(BASE)
    cand["cells"].append(_cell("new", 100.0, events=1))
    ok, lines = compare(BASE, cand)
    assert ok, lines
    assert any("new: not in baseline (skipped)" in ln for ln in lines)
