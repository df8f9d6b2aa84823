"""Smoke tests: the runnable examples actually run."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def run_example(name: str, argv=None) -> str:
    """Execute an example as __main__ and capture nothing (smoke only)."""
    old_argv = sys.argv
    sys.argv = [name] + list(argv or [])
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv
    return "ok"


def test_quickstart_runs():
    assert run_example("quickstart.py") == "ok"


def test_annotating_tasks_runs():
    assert run_example("annotating_tasks.py") == "ok"


def test_trace_analysis_runs(tmp_path):
    assert run_example("trace_analysis.py",
                       ["uts", "DistWS", str(tmp_path)]) == "ok"
    assert (tmp_path / "trace_analysis.trace.json").exists()


def test_tune_chunk_size_runs(capsys):
    assert run_example("tune_chunk_size.py") == "ok"
    out = capsys.readouterr().out
    assert "tuning uts x DistWS" in out
    assert "search winner: remote_chunk_size=2" in out
    assert "rediscovered by search" in out
