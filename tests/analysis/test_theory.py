"""Tests for the latency-theory validation pass (analysis/theory.py).

Two layers:

- deterministic unit tests of :func:`fit_latency_model` on synthetic
  data (exact model recovery, noise tolerance, degenerate inputs);
- the statistical acceptance test the papers motivate: a quick-scale
  λ-sweep over >= 5 scheduler seeds must fit RandomWS — the protocol
  Gast/Khatiri/Trystram actually analyse — with R² >= 0.9, and no
  measurement may beat the structural W/p floor.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

import pytest

from repro.analysis.theory import (
    LAMBDA_GRID_QUICK,
    TheoryReport,
    fit_latency_model,
    run_theory_sweep,
)
from repro.cluster.topology import ClusterSpec
from repro.errors import ConfigError
from repro.harness.parallel import CellRequest


class TestFitSynthetic:
    def test_recovers_exact_model(self):
        """Data generated from y = W/p + 3·λ·log₂W fits back exactly."""
        work, workers = float(2 ** 22), 8
        lams = [1_000.0, 2_000.0, 4_000.0, 8_000.0, 16_000.0]
        ys = [work / workers + 3.0 * lam * math.log2(work)
              for lam in lams]
        fit = fit_latency_model(lams, ys, work, workers,
                                scheduler="S", app="A")
        assert fit.c == pytest.approx(3.0)
        assert fit.intercept == pytest.approx(work / workers)
        assert fit.r_squared == pytest.approx(1.0)
        assert all(abs(r) < 1e-6 for r in fit.residuals)
        assert fit.lower_bound_holds
        # The certificate constant dominates every measurement.
        for lam, y in zip(lams, ys):
            assert fit.bound(lam) >= y - 1e-6
        assert fit.bound_c == pytest.approx(3.0)

    def test_noise_degrades_r_squared_but_not_slope(self):
        """Mild multiplicative noise keeps the slope near truth."""
        work, workers = float(2 ** 20), 4
        lams = [1_000.0, 3_000.0, 9_000.0, 27_000.0]
        noise = [1.02, 0.97, 1.01, 0.99]
        ys = [(work / workers + 2.0 * lam * math.log2(work)) * eps
              for lam, eps in zip(lams, noise)]
        fit = fit_latency_model(lams, ys, work, workers)
        assert fit.c == pytest.approx(2.0, rel=0.15)
        assert 0.9 < fit.r_squared <= 1.0

    def test_flat_measurements_fit_zero_slope(self):
        work, workers = float(2 ** 20), 4
        lams = [1_000.0, 2_000.0, 4_000.0]
        ys = [work / workers + 5_000.0] * 3
        fit = fit_latency_model(lams, ys, work, workers)
        assert fit.c == pytest.approx(0.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ConfigError):
            fit_latency_model([1_000.0], [5.0], 2 ** 20, 4)
        with pytest.raises(ConfigError):
            fit_latency_model([1_000.0, 1_000.0], [5.0, 6.0], 2 ** 20, 4)
        with pytest.raises(ConfigError):
            fit_latency_model([1_000.0, 2_000.0], [5.0], 2 ** 20, 4)
        with pytest.raises(ConfigError):
            fit_latency_model([1_000.0, 2_000.0], [5.0, 6.0], 0.0, 4)

    def test_lower_bound_violation_detected(self):
        """A makespan below W/p flips the structural-floor flag."""
        work, workers = float(2 ** 20), 4
        lams = [1_000.0, 2_000.0]
        ys = [work / workers - 1.0, work / workers + 50_000.0]
        fit = fit_latency_model(lams, ys, work, workers)
        assert not fit.lower_bound_holds


class TestSweepQuickScale:
    #: One shared sweep for the statistical assertions (class-scoped to
    #: keep the suite's wall clock down).
    @pytest.fixture(scope="class")
    def report(self) -> TheoryReport:
        spec = ClusterSpec(n_places=4, workers_per_place=2,
                           max_threads=4)
        return run_theory_sweep(
            [CellRequest.build("uts", "RandomWS", spec,
                               sched_seeds=(1, 2, 3, 4, 5), scale="test")],
            LAMBDA_GRID_QUICK)

    def test_randomws_fits_with_high_r_squared(self, report):
        """The analysed protocol obeys W/p + c·λ·log₂W with R² >= 0.9."""
        fit, = [f for f in report.fits
                if f.scheduler == "RandomWS" and f.app == "uts"]
        assert len(report.sched_seeds) >= 5
        assert fit.r_squared >= 0.9
        assert fit.c > 0, "makespan must grow with steal latency"

    def test_no_measurement_beats_the_floor(self, report):
        for fit in report.fits:
            assert fit.lower_bound_holds
            assert min(fit.measured) >= fit.makespan_floor

    def test_verdict_json_is_machine_readable(self, report):
        verdict = json.loads(report.to_json())
        assert verdict["lower_bound_holds"] is True
        assert verdict["lower_bound_violations"] == []
        fits = {f["scheduler"]: f for f in verdict["fits"]}
        assert fits["RandomWS"]["r_squared"] >= 0.9
        assert list(fits["RandomWS"]["lambdas"]) == list(LAMBDA_GRID_QUICK)
        assert len(fits["RandomWS"]["residuals"]) == len(LAMBDA_GRID_QUICK)

    def test_figure_is_valid_nonempty_svg(self, report):
        svg = report.figure("uts")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert len(svg) > 500
        text = "".join(root.itertext())
        assert "RandomWS measured" in text
        assert "W/p floor" in text

    def test_unknown_fit_lookup_is_config_error(self, report):
        with pytest.raises(ConfigError):
            report.figure("nosuchapp")


class TestSweepValidation:
    def test_single_lambda_rejected(self):
        with pytest.raises(ConfigError):
            run_theory_sweep([CellRequest.build("uts", "RandomWS")],
                             lambdas=(5_000.0,))
