"""Tests for the analysis toolkit and calibration self-check."""

import pytest

from repro.bench.analysis import crossover, fit_alpha_beta
from repro.bench.reporting import Series
from repro.config import KB, MB


class TestAlphaBetaFit:
    def test_recovers_exact_model(self):
        alpha, beta = 2e-6, 10e9
        s = Series("t", [(x, alpha + x / beta) for x in (64, 1024, 65536, 1 << 20)])
        a, b = fit_alpha_beta(s)
        assert a == pytest.approx(alpha, rel=1e-6)
        assert b == pytest.approx(beta, rel=1e-6)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_alpha_beta(Series("t", [(1, 1.0)]))

    def test_decreasing_series_rejected(self):
        with pytest.raises(ValueError):
            fit_alpha_beta(Series("t", [(1, 2.0), (1000, 1.0)]))

    def test_fits_measured_charm_curve(self):
        """The fitted beta of the Charm++ GPU-aware intra-node latency curve
        should recover roughly the NVLink rate; alpha its small-message
        latency."""
        from repro.apps.osu import run_latency

        sizes = [8, 64 * KB, 1 * MB, 4 * MB]
        s = Series("charm-D", [
            (x, run_latency("charm", x, "intra", True, iters=5, skip=1))
            for x in sizes
        ])
        alpha, beta = fit_alpha_beta(s)
        assert 2.0 < alpha * 1e6 < 8.0
        assert 30.0 < beta / 1e9 < 55.0


class TestCrossover:
    def test_basic_crossover_found(self):
        a = Series("a", [(1, 10.0), (100, 10.0), (10000, 10.0)])
        b = Series("b", [(1, 1.0), (100, 5.0), (10000, 50.0)])
        x = crossover(a, b)  # where a stops exceeding b
        assert 100 < x < 10000

    def test_no_crossover(self):
        a = Series("a", [(1, 1.0), (100, 1.0)])
        b = Series("b", [(1, 2.0), (100, 3.0)])
        assert crossover(b, a) is None

    def test_immediate(self):
        a = Series("a", [(1, 1.0)])
        b = Series("b", [(1, 2.0)])
        assert crossover(a, b) == 1.0

    def test_disjoint_series_rejected(self):
        with pytest.raises(ValueError):
            crossover(Series("a", [(1, 1.0)]), Series("b", [(2, 1.0)]))


class TestHalfPeakAndSpeedup:
    def test_eager_rndv_crossover_in_measured_data(self):
        """The -H curve's advantage never materialises: D beats H at every
        size, so the crossover of (D - H) never happens — but the *speedup*
        should peak beyond the rendezvous threshold."""
        from repro.apps.osu import run_latency

        sizes = [8, 2 * KB, 64 * KB, 4 * MB]
        h = Series("h", [(x, run_latency("charm", x, "intra", False, iters=5, skip=1))
                         for x in sizes])
        d = Series("d", [(x, run_latency("charm", x, "intra", True, iters=5, skip=1))
                         for x in sizes])
        assert crossover(h, d) is None  # H never drops below D
        assert h.at(4 * MB) / d.at(4 * MB) > h.at(8) / d.at(8)


class TestCalibrationAnchors:
    @pytest.mark.slow
    def test_all_anchors_hold(self):
        from repro.bench.calibration import check_anchors

        results = check_anchors(quiet=True)
        drifted = [r.anchor.name for r in results if not r.within_tolerance]
        assert not drifted, f"calibration drifted: {drifted}"

    def test_frozen_benchmark_anchors_equal_paper_values(self):
        """``benchmarks/perf/anchors.json`` is frozen outside ``src/`` on
        purpose; it must restate ``bench/paper.py`` (which the calibration
        anchors read) name for name."""
        import json
        from pathlib import Path

        from repro.bench.calibration import _anchors

        path = Path(__file__).parent.parent / "benchmarks/perf/anchors.json"
        frozen = {a["name"]: (a["paper"], a["unit"])
                  for a in json.loads(path.read_text())["anchors"]}
        assert frozen == {a.name: (a.paper_value, a.unit) for a in _anchors()}
