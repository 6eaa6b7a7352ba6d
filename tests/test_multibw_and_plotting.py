"""Tests for ASCII plotting."""

from repro.bench.plotting import ascii_plot, plot_series_dict
from repro.bench.reporting import Series


class TestAsciiPlot:
    def test_renders_title_legend_and_bounds(self):
        s1 = Series("alpha", [(1, 1.0), (1024, 10.0), (1 << 20, 100.0)])
        s2 = Series("beta", [(1, 2.0), (1024, 20.0), (1 << 20, 200.0)])
        out = ascii_plot("demo", [s1, s2])
        assert "# demo" in out
        assert "o alpha" in out and "x beta" in out
        assert "1M" in out  # x-axis upper bound
        assert "200" in out  # y-axis upper bound

    def test_empty_series_handled(self):
        assert "(no data)" in ascii_plot("empty", [Series("none")])

    def test_plot_series_dict(self):
        out = plot_series_dict("d", {"a": Series("a", [(1, 1.0), (2, 2.0)])})
        assert "# d" in out

    def test_figures_cli_plot_flag(self, capsys):
        from repro.bench import figures

        figures.main(["fig10", "--quick", "--plot"])
        out = capsys.readouterr().out
        assert "(log-log)" in out
        assert "charm-D" in out


class TestPlottingInternals:
    def test_log_positions_monotone(self):
        from repro.bench.plotting import _log_positions

        pos = _log_positions([1, 10, 100, 1000], 1, 1000, 40)
        assert pos == sorted(pos)
        assert pos[0] == 0 and pos[-1] == 39

    def test_nonpositive_values_pinned_low(self):
        from repro.bench.plotting import _log_positions

        assert _log_positions([0.0], 1, 10, 10)[0] == 0
