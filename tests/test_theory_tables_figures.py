"""Tests for the ASCII figure renderer."""

import pytest

from repro.experiments import run_experiment
from repro.experiments.figures import (
    DEFAULT_FIGURES,
    ascii_chart,
    default_figure,
    figure_from_result,
)


class TestAsciiFigures:
    def test_chart_contains_markers_and_labels(self):
        chart = ascii_chart([1, 2, 3, 4], [1, 4, 9, 16], title="squares", x_label="n", y_label="n^2")
        assert "squares" in chart
        assert "*" in chart
        assert "n^2" in chart

    def test_log_axes_drop_nonpositive_points(self):
        chart = ascii_chart([0, 1, 10], [1, 1, 10], log_x=True, log_y=True)
        assert "*" in chart

    def test_all_points_dropped(self):
        assert "no plottable points" in ascii_chart([0], [0], log_x=True)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            ascii_chart([1, 2], [1, 2], width=5, height=2)

    def test_constant_series_renders(self):
        chart = ascii_chart([1, 2, 3], [5, 5, 5])
        assert "*" in chart

    def test_figure_from_experiment_result(self):
        result = run_experiment("E01", quick=True, seed=0)
        figure = figure_from_result(result, "rounds", "empirical_epsilon", log_x=True, log_y=True)
        assert "[E01]" in figure
        assert "*" in figure

    def test_default_figures_render_for_registered_experiments(self):
        result = run_experiment("E01", quick=True, seed=0)
        figure = default_figure(result)
        assert figure is not None and "empirical_epsilon" in figure

    def test_default_figure_none_for_unregistered(self):
        result = run_experiment("E17", quick=True, seed=0)
        assert "E17" not in DEFAULT_FIGURES
        assert default_figure(result) is None
