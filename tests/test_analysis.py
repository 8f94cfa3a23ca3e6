"""Tests for the analysis toolkit (repro.analysis)."""

import numpy as np
import pytest

from repro.analysis.accuracy import (
    empirical_epsilon,
    fit_power_law,
    fraction_within,
    relative_errors,
)
from repro.analysis.aggregate import (
    StreamStats,
    aggregate_stream,
    parse_metric,
    statistic_names,
)
from repro.analysis.concentration import chernoff_deviation
from repro.analysis.sweep import cartesian_grid


class TestConcentration:
    def test_chernoff_decreases_with_mean(self):
        assert chernoff_deviation(1000, 0.05) < chernoff_deviation(10, 0.05)

    def test_chernoff_increases_with_confidence(self):
        assert chernoff_deviation(100, 0.001) > chernoff_deviation(100, 0.1)


class TestAccuracy:
    def test_relative_errors(self):
        errors = relative_errors(np.array([0.9, 1.1]), 1.0)
        assert np.allclose(errors, [0.1, 0.1])

    def test_relative_errors_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            relative_errors(np.array([1.0]), 0.0)

    def test_fraction_within(self):
        estimates = np.array([0.9, 1.0, 1.3])
        assert fraction_within(estimates, 1.0, 0.15) == pytest.approx(2 / 3)

    def test_empirical_epsilon_quantile(self):
        estimates = np.linspace(0.5, 1.5, 101)
        assert empirical_epsilon(estimates, 1.0, delta=0.5) <= empirical_epsilon(
            estimates, 1.0, delta=0.05
        )

    def test_fit_power_law_recovers_exponent(self):
        x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        y = 3.0 * x**-0.5
        a, b = fit_power_law(x, y)
        assert a == pytest.approx(3.0, rel=1e-6)
        assert b == pytest.approx(-0.5, abs=1e-6)

    def test_fit_power_law_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_power_law(np.array([1.0]), np.array([2.0]))

    def test_fit_power_law_ignores_non_positive(self):
        x = np.array([1.0, 2.0, 4.0, 0.0])
        y = np.array([1.0, 0.5, 0.25, -1.0])
        _, exponent = fit_power_law(x, y)
        assert exponent == pytest.approx(-1.0, abs=1e-6)


class TestSweep:
    def test_cartesian_grid(self):
        grid = cartesian_grid(a=[1, 2], b=["x", "y"])
        assert len(grid) == 4
        assert {"a": 1, "b": "x"} in grid

    def test_cartesian_grid_empty(self):
        assert cartesian_grid() == [{}]


#: Reference implementations of every aggregate statistic (population
#: variance, as numpy.var with ddof=0).
NUMPY_STATISTICS = {
    "count": lambda values: float(len(values)),
    "max": np.max,
    "mean": np.mean,
    "median": np.median,
    "min": np.min,
    "std": np.std,
    "sum": np.sum,
    "var": np.var,
}


class TestAggregateStream:
    def test_reference_table_covers_every_statistic(self):
        assert sorted(NUMPY_STATISTICS) == statistic_names()

    @pytest.mark.parametrize("stat", sorted(NUMPY_STATISTICS))
    def test_parse_metric_accepts_every_statistic(self, stat):
        assert parse_metric(f"{stat}:empirical_epsilon") == (stat, "empirical_epsilon")

    @pytest.mark.parametrize("text", ["mean", "mean:", ":value", "p90:value"])
    def test_parse_metric_rejects_malformed_requests(self, text):
        with pytest.raises(ValueError, match="<stat>:<column>"):
            parse_metric(text)

    @pytest.mark.parametrize("stat", sorted(NUMPY_STATISTICS))
    def test_each_statistic_matches_numpy_per_group(self, stat):
        rng = np.random.default_rng(11)
        groups = rng.integers(0, 3, size=200)
        values = rng.normal(2.0, 3.0, size=200)
        rows = [{"g": int(g), "v": float(v)} for g, v in zip(groups, values)]
        out = aggregate_stream(rows, by=["g"], metrics=[(stat, "v")])
        assert [row["g"] for row in out] == [0, 1, 2]
        for row in out:
            expected = NUMPY_STATISTICS[stat](values[groups == row["g"]])
            assert row["n"] == int((groups == row["g"]).sum())
            assert row[f"{stat}_v"] == pytest.approx(float(expected), rel=1e-12, abs=1e-12)

    def test_needs_at_least_one_metric(self):
        with pytest.raises(ValueError, match="at least one"):
            aggregate_stream([{"v": 1.0}], by=["v"], metrics=[])

    def test_unknown_statistic_rejected_before_reading_rows(self):
        def rows():
            raise AssertionError("rows were read")
            yield  # pragma: no cover

        with pytest.raises(ValueError, match="unknown statistic 'p90'"):
            aggregate_stream(rows(), metrics=[("mean", "v"), ("p90", "v")])

    def test_median_needs_kept_values(self):
        stats = StreamStats()
        stats.add(1.0)
        with pytest.raises(ValueError, match="keep_values=True"):
            stats.statistic("median")

    def test_stream_stats_rejects_unknown_statistic(self):
        stats = StreamStats()
        stats.add(1.0)
        with pytest.raises(ValueError, match="unknown statistic 'mode'"):
            stats.statistic("mode")

    def test_list_and_dict_group_keys_group_together(self):
        rows = [
            {"densities": [0.1, 0.2], "opts": {"b": 1, "a": [2]}, "v": 1.0},
            {"densities": [0.1, 0.2], "opts": {"a": [2], "b": 1}, "v": 3.0},
            {"densities": [0.3], "opts": {"a": [2], "b": 1}, "v": 5.0},
        ]
        out = aggregate_stream(rows, by=["densities", "opts"], metrics=[("mean", "v")])
        assert out == [
            {"densities": [0.1, 0.2], "opts": {"b": 1, "a": [2]}, "n": 2, "mean_v": 2.0},
            {"densities": [0.3], "opts": {"a": [2], "b": 1}, "n": 1, "mean_v": 5.0},
        ]

    def test_groups_sort_missing_then_numbers_then_other_types(self):
        keys = ["torus", 16, True, 4, 2.5, None, "ring"]
        rows = [{"k": key, "v": 1.0} for key in keys] + [{"v": 1.0}]
        out = aggregate_stream(rows, by=["k"], metrics=[("count", "v")])
        assert [row["k"] for row in out] == [None, 2.5, 4, 16, True, "ring", "torus"]
        assert out[0]["n"] == 2  # the explicit None and the row missing "k"

    def test_bools_and_nans_are_not_numeric_values(self):
        rows = [{"v": True}, {"v": float("nan")}, {"v": 2.0}, {"v": 4}]
        [out] = aggregate_stream(rows, metrics=[("count", "v"), ("mean", "v")])
        assert out == {"n": 4, "count_v": 2.0, "mean_v": 3.0}

    def test_merging_an_empty_accumulator_changes_nothing(self):
        stats = StreamStats(keep_values=True)
        for value in (1.0, 2.0, 6.0):
            stats.add(value)
        before = {stat: stats.statistic(stat) for stat in statistic_names()}
        stats.merge(StreamStats(keep_values=True))
        assert {stat: stats.statistic(stat) for stat in statistic_names()} == before
