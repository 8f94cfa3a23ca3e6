"""Tests for the analysis toolkit (repro.analysis)."""

import numpy as np
import pytest

from repro.analysis.accuracy import (
    empirical_epsilon,
    empirical_failure_probability,
    fit_power_law,
    fraction_within,
    relative_errors,
    summarize_estimates,
)
from repro.analysis.concentration import (
    chebyshev_deviation,
    chernoff_deviation,
    hoeffding_samples,
    median_of_means,
    subexponential_deviation,
)
from repro.analysis.sweep import cartesian_grid


class TestConcentration:
    def test_chernoff_decreases_with_mean(self):
        assert chernoff_deviation(1000, 0.05) < chernoff_deviation(10, 0.05)

    def test_chernoff_increases_with_confidence(self):
        assert chernoff_deviation(100, 0.001) > chernoff_deviation(100, 0.1)

    def test_chebyshev_formula(self):
        assert chebyshev_deviation(4.0, 0.25) == pytest.approx(4.0)

    def test_chebyshev_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            chebyshev_deviation(-1.0, 0.1)

    def test_subexponential_exceeds_gaussian_term(self):
        # The deviation always includes the Bernstein linear term.
        deviation = subexponential_deviation(1.0, 1.0, 0.05)
        assert deviation > np.sqrt(2 * np.log(2 / 0.05))

    def test_subexponential_consistent_with_lemma18(self):
        # Plugging the deviation back into the tail bound should give ~delta.
        sigma2, b, delta = 3.0, 0.5, 0.02
        deviation = subexponential_deviation(sigma2, b, delta)
        tail = 2 * np.exp(-(deviation**2) / (2 * (sigma2 + b * deviation)))
        assert tail == pytest.approx(delta, rel=1e-6)

    def test_median_of_means_robust_to_outlier(self):
        samples = np.concatenate([np.ones(99), [1000.0]])
        assert median_of_means(samples, 10) < 2.0

    def test_median_of_means_single_group_is_mean(self):
        samples = np.array([1.0, 2.0, 3.0])
        assert median_of_means(samples, 1) == pytest.approx(2.0)

    def test_median_of_means_validation(self):
        with pytest.raises(ValueError):
            median_of_means(np.array([]), 2)
        with pytest.raises(ValueError):
            median_of_means(np.array([1.0]), 0)

    def test_hoeffding_samples_monotone(self):
        assert hoeffding_samples(0.05, 0.05) > hoeffding_samples(0.1, 0.05)


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

    def test_failure_probability_complement(self):
        estimates = np.array([0.9, 1.0, 1.3])
        assert empirical_failure_probability(estimates, 1.0, 0.15) == pytest.approx(1 / 3)

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

    def test_summarize_estimates_keys(self):
        summary = summarize_estimates(np.array([0.9, 1.1]), 1.0)
        assert set(summary) == {
            "truth",
            "mean_estimate",
            "mean_relative_error",
            "median_relative_error",
            "p90_relative_error",
            "max_relative_error",
        }


class TestSweep:
    def test_cartesian_grid(self):
        grid = cartesian_grid(a=[1, 2], b=["x", "y"])
        assert len(grid) == 4
        assert {"a": 1, "b": "x"} in grid

    def test_cartesian_grid_empty(self):
        assert cartesian_grid() == [{}]
