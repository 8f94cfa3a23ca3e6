"""Tests for the closed-form bounds module (repro.core.bounds)."""

import math

import numpy as np
import pytest

from repro.core import bounds


class TestTheorem1:
    def test_epsilon_decreases_with_rounds(self):
        assert bounds.theorem1_epsilon(400, 0.1, 0.05) < bounds.theorem1_epsilon(100, 0.1, 0.05)

    def test_epsilon_decreases_with_density(self):
        assert bounds.theorem1_epsilon(100, 0.2, 0.05) < bounds.theorem1_epsilon(100, 0.05, 0.05)

    def test_epsilon_increases_with_confidence(self):
        assert bounds.theorem1_epsilon(100, 0.1, 0.01) > bounds.theorem1_epsilon(100, 0.1, 0.2)

    def test_epsilon_scales_with_constant(self):
        assert bounds.theorem1_epsilon(100, 0.1, 0.1, constant=2.0) == pytest.approx(
            2 * bounds.theorem1_epsilon(100, 0.1, 0.1, constant=1.0)
        )

    def test_rounds_decrease_with_density(self):
        assert bounds.theorem1_rounds(0.2, 0.1, 0.05) < bounds.theorem1_rounds(0.05, 0.1, 0.05)

    def test_rounds_decrease_with_epsilon(self):
        assert bounds.theorem1_rounds(0.1, 0.3, 0.05) < bounds.theorem1_rounds(0.1, 0.1, 0.05)

    def test_rounds_at_least_one(self):
        assert bounds.theorem1_rounds(0.99, 0.99, 0.99, constant=1e-9) >= 1

    def test_rounds_exceed_independent_sampling(self):
        # Theorem 1's bound carries the extra poly-log factor over Theorem 32's
        # independent-sampling count ceil(log(1/δ) / (dε²)).
        d, eps, delta = 0.05, 0.1, 0.05
        assert bounds.theorem1_rounds(d, eps, delta) >= math.ceil(math.log(1 / delta) / (d * eps**2))

    @pytest.mark.parametrize("bad", [0, -0.1, 1.5])
    def test_invalid_epsilon_rejected(self, bad):
        with pytest.raises(ValueError):
            bounds.theorem1_rounds(0.1, bad, 0.1)

    def test_invalid_delta_rejected(self):
        with pytest.raises(ValueError):
            bounds.theorem1_epsilon(100, 0.1, 0.0)


class TestRecollisionBounds:
    def test_torus_decreases_with_offset(self):
        assert bounds.recollision_bound_torus2d(10, 10**4) < bounds.recollision_bound_torus2d(
            1, 10**4
        )

    def test_torus_floor_at_inverse_nodes(self):
        assert bounds.recollision_bound_torus2d(10**9, 100) == pytest.approx(0.01, rel=0.01)

    def test_ring_decays_slower_than_torus(self):
        assert bounds.recollision_bound_ring(100, 10**6) > bounds.recollision_bound_torus2d(
            100, 10**6
        )

    def test_kd_decays_faster_with_dimension(self):
        assert bounds.recollision_bound_torus_kd(16, 10**6, 4) < bounds.recollision_bound_torus_kd(
            16, 10**6, 3
        )

    def test_kd_matches_torus2d_for_k2(self):
        assert bounds.recollision_bound_torus_kd(7, 10**4, 2) == pytest.approx(
            bounds.recollision_bound_torus2d(7, 10**4)
        )

    def test_expander_geometric_decay(self):
        a = bounds.recollision_bound_expander(5, 10**6, 0.5)
        b = bounds.recollision_bound_expander(10, 10**6, 0.5)
        assert b < a
        assert a == pytest.approx(0.5**5 + 1e-6)

    def test_expander_lambda_validation(self):
        with pytest.raises(ValueError):
            bounds.recollision_bound_expander(5, 100, 1.5)

    def test_hypercube_floor(self):
        assert bounds.recollision_bound_hypercube(10**3, 10**6) == pytest.approx(1e-3, rel=0.01)


class TestLocalMixingSums:
    def test_torus_log_growth(self):
        assert bounds.local_mixing_sum_torus2d(1000) == pytest.approx(math.log(2000))

    def test_ring_sqrt_growth(self):
        assert bounds.local_mixing_sum_ring(400) == pytest.approx(20.0)

    def test_kd_saturates_for_k3(self):
        small = bounds.local_mixing_sum_torus_kd(10, 3)
        large = bounds.local_mixing_sum_torus_kd(10**4, 3)
        assert large < small * 1.5  # converging series

    def test_kd_dispatches_to_lower_dims(self):
        assert bounds.local_mixing_sum_torus_kd(100, 1) == bounds.local_mixing_sum_ring(100)
        assert bounds.local_mixing_sum_torus_kd(100, 2) == bounds.local_mixing_sum_torus2d(100)

    @pytest.mark.parametrize("lam", [1.0, 1.5, -0.1])
    def test_expander_sum_needs_lambda_in_unit_interval_below_one(self, lam):
        # At lambda = 1 the 1 / (1 - lambda) term has no finite value.
        with pytest.raises(ValueError, match="lambda_value"):
            bounds.local_mixing_sum_expander(100, lam, 10**4)

    def test_expander_constant_plus_linear_term(self):
        value = bounds.local_mixing_sum_expander(100, 0.5, 10**4)
        assert value == pytest.approx(2.0 + 0.01)


class TestNetworkSizeBounds:
    def test_theorem27_walks_decrease_with_rounds(self):
        few = bounds.theorem27_walks_required(10**4, 2 * 10**4, 2.0, 100, 0.2, 0.1)
        many = bounds.theorem27_walks_required(10**4, 2 * 10**4, 2.0, 1, 0.2, 0.1)
        assert few < many

    def test_theorem27_minimum_two_walks(self):
        assert bounds.theorem27_walks_required(10, 10, 1.0, 10**6, 0.9, 0.9) >= 2

    def test_theorem31_samples_scale_with_degree_skew(self):
        balanced = bounds.theorem31_samples_required(4.0, 4.0, 0.1, 0.1)
        skewed = bounds.theorem31_samples_required(4.0, 1.0, 0.1, 0.1)
        assert skewed == pytest.approx(4 * balanced, rel=0.01)

    def test_burn_in_grows_with_lambda(self):
        assert bounds.burn_in_steps(0.99, 1000, 0.1) > bounds.burn_in_steps(0.5, 1000, 0.1)

    def test_burn_in_rejects_lambda_one(self):
        with pytest.raises(ValueError):
            bounds.burn_in_steps(1.0, 1000, 0.1)

    def test_katzir_walks_positive_and_scale_with_size(self):
        degrees = np.full(1000, 4.0)
        small = bounds.katzir_walks_required(1000, degrees, 0.2, 0.1)
        large = bounds.katzir_walks_required(4000, np.full(4000, 4.0), 0.2, 0.1)
        assert large > small >= 2


class TestConcentrationHelpers:
    def test_per_agent_delta(self):
        assert bounds.per_agent_delta(0.1, 100) == pytest.approx(0.001)

    def test_per_agent_delta_validation(self):
        with pytest.raises(ValueError):
            bounds.per_agent_delta(0.1, 0)
