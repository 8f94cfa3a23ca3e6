"""Tests for the simulation engine, Algorithm 1, and the result containers."""

import numpy as np
import pytest

from repro.core.estimator import RandomWalkDensityEstimator, estimate_density
from repro.core.kernel import run_kernel
from repro.core.results import AccuracySummary, DensityEstimationRun
from repro.core.simulation import SimulationConfig, uniform_placement
from repro.topology.complete import CompleteGraph
from repro.topology.torus import Torus2D


class TestSimulationConfig:
    def test_valid_config(self):
        SimulationConfig(num_agents=10, rounds=5)

    @pytest.mark.parametrize("agents,rounds", [(0, 5), (10, 0), (-1, 5)])
    def test_invalid_counts_rejected(self, agents, rounds):
        with pytest.raises(ValueError):
            SimulationConfig(num_agents=agents, rounds=rounds)

    def test_invalid_marked_fraction_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(num_agents=10, rounds=5, marked_fraction=1.5)


class TestSimulateDensityEstimation:
    def test_output_shapes(self, small_torus):
        config = SimulationConfig(num_agents=30, rounds=20)
        outcome = run_kernel(small_torus, config, None, seed=0)
        assert outcome.collision_totals.shape == (30,)
        assert outcome.initial_positions.shape == (30,)
        assert outcome.final_positions.shape == (30,)
        assert outcome.num_agents == 30
        assert outcome.rounds == 20

    def test_true_density_convention(self, small_torus):
        config = SimulationConfig(num_agents=30, rounds=5)
        outcome = run_kernel(small_torus, config, None, seed=0)
        assert outcome.true_density == pytest.approx(29 / small_torus.num_nodes)

    def test_deterministic_given_seed(self, small_torus):
        config = SimulationConfig(num_agents=25, rounds=15)
        a = run_kernel(small_torus, config, None, seed=7)
        b = run_kernel(small_torus, config, None, seed=7)
        assert np.array_equal(a.collision_totals, b.collision_totals)

    def test_different_seeds_differ(self, small_torus):
        config = SimulationConfig(num_agents=40, rounds=30)
        a = run_kernel(small_torus, config, None, seed=1)
        b = run_kernel(small_torus, config, None, seed=2)
        assert not np.array_equal(a.collision_totals, b.collision_totals)

    def test_single_agent_sees_no_collisions(self, small_torus):
        config = SimulationConfig(num_agents=1, rounds=50)
        outcome = run_kernel(small_torus, config, None, seed=0)
        assert outcome.collision_totals.tolist() == [0.0]
        assert outcome.true_density == 0.0

    def test_trajectory_recorded_when_requested(self, small_torus):
        config = SimulationConfig(num_agents=10, rounds=12, record_trajectory=True)
        outcome = run_kernel(small_torus, config, None, seed=0)
        assert outcome.trajectory is not None
        assert outcome.trajectory.shape == (12, 10)
        # Cumulative counts are non-decreasing over rounds.
        assert np.all(np.diff(outcome.trajectory, axis=0) >= 0)
        assert np.array_equal(outcome.trajectory[-1], outcome.collision_totals)

    def test_marked_agents_tracked(self, small_torus):
        config = SimulationConfig(num_agents=60, rounds=30, marked_fraction=0.5)
        outcome = run_kernel(small_torus, config, None, seed=3)
        assert outcome.marked.any()
        assert np.all(outcome.marked_collision_totals <= outcome.collision_totals)

    def test_custom_placement_used(self, small_torus):
        def corner_placement(topology, count, rng):
            return np.zeros(count, dtype=np.int64)

        config = SimulationConfig(num_agents=5, rounds=1, placement=corner_placement)
        outcome = run_kernel(small_torus, config, None, seed=0)
        assert np.all(outcome.initial_positions == 0)

    def test_bad_placement_shape_rejected(self, small_torus):
        def bad_placement(topology, count, rng):
            return np.zeros(count + 1, dtype=np.int64)

        config = SimulationConfig(num_agents=5, rounds=1, placement=bad_placement)
        with pytest.raises(ValueError):
            run_kernel(small_torus, config, None, seed=0)

    def test_uniform_placement_helper(self, small_torus, rng):
        positions = uniform_placement(small_torus, 100, rng)
        assert positions.shape == (100,)
        small_torus.validate_nodes(positions)


class TestRandomWalkDensityEstimator:
    def test_run_returns_expected_fields(self, small_torus):
        estimator = RandomWalkDensityEstimator(small_torus, num_agents=40, rounds=25)
        run = estimator.run(seed=0)
        assert isinstance(run, DensityEstimationRun)
        assert run.estimates.shape == (40,)
        assert run.rounds == 25
        assert run.algorithm == "random_walk"
        assert run.topology_name == small_torus.name

    def test_estimates_are_counts_over_rounds(self, small_torus):
        estimator = RandomWalkDensityEstimator(small_torus, num_agents=40, rounds=20)
        run = estimator.run(seed=1)
        assert np.allclose(run.estimates, run.collision_totals / 20)

    def test_mean_estimate_near_true_density(self):
        # Corollary 3: the estimator is unbiased; with many agents the mean
        # over agents is tightly concentrated.
        torus = Torus2D(30)
        estimator = RandomWalkDensityEstimator(torus, num_agents=300, rounds=200)
        run = estimator.run(seed=2)
        assert run.mean_estimate() == pytest.approx(run.true_density, rel=0.15)

    def test_accuracy_improves_with_rounds(self):
        torus = Torus2D(30)
        short = RandomWalkDensityEstimator(torus, 200, 20).run(seed=3)
        long = RandomWalkDensityEstimator(torus, 200, 500).run(seed=3)
        assert long.empirical_epsilon(0.1) < short.empirical_epsilon(0.1)

    def test_trajectory_metadata(self, small_torus):
        estimator = RandomWalkDensityEstimator(small_torus, num_agents=20, rounds=10)
        run = estimator.run(seed=0, record_trajectory=True)
        trajectory = run.metadata["trajectory"]
        assert trajectory.shape == (10, 20)
        assert np.allclose(trajectory[-1], run.estimates)

    def test_convenience_function(self, small_torus):
        run = estimate_density(small_torus, num_agents=15, rounds=5, seed=0)
        assert run.estimates.shape == (15,)

    def test_invalid_parameters(self, small_torus):
        with pytest.raises(ValueError):
            RandomWalkDensityEstimator(small_torus, num_agents=0, rounds=5)
        with pytest.raises(ValueError):
            RandomWalkDensityEstimator(small_torus, num_agents=5, rounds=0)

    def test_works_on_complete_graph(self):
        graph = CompleteGraph(100)
        run = RandomWalkDensityEstimator(graph, 50, 100).run(seed=4)
        assert run.mean_estimate() == pytest.approx(run.true_density, rel=0.3)


class TestResultContainers:
    def _run(self) -> DensityEstimationRun:
        return DensityEstimationRun(
            estimates=np.array([0.09, 0.1, 0.11, 0.2]),
            collision_totals=np.array([9.0, 10.0, 11.0, 20.0]),
            true_density=0.1,
            rounds=100,
            num_agents=4,
            num_nodes=1000,
            topology_name="torus2d",
        )

    def test_relative_errors(self):
        errors = self._run().relative_errors()
        assert errors[1] == pytest.approx(0.0)
        assert errors[3] == pytest.approx(1.0)

    def test_fraction_within(self):
        assert self._run().fraction_within(0.15) == pytest.approx(0.75)

    def test_empirical_epsilon_is_quantile(self):
        run = self._run()
        assert run.empirical_epsilon(0.5) <= run.empirical_epsilon(0.01)

    def test_all_within(self):
        run = self._run()
        assert not run.all_within(0.5)
        assert run.all_within(1.0)  # worst agent has exactly 100% relative error

    def test_summary_fields(self):
        summary = self._run().summary()
        assert isinstance(summary, AccuracySummary)
        assert summary.true_density == 0.1
        assert summary.max_relative_error == pytest.approx(1.0)

    def test_summary_rejects_empty(self):
        with pytest.raises(ValueError):
            AccuracySummary.from_estimates(np.array([]), 0.1)

    def test_summary_rejects_zero_density(self):
        with pytest.raises(ValueError):
            AccuracySummary.from_estimates(np.array([0.1]), 0.0)

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(ValueError):
            self._run().fraction_within(0.0)
