"""Tests for the robot-swarm and sensor-network application packages."""

import numpy as np
import pytest

from repro.sensor.aggregation import independent_sample_mean, token_mean_estimate
from repro.sensor.network import SensorGrid
from repro.swarm.noise import NoisyCollisionModel, correct_noisy_estimate
from repro.swarm.placement import clustered_placement, gaussian_blob_placement
from repro.swarm.swarm import RobotSwarm
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D


class TestNoisyCollisionModel:
    def test_noiseless_passthrough(self, rng):
        model = NoisyCollisionModel()
        counts = np.array([0, 1, 3])
        assert np.array_equal(model.observe(counts, rng), counts.astype(float))
        assert model.is_noiseless

    def test_missing_reduces_counts(self, rng):
        model = NoisyCollisionModel(miss_probability=0.5)
        counts = np.full(10000, 4)
        observed = model.observe(counts, rng)
        assert observed.mean() == pytest.approx(2.0, rel=0.1)
        assert np.all(observed <= counts)

    @pytest.mark.parametrize("spurious_rate", [0.0, 0.05])
    @pytest.mark.parametrize("miss_probability", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize(
        "counts",
        [
            np.random.default_rng(7).poisson(0.13, size=(32, 512)),
            np.random.default_rng(8).integers(0, 5, size=(16, 64)),
            np.zeros((4, 64), dtype=np.int64),
            np.array([0, 2, 0, 0, 5, 1, 0, 0, 3]),
        ],
        ids=["sparse-batch", "dense-batch", "all-zero", "serial-1d"],
    )
    def test_thinning_nonzero_counts_matches_whole_array_binomial(
        self, counts, miss_probability, spurious_rate
    ):
        """Values and generator state equal one binomial over every count."""
        model = NoisyCollisionModel(miss_probability=miss_probability, spurious_rate=spurious_rate)
        reference = np.random.default_rng(2024)
        expected = reference.binomial(counts, 1.0 - miss_probability).astype(np.float64)
        if spurious_rate:
            expected = expected + reference.poisson(spurious_rate, size=counts.shape)
        rng = np.random.default_rng(2024)
        observed = model.observe(counts, rng)
        assert observed.dtype == np.float64 and observed.shape == counts.shape
        assert np.array_equal(observed, expected)
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_spurious_adds_counts(self, rng):
        model = NoisyCollisionModel(spurious_rate=0.5)
        counts = np.zeros(10000, dtype=np.int64)
        observed = model.observe(counts, rng)
        assert observed.mean() == pytest.approx(0.5, rel=0.15)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NoisyCollisionModel(miss_probability=1.5)
        with pytest.raises(ValueError):
            NoisyCollisionModel(spurious_rate=-0.1)

    def test_correction_inverts_bias(self):
        model = NoisyCollisionModel(miss_probability=0.4, spurious_rate=0.05)
        true_density = 0.2
        raw = (1 - 0.4) * true_density + 0.05
        assert correct_noisy_estimate(raw, model) == pytest.approx(true_density)

    def test_correction_clips_at_zero(self):
        model = NoisyCollisionModel(spurious_rate=0.5)
        assert correct_noisy_estimate(0.1, model) == 0.0

    def test_correction_rejects_total_miss(self):
        with pytest.raises(ValueError):
            correct_noisy_estimate(0.1, NoisyCollisionModel(miss_probability=1.0))

    def test_correction_vectorised(self):
        model = NoisyCollisionModel(miss_probability=0.5)
        corrected = correct_noisy_estimate(np.array([0.1, 0.2]), model)
        assert np.allclose(corrected, [0.2, 0.4])


class TestPlacements:
    def test_clustered_placement_concentrates(self, rng):
        torus = Torus2D(40)
        placement = clustered_placement(1.0, 2)
        positions = placement(torus, 200, rng)
        x, y = torus.decode(positions)
        assert positions.shape == (200,)
        # All positions fall inside a 5x5 box (up to wraparound), so the
        # number of distinct nodes is at most 25.
        assert len(np.unique(positions)) <= 25

    def test_clustered_fraction_zero_is_uniform(self, rng):
        torus = Torus2D(30)
        placement = clustered_placement(0.0, 2)
        positions = placement(torus, 500, rng)
        assert len(np.unique(positions)) > 200

    def test_gaussian_blob_placement(self, rng):
        torus = Torus2D(50)
        placement = gaussian_blob_placement(2.0)
        positions = placement(torus, 300, rng)
        assert positions.shape == (300,)
        torus.validate_nodes(positions)

    def test_placements_require_torus(self, rng):
        with pytest.raises(TypeError):
            clustered_placement(0.5, 2)(Ring(30), 10, rng)
        with pytest.raises(TypeError):
            gaussian_blob_placement(1.0)(Ring(30), 10, rng)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            clustered_placement(1.5, 2)
        with pytest.raises(ValueError):
            clustered_placement(0.5, -1)
        with pytest.raises(ValueError):
            gaussian_blob_placement(0.0)


class TestRobotSwarm:
    def test_group_assignment_by_probability(self):
        swarm = RobotSwarm(workspace=Torus2D(20), num_robots=500, groups={"forager": 0.3}, seed=0)
        fraction = swarm.group_membership("forager").mean()
        assert 0.2 < fraction < 0.4

    def test_group_assignment_explicit_array(self):
        membership = np.zeros(50, dtype=bool)
        membership[:10] = True
        swarm = RobotSwarm(workspace=Torus2D(20), num_robots=50, groups={"scout": membership})
        assert swarm.group_membership("scout").sum() == 10

    def test_group_array_shape_validated(self):
        with pytest.raises(ValueError):
            RobotSwarm(workspace=Torus2D(20), num_robots=50, groups={"bad": np.zeros(3, dtype=bool)})

    def test_estimate_densities_report(self):
        swarm = RobotSwarm(workspace=Torus2D(25), num_robots=200, groups={"forager": 0.25}, seed=1)
        report = swarm.estimate_densities(rounds=100, seed=2)
        assert report.density_estimates.shape == (200,)
        assert "forager" in report.group_density_estimates
        assert report.true_frequency("forager") == pytest.approx(
            swarm.true_group_density("forager") / swarm.true_density
        )

    def test_frequency_estimates_near_truth(self):
        swarm = RobotSwarm(workspace=Torus2D(25), num_robots=250, groups={"forager": 0.4}, seed=3)
        report = swarm.estimate_densities(rounds=200, seed=4)
        median = float(np.median(report.frequency_estimates("forager")))
        assert median == pytest.approx(report.true_frequency("forager"), abs=0.12)

    def test_unknown_group_raises(self):
        swarm = RobotSwarm(workspace=Torus2D(20), num_robots=30, seed=0)
        report = swarm.estimate_densities(rounds=10, seed=1)
        with pytest.raises(KeyError):
            report.frequency_estimates("nope")

    def test_estimate_density_run_container(self):
        swarm = RobotSwarm(workspace=Torus2D(20), num_robots=100, seed=0)
        run = swarm.estimate_density(rounds=50, seed=1)
        assert run.num_agents == 100
        assert run.mean_estimate() == pytest.approx(run.true_density, rel=0.4)

    def test_noisy_swarm_auto_corrects(self):
        swarm = RobotSwarm(
            workspace=Torus2D(25),
            num_robots=250,
            collision_model=NoisyCollisionModel(miss_probability=0.5),
            seed=5,
        )
        run = swarm.estimate_density(rounds=200, seed=6)
        assert run.mean_estimate() == pytest.approx(run.true_density, rel=0.3)

    def test_detect_quorum(self):
        swarm = RobotSwarm(workspace=Torus2D(20), num_robots=120, seed=0)  # density 0.3
        decisions = swarm.detect_quorum(threshold=0.05, rounds=200, seed=1)
        assert decisions.mean() > 0.9


class TestSensorGrid:
    def test_bernoulli_network_mean(self):
        network = SensorGrid.bernoulli(40, 0.3, seed=0)
        assert network.true_mean == pytest.approx(0.3, abs=0.05)
        assert network.num_sensors == 1600

    def test_explicit_values(self):
        values = np.arange(16, dtype=float)
        network = SensorGrid(4, values)
        assert network.true_mean == pytest.approx(values.mean())

    def test_value_shape_validated(self):
        with pytest.raises(ValueError):
            SensorGrid(4, np.zeros(5))

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            SensorGrid.bernoulli(10, 1.5)

    def test_token_walk_visits_valid_sensors(self):
        network = SensorGrid.bernoulli(20, 0.5, seed=1)
        visited = network.token_walk(100, seed=2)
        assert visited.shape == (100,)
        network.topology.validate_nodes(visited)

    def test_token_walk_start_override(self):
        network = SensorGrid.bernoulli(20, 0.5, seed=1)
        visited = network.token_walk(5, seed=2, start=7)
        assert network.topology.torus_distance(7, int(visited[0])) == 1

    def test_token_mean_estimate_accuracy(self):
        network = SensorGrid.bernoulli(50, 0.3, seed=3)
        result = token_mean_estimate(network, 3000, seed=4)
        assert result.estimate == pytest.approx(network.true_mean, abs=0.08)
        assert 0.0 <= result.repeat_visit_fraction <= 1.0

    def test_independent_baseline(self):
        network = SensorGrid.bernoulli(40, 0.3, seed=7)
        result = independent_sample_mean(network, 2000, seed=8)
        assert result.estimate == pytest.approx(network.true_mean, abs=0.05)

    def test_relative_error_property(self):
        network = SensorGrid(4, np.ones(16))
        result = token_mean_estimate(network, 10, seed=0)
        assert result.relative_error == pytest.approx(0.0)
