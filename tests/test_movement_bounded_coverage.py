"""Tests for movement models and the bounded grid."""

import numpy as np
import pytest

from repro.core.estimator import RandomWalkDensityEstimator
from repro.topology.bounded_grid import BoundedGrid
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D
from repro.walks.movement import (
    BiasedTorusWalk,
    CollisionAvoidingWalk,
    LazyRandomWalk,
    UniformRandomWalk,
)


class TestUniformRandomWalk:
    def test_matches_topology_step_distribution(self, small_torus, rng):
        model = UniformRandomWalk()
        positions = small_torus.uniform_nodes(200, rng)
        stepped = model.step(small_torus, positions, rng)
        assert np.all(small_torus.torus_distance(positions, stepped) == 1)

    def test_estimator_accepts_movement_model(self, small_torus):
        run = RandomWalkDensityEstimator(
            small_torus, 40, 30, movement=UniformRandomWalk()
        ).run(seed=0)
        assert run.estimates.shape == (40,)


class TestLazyRandomWalk:
    def test_stay_probability_respected(self, small_torus):
        model = LazyRandomWalk(stay_probability=0.7)
        rng = np.random.default_rng(0)
        positions = small_torus.uniform_nodes(5000, rng)
        stepped = model.step(small_torus, positions, rng)
        stay_fraction = np.mean(stepped == positions)
        assert stay_fraction == pytest.approx(0.7, abs=0.03)

    def test_zero_laziness_always_moves(self, small_torus, rng):
        model = LazyRandomWalk(stay_probability=0.0)
        positions = small_torus.uniform_nodes(500, rng)
        stepped = model.step(small_torus, positions, rng)
        assert np.all(stepped != positions)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            LazyRandomWalk(stay_probability=1.0)

    def test_estimator_remains_unbiased(self):
        torus = Torus2D(30)
        run = RandomWalkDensityEstimator(
            torus, 270, 300, movement=LazyRandomWalk(stay_probability=0.5)
        ).run(seed=1)
        assert run.mean_estimate() == pytest.approx(run.true_density, rel=0.15)


class TestBiasedTorusWalk:
    def test_probabilities_sum_to_one(self):
        model = BiasedTorusWalk(bias=0.4)
        assert model.step_probabilities().sum() == pytest.approx(1.0)

    def test_full_bias_always_steps_plus_x(self):
        torus = Torus2D(20)
        model = BiasedTorusWalk(bias=1.0)
        rng = np.random.default_rng(0)
        positions = torus.uniform_nodes(300, rng)
        stepped = model.step(torus, positions, rng)
        x0, _ = torus.decode(positions)
        x1, _ = torus.decode(stepped)
        assert np.all((x1 - x0) % torus.side == 1)

    def test_requires_torus(self, rng):
        with pytest.raises(TypeError):
            BiasedTorusWalk().step(Ring(20), np.zeros(3, dtype=np.int64), rng)

    def test_estimator_remains_unbiased_under_common_drift(self):
        torus = Torus2D(30)
        run = RandomWalkDensityEstimator(
            torus, 270, 300, movement=BiasedTorusWalk(bias=0.5)
        ).run(seed=2)
        assert run.mean_estimate() == pytest.approx(run.true_density, rel=0.15)


class TestCollisionAvoidingWalk:
    def test_negative_avoidance_rejected(self):
        with pytest.raises(ValueError):
            CollisionAvoidingWalk(avoidance_steps=-1)

    def test_zero_avoidance_matches_uniform_statistics(self, small_torus, rng):
        model = CollisionAvoidingWalk(avoidance_steps=0)
        positions = small_torus.uniform_nodes(100, rng)
        stepped = model.step(small_torus, positions, rng)
        assert np.all(small_torus.torus_distance(positions, stepped) == 1)

    def test_estimator_biased_downwards(self):
        torus = Torus2D(30)
        run = RandomWalkDensityEstimator(
            torus, 270, 300, movement=CollisionAvoidingWalk(avoidance_steps=2)
        ).run(seed=3)
        assert run.mean_estimate() < run.true_density * 0.95


class TestBoundedGrid:
    def test_degrees_by_location(self):
        grid = BoundedGrid(5)
        assert grid.degree_of(int(grid.encode(0, 0))) == 2       # corner
        assert grid.degree_of(int(grid.encode(0, 2))) == 3       # edge
        assert grid.degree_of(int(grid.encode(2, 2))) == 4       # interior
        assert not grid.is_regular

    def test_neighbors_stay_in_grid(self):
        grid = BoundedGrid(4)
        for node in range(grid.num_nodes):
            neighbors = grid.neighbors(node)
            assert len(neighbors) == grid.degree_of(node)
            grid.validate_nodes(neighbors)

    def test_step_never_leaves_grid(self, rng):
        grid = BoundedGrid(6)
        positions = grid.uniform_nodes(500, rng)
        for _ in range(50):
            positions = grid.step_many(positions, rng)
            grid.validate_nodes(positions)

    def test_step_moves_at_most_one(self, rng):
        grid = BoundedGrid(8)
        positions = grid.uniform_nodes(300, rng)
        stepped = grid.step_many(positions, rng)
        x0, y0 = grid.decode(positions)
        x1, y1 = grid.decode(stepped)
        assert np.all(np.abs(x1 - x0) + np.abs(y1 - y0) <= 1)

    def test_encode_rejects_out_of_range(self):
        grid = BoundedGrid(4)
        with pytest.raises(ValueError):
            grid.encode(4, 0)
        with pytest.raises(ValueError):
            grid.encode(-1, 2)

    def test_boundary_nodes_count(self):
        grid = BoundedGrid(5)
        assert len(grid.boundary_nodes()) == 16  # perimeter of a 5x5 grid

    def test_corner_walker_sometimes_stays(self):
        grid = BoundedGrid(10)
        rng = np.random.default_rng(0)
        corner = int(grid.encode(0, 0))
        positions = np.full(4000, corner, dtype=np.int64)
        stepped = grid.step_many(positions, rng)
        # Half the moves from a corner are blocked -> the walker stays put.
        assert np.mean(stepped == corner) == pytest.approx(0.5, abs=0.05)

    def test_stationary_nodes_are_uniform(self):
        # Not degree-weighted: corners, edges and the interior alike.
        grid = BoundedGrid(4)
        draws = grid.stationary_nodes(400_000, seed=5)
        assert np.array_equal(draws, grid.uniform_nodes(400_000, seed=5))
        frequencies = np.bincount(draws, minlength=16) / draws.size
        assert np.allclose(frequencies, 1 / 16, atol=0.003)

    def test_uniform_law_is_stationary_under_the_walk(self):
        # A blocked move stays put, so the transition matrix is symmetric and
        # walking from a uniform start keeps every node at 1/16.
        grid = BoundedGrid(4)
        rng = np.random.default_rng(6)
        positions = grid.stationary_nodes(400_000, rng)
        for _ in range(50):
            positions = grid.step_many(positions, rng)
        frequencies = np.bincount(positions, minlength=16) / positions.size
        assert np.allclose(frequencies, 1 / 16, atol=0.003)

    def test_estimator_unbiased_on_bounded_grid(self):
        grid = BoundedGrid(24)
        run = RandomWalkDensityEstimator(grid, 120, 300).run(seed=4)
        assert run.mean_estimate() == pytest.approx(run.true_density, rel=0.2)

