"""Tests for the batched replicate execution path (``run_kernel``'s ``(R, n)`` mode)."""

import numpy as np
import pytest

from repro.core.encounter import (
    batched_collision_counts,
    batched_collision_profiles,
    batched_marked_collision_counts,
    collision_counts,
    marked_collision_counts,
)
from repro.core.kernel import run_kernel
from repro.core.simulation import SimulationConfig
from repro.swarm.noise import NoisyCollisionModel
from repro.topology import (
    BoundedGrid,
    CompleteGraph,
    Hypercube,
    RegularExpander,
    Ring,
    Torus2D,
    TorusKD,
)
from repro.walks.movement import CollisionAvoidingWalk, LazyRandomWalk

ALL_TOPOLOGIES = [
    Torus2D(8),
    BoundedGrid(8),
    Ring(17),
    TorusKD(5, 3),
    Hypercube(6),
    CompleteGraph(29),
    RegularExpander(24, 4, seed=5),
]


class TestBatchedCollisionCounts:
    def test_matches_per_row_counts(self):
        rng = np.random.default_rng(0)
        positions = rng.integers(0, 40, size=(9, 33))
        batched = batched_collision_counts(positions, 40)
        for row in range(positions.shape[0]):
            assert np.array_equal(batched[row], collision_counts(positions[row]))

    def test_replicates_do_not_interfere(self):
        # Same node label in different replicates must not count as a collision.
        positions = np.array([[3, 3], [3, 5]])
        batched = batched_collision_counts(positions, 10)
        assert np.array_equal(batched, [[1, 1], [0, 0]])

    def test_marked_matches_per_row_counts(self):
        rng = np.random.default_rng(1)
        positions = rng.integers(0, 25, size=(6, 40))
        marked = rng.random((6, 40)) < 0.3
        batched = batched_marked_collision_counts(positions, marked, 25)
        for row in range(positions.shape[0]):
            assert np.array_equal(
                batched[row], marked_collision_counts(positions[row], marked[row])
            )

    def test_requires_two_dimensions(self):
        with pytest.raises(ValueError, match="2-D"):
            batched_collision_counts(np.zeros(5, dtype=np.int64), 10)

    def test_marked_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same shape"):
            batched_marked_collision_counts(
                np.zeros((2, 3), dtype=np.int64), np.zeros((2, 4), dtype=bool), 10
            )

    def test_out_of_range_labels_rejected(self):
        # Labels >= num_nodes would alias into the next replicate's block.
        with pytest.raises(ValueError, match="lie in"):
            batched_collision_counts(np.array([[0, 5]]), 5)
        with pytest.raises(ValueError, match="lie in"):
            batched_collision_counts(np.array([[-1, 2]]), 5)

    @pytest.mark.parametrize("shape", [(0, 5), (3, 0)], ids=["no-replicates", "no-agents"])
    def test_empty_batches_count_nothing(self, shape):
        positions = np.zeros(shape, dtype=np.int64)
        marked = np.zeros(shape, dtype=bool)
        for counts in (
            batched_collision_counts(positions, 10),
            batched_marked_collision_counts(positions, marked, 10),
            *batched_collision_profiles(positions, marked, 10),
        ):
            assert counts.shape == shape
            assert counts.dtype == np.int64

    def test_marked_counts_of_no_agents(self):
        counts = marked_collision_counts(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool))
        assert counts.shape == (0,) and counts.dtype == np.int64

    def test_overflow_guard(self):
        huge = 2**62
        with pytest.raises(ValueError, match="overflow"):
            batched_collision_counts(np.zeros((4, 2), dtype=np.int64), huge)


@pytest.mark.parametrize("topology", ALL_TOPOLOGIES, ids=lambda t: t.name)
class TestShapePolymorphicSteps:
    """Every topology must step (R, n) matrices without special cases."""

    def test_step_many_preserves_batch_shape(self, topology):
        rng = np.random.default_rng(3)
        positions = topology.uniform_nodes((4, 11), rng)
        assert positions.shape == (4, 11)
        stepped = topology.step_many(positions, rng)
        assert stepped.shape == (4, 11)
        topology.validate_nodes(stepped)

    def test_batched_steps_are_neighbour_moves(self, topology):
        rng = np.random.default_rng(4)
        positions = topology.uniform_nodes((3, 7), rng)
        stepped = topology.step_many(positions, rng)
        for before, after in zip(positions.reshape(-1), stepped.reshape(-1)):
            if isinstance(topology, BoundedGrid) and after == before:
                continue  # reflecting boundary: a blocked move stays put
            assert int(after) in topology.neighbors(int(before))


class TestBatchSimulation:
    def test_single_replicate_equals_legacy_exactly(self):
        # With R=1 the batch consumes the generator identically to the legacy
        # loop (same draws in the same order), so results match bit for bit.
        config = SimulationConfig(num_agents=37, rounds=60, marked_fraction=0.25)
        for topology in (Torus2D(12), Ring(50)):
            legacy = run_kernel(topology, config, None, seed=123)
            batch = run_kernel(topology, config, 1, seed=123)
            assert np.array_equal(batch.collision_totals[0], legacy.collision_totals)
            assert np.array_equal(
                batch.marked_collision_totals[0], legacy.marked_collision_totals
            )
            assert np.array_equal(batch.marked[0], legacy.marked)
            assert np.array_equal(batch.initial_positions[0], legacy.initial_positions)
            assert np.array_equal(batch.final_positions[0], legacy.final_positions)

    def test_batched_vs_legacy_distributions_agree(self):
        # Batched and legacy replicates are different draws of the same
        # distribution: collision totals must agree in mean and variance.
        topology = Torus2D(16)
        config = SimulationConfig(num_agents=78, rounds=120)
        replicates = 48
        batch = run_kernel(topology, config, replicates, seed=9)
        legacy = np.stack(
            [
                run_kernel(topology, config, None, seed=1000 + index).collision_totals
                for index in range(replicates)
            ]
        )
        expected_mean = config.rounds * (config.num_agents - 1) / topology.num_nodes
        assert batch.collision_totals.mean() == pytest.approx(expected_mean, rel=0.05)
        assert legacy.mean() == pytest.approx(expected_mean, rel=0.05)
        assert batch.collision_totals.mean() == pytest.approx(legacy.mean(), rel=0.1)
        assert batch.collision_totals.var() == pytest.approx(legacy.var(), rel=0.35)

    def test_determinism_given_seed(self):
        topology = Torus2D(10)
        config = SimulationConfig(num_agents=20, rounds=30)
        first = run_kernel(topology, config, 5, seed=7)
        second = run_kernel(topology, config, 5, seed=7)
        assert np.array_equal(first.collision_totals, second.collision_totals)
        assert np.array_equal(first.final_positions, second.final_positions)

    def test_replicate_view_and_shapes(self):
        topology = TorusKD(5, 3)
        config = SimulationConfig(num_agents=25, rounds=40, record_trajectory=True)
        batch = run_kernel(topology, config, 6, seed=2)
        assert batch.replicates == 6
        assert batch.num_agents == 25
        assert batch.estimates().shape == (6, 25)
        assert batch.trajectory.shape == (40, 6, 25)
        assert np.array_equal(batch.trajectory[-1], batch.collision_totals)
        view = batch.replicate(2)
        assert np.array_equal(view.collision_totals, batch.collision_totals[2])
        assert view.trajectory.shape == (40, 25)
        assert view.metadata["replicate"] == 2
        assert view.true_density == batch.true_density

    def test_replicate_index_out_of_range(self):
        batch = run_kernel(
            Torus2D(6), SimulationConfig(num_agents=5, rounds=3), 2, seed=0
        )
        with pytest.raises(IndexError):
            batch.replicate(2)
        assert np.array_equal(
            batch.replicate(-1).collision_totals, batch.collision_totals[1]
        )

    def test_custom_placement_rows(self):
        topology = Torus2D(9)

        def corner_placement(topo, count, rng):
            return np.zeros(count, dtype=np.int64)

        config = SimulationConfig(num_agents=8, rounds=5, placement=corner_placement)
        batch = run_kernel(topology, config, 3, seed=1)
        assert np.array_equal(batch.initial_positions, np.zeros((3, 8)))

    def test_bad_placement_shape_rejected(self):
        config = SimulationConfig(
            num_agents=8, rounds=5, placement=lambda t, count, rng: np.zeros(count + 1, dtype=np.int64)
        )
        with pytest.raises(ValueError, match="placement must return shape"):
            run_kernel(Torus2D(6), config, 2, seed=0)

    def test_non_batch_safe_movement_model_rejected_by_name(self):
        class WholePopulationWalk:
            # No batch_safe attribute: the kernel must refuse to batch it
            # and its error message must name the offending model.
            name = "whole_population_walk"

            def step(self, topology, positions, rng):
                return topology.step_many(positions, rng)

        config = SimulationConfig(num_agents=5, rounds=3, movement=WholePopulationWalk())
        with pytest.raises(ValueError, match="whole_population_walk"):
            run_kernel(Torus2D(6), config, 2, seed=0)

    def test_collision_avoiding_walk_batches(self):
        # The last scheduler-only catalog model is now vectorized: its
        # co-location test runs per replicate row, so it batches — and each
        # row reproduces the serial run of the same stream contract.
        config = SimulationConfig(num_agents=10, rounds=6, movement=CollisionAvoidingWalk(avoidance_steps=2))
        batch = run_kernel(Torus2D(6), config, 3, seed=9)
        assert batch.collision_totals.shape == (3, 10)
        assert np.all(batch.collision_totals >= 0)

    def test_non_batch_safe_collision_model_rejected(self):
        class WholePopulationModel:
            # No batch_safe attribute: must stay on the scheduler path.
            def observe(self, true_counts, rng):
                return true_counts

        config = SimulationConfig(
            num_agents=5, rounds=3, collision_model=WholePopulationModel()
        )
        with pytest.raises(ValueError, match="scheduler"):
            run_kernel(Torus2D(6), config, 2, seed=0)

    def test_batch_safe_movement_model_accepted(self):
        # Elementwise movement models run on the (R, n) matrix; each
        # replicate's rows behave like an independent run.
        config = SimulationConfig(
            num_agents=12, rounds=6, movement=LazyRandomWalk(stay_probability=0.5)
        )
        batch = run_kernel(Torus2D(6), config, 3, seed=7)
        assert batch.collision_totals.shape == (3, 12)
        assert np.all(batch.collision_totals >= 0)

    def test_batch_safe_collision_model_accepted(self):
        config = SimulationConfig(
            num_agents=12, rounds=6, collision_model=NoisyCollisionModel(miss_probability=0.5)
        )
        batch = run_kernel(Torus2D(6), config, 3, seed=7)
        assert batch.collision_totals.shape == (3, 12)
        # Missed detections can only lower the observed totals.
        noiseless = run_kernel(
            Torus2D(6), SimulationConfig(num_agents=12, rounds=6), 3, seed=7
        )
        assert batch.collision_totals.sum() <= noiseless.collision_totals.sum()

    def test_replicates_validated(self):
        with pytest.raises(ValueError):
            run_kernel(
                Torus2D(6), SimulationConfig(num_agents=5, rounds=3), 0, seed=0
            )

    def test_unbiased_across_replicates(self):
        topology = Torus2D(20)
        config = SimulationConfig(num_agents=41, rounds=150)
        batch = run_kernel(topology, config, 24, seed=4)
        assert batch.estimates().mean() == pytest.approx(batch.true_density, rel=0.05)
