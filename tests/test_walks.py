"""Tests for the random-walk simulation and analysis tools (repro.walks)."""

import numpy as np
import pytest

from repro.topology.complete import CompleteGraph
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D
from repro.walks.equalization import equalization_counts, equalization_profile
from repro.walks.mixing import local_mixing_sum
from repro.walks.moments import central_moments, pairwise_collision_counts, visit_counts
from repro.walks.recollision import recollision_probability, recollision_profile
from repro.walks.single import walk_paths


class TestSingleWalks:
    def test_walk_paths_shape(self, small_torus, rng):
        starts = small_torus.uniform_nodes(10, rng)
        paths = walk_paths(small_torus, starts, 15, rng)
        assert paths.shape == (10, 16)
        assert np.array_equal(paths[:, 0], starts)

    def test_walk_paths_consecutive_steps_adjacent(self, small_torus, rng):
        starts = small_torus.uniform_nodes(5, rng)
        paths = walk_paths(small_torus, starts, 10, rng)
        for row in paths:
            for before, after in zip(row[:-1], row[1:]):
                assert small_torus.torus_distance(int(before), int(after)) == 1


class TestRecollision:
    def test_profile_starts_at_one(self, small_torus):
        profile = recollision_profile(small_torus, 10, trials=200, seed=0)
        assert profile.probability[0] == pytest.approx(1.0)

    def test_profile_length(self, small_torus):
        profile = recollision_profile(small_torus, 12, trials=100, seed=0)
        assert len(profile.offsets) == 13
        assert len(profile.probability) == 13

    def test_probabilities_in_unit_interval(self, small_torus):
        profile = recollision_profile(small_torus, 16, trials=500, seed=1)
        assert np.all(profile.probability >= 0)
        assert np.all(profile.probability <= 1)

    def test_torus_decay_roughly_inverse(self):
        # Lemma 4: P[recollision at m] ~ 1/(m+1); check m=2 vs m=8 ratio.
        torus = Torus2D(60)
        profile = recollision_profile(torus, 8, trials=30000, seed=2)
        ratio = profile.probability[2] / max(profile.probability[8], 1e-9)
        assert 1.5 < ratio < 8.0

    def test_ring_decays_slower_than_torus(self):
        ring_profile = recollision_profile(Ring(5000), 16, trials=8000, seed=3)
        torus_profile = recollision_profile(Torus2D(70), 16, trials=8000, seed=3)
        assert ring_profile.probability[16] > torus_profile.probability[16]

    def test_complete_graph_recollision_is_small(self):
        graph = CompleteGraph(500)
        probability = recollision_probability(graph, 4, trials=5000, seed=4)
        assert probability < 0.02

    def test_local_mixing_sum_matches_cumulative(self, small_torus):
        profile = recollision_profile(small_torus, 10, trials=300, seed=5)
        assert profile.local_mixing_sum() == pytest.approx(float(profile.cumulative()[-1]))

    def test_ring_offset_one_recollision_is_one_half(self):
        # Two ring walkers starting at the same node re-collide after one step
        # exactly when they move in the same direction: probability 1/2.
        profile = recollision_profile(Ring(100), 1, trials=20000, seed=6, combine_parity=False)
        assert profile.probability[1] == pytest.approx(0.5, abs=0.02)


class TestEqualization:
    def test_profile_odd_offsets_zero_on_torus(self, small_torus):
        profile = equalization_profile(small_torus, 9, trials=500, seed=0)
        assert profile.probability[1] == 0.0
        assert profile.probability[3] == 0.0

    def test_profile_even_offsets_positive(self):
        torus = Torus2D(40)
        profile = equalization_profile(torus, 8, trials=20000, seed=1)
        assert profile.probability[2] > 0.1  # exact value is 0.25 in expectation... (>0.1 is safe)

    def test_equalization_counts_shape_and_range(self, small_torus):
        counts = equalization_counts(small_torus, 20, trials=300, seed=2)
        assert counts.shape == (300,)
        assert counts.min() >= 0
        assert counts.max() <= 20

    def test_equalization_probability_at_two_close_to_quarter(self):
        # After 2 steps, return probability on the torus is exactly 1/4
        # (the second step must undo the first).
        torus = Torus2D(50)
        profile = equalization_profile(torus, 2, trials=40000, seed=3)
        assert profile.probability[2] == pytest.approx(0.25, abs=0.02)


class TestMoments:
    def test_central_moments_basic(self):
        samples = np.array([1.0, 2.0, 3.0, 4.0])
        moments = central_moments(samples, [1, 2])
        assert moments[1] == pytest.approx(0.0, abs=1e-12)
        assert moments[2] == pytest.approx(np.var(samples))

    def test_central_moments_empty_rejected(self):
        with pytest.raises(ValueError):
            central_moments(np.array([]), [2])

    def test_pairwise_collision_counts_mean_close_to_t_over_a(self):
        # Lemma 12 argument: E[c_j] = t / A.
        torus = Torus2D(20)
        rounds = 50
        counts = pairwise_collision_counts(torus, rounds, trials=40000, seed=0)
        assert counts.mean() == pytest.approx(rounds / torus.num_nodes, rel=0.15)

    def test_visit_counts_mean_close_to_t_over_a(self):
        torus = Torus2D(20)
        steps = 50
        counts = visit_counts(torus, steps, trials=40000, seed=1)
        assert counts.mean() == pytest.approx(steps / torus.num_nodes, rel=0.15)

    def test_visit_counts_invalid_target(self, small_torus):
        with pytest.raises(ValueError):
            visit_counts(small_torus, 10, trials=10, seed=0, target=10**6)

    def test_pairwise_counts_non_negative(self, small_torus):
        counts = pairwise_collision_counts(small_torus, 10, trials=100, seed=2)
        assert counts.min() >= 0


class TestMixing:
    def test_local_mixing_sum_from_topology(self, small_torus):
        value = local_mixing_sum(small_torus, max_offset=10, trials=200, seed=0)
        assert value >= 1.0  # offset 0 contributes 1

    def test_local_mixing_sum_requires_offset_for_topology(self, small_torus):
        with pytest.raises(ValueError):
            local_mixing_sum(small_torus)
