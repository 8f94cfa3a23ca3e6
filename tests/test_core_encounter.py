"""Tests for collision counting (repro.core.encounter)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encounter import collision_counts, marked_collision_counts


class TestCollisionCounts:
    def test_no_collisions_when_all_distinct(self):
        assert np.array_equal(collision_counts(np.array([0, 1, 2, 3])), np.zeros(4))

    def test_pair_collision(self):
        counts = collision_counts(np.array([5, 5, 7]))
        assert counts.tolist() == [1, 1, 0]

    def test_triple_collision(self):
        counts = collision_counts(np.array([2, 2, 2]))
        assert counts.tolist() == [2, 2, 2]

    def test_empty_input(self):
        assert collision_counts(np.array([], dtype=np.int64)).shape == (0,)

    def test_single_agent_sees_nothing(self):
        assert collision_counts(np.array([9])).tolist() == [0]

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            collision_counts(np.zeros((2, 2), dtype=np.int64))

    def test_total_counts_even(self):
        # Each pairwise collision is counted twice (once per participant),
        # so the total is always even.
        rng = np.random.default_rng(0)
        positions = rng.integers(0, 10, size=100)
        assert collision_counts(positions).sum() % 2 == 0

    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce(self, values):
        positions = np.array(values)
        expected = [
            sum(1 for j, other in enumerate(values) if j != i and other == value)
            for i, value in enumerate(values)
        ]
        assert collision_counts(positions).tolist() == expected


class TestMarkedCollisionCounts:
    def test_only_marked_counted(self):
        positions = np.array([1, 1, 1, 2])
        marked = np.array([True, False, False, True])
        counts = marked_collision_counts(positions, marked)
        # Agent 0 is marked; it sees no *other* marked agent at node 1.
        # Agents 1 and 2 each see the single marked agent 0.
        assert counts.tolist() == [0, 1, 1, 0]

    def test_no_marked_agents(self):
        positions = np.array([3, 3, 3])
        marked = np.zeros(3, dtype=bool)
        assert marked_collision_counts(positions, marked).tolist() == [0, 0, 0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            marked_collision_counts(np.array([1, 2]), np.array([True]))

    def test_marked_never_exceeds_total(self):
        rng = np.random.default_rng(1)
        positions = rng.integers(0, 8, size=200)
        marked = rng.random(200) < 0.3
        total = collision_counts(positions)
        marked_only = marked_collision_counts(positions, marked)
        assert np.all(marked_only <= total)

    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_all_marked_equals_total(self, size, seed):
        rng = np.random.default_rng(seed)
        positions = rng.integers(0, 6, size=size)
        marked = np.ones(size, dtype=bool)
        assert np.array_equal(
            marked_collision_counts(positions, marked), collision_counts(positions)
        )
