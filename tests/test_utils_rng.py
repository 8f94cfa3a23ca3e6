"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import as_generator, spawn_generators


class TestAsGenerator:
    def test_none_returns_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_generator(7).integers(0, 1000, size=10)
        b = as_generator(7).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_generator(1).integers(0, 10**9, size=10)
        b = as_generator(2).integers(0, 10**9, size=10)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(3)
        assert as_generator(gen) is gen

    def test_seed_sequence_accepted(self):
        gen = as_generator(np.random.SeedSequence(5))
        assert isinstance(gen, np.random.Generator)


class TestSpawnGenerators:
    def test_count(self):
        assert len(spawn_generators(0, 5)) == 5

    def test_zero_count(self):
        assert spawn_generators(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    def test_children_are_independent_streams(self):
        children = spawn_generators(42, 2)
        a = children[0].integers(0, 10**9, size=20)
        b = children[1].integers(0, 10**9, size=20)
        assert not np.array_equal(a, b)

    def test_deterministic_given_seed(self):
        first = [g.integers(0, 10**9) for g in spawn_generators(9, 3)]
        second = [g.integers(0, 10**9) for g in spawn_generators(9, 3)]
        assert first == second

    def test_spawn_from_generator(self):
        children = spawn_generators(np.random.default_rng(1), 3)
        assert len(children) == 3
        assert all(isinstance(c, np.random.Generator) for c in children)
