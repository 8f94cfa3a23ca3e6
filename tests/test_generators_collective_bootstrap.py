"""Tests for graph generators and collective quorum voting."""

import numpy as np
import pytest

from repro.netsize.generators import (
    barabasi_albert_graph,
    expander_graph,
    powerlaw_cluster_graph,
    small_world_graph,
    torus_3d_graph,
)
from repro.swarm.collective import MajorityQuorumVote
from repro.topology.torus import Torus2D


class TestGenerators:
    def test_expander_graph(self):
        topology = expander_graph(100, degree=4, seed=0)
        assert topology.num_nodes == 100
        assert topology.is_regular

    def test_powerlaw_cluster_graph(self):
        topology = powerlaw_cluster_graph(200, seed=1)
        assert topology.num_nodes == 200
        assert not topology.is_regular

    def test_barabasi_albert_graph(self):
        topology = barabasi_albert_graph(150, edges_per_node=2, seed=2)
        assert topology.num_nodes == 150
        # Preferential attachment produces a heavy tail: some node has a much
        # larger degree than the minimum.
        degrees = np.asarray(topology.degree_of(np.arange(150)))
        assert degrees.max() >= 4 * degrees.min()

    def test_small_world_graph_connected(self):
        topology = small_world_graph(120, seed=3)
        assert topology.num_nodes == 120
        assert topology.min_degree >= 1

    def test_torus_3d_graph(self):
        topology = torus_3d_graph(5)
        assert topology.num_nodes == 125
        assert topology.is_regular
        assert topology.average_degree == pytest.approx(6.0)

    def test_deterministic_given_seed(self):
        a = powerlaw_cluster_graph(100, seed=9)
        b = powerlaw_cluster_graph(100, seed=9)
        assert a.num_edges == b.num_edges


class TestMajorityQuorumVote:
    def test_decision_fields(self):
        vote = MajorityQuorumVote(Torus2D(20), num_agents=80, threshold=0.1, rounds=100)
        outcome = vote.decide(seed=0)
        assert 0.0 <= outcome.vote_fraction_above <= 1.0
        assert 0.0 <= outcome.individual_accuracy <= 1.0
        assert outcome.collective_correct in (True, False)

    def test_clear_majority_when_density_far_above_threshold(self):
        torus = Torus2D(20)
        vote = MajorityQuorumVote(torus, num_agents=120, threshold=0.05, rounds=200)
        outcome = vote.decide(seed=1)
        assert outcome.decision_above
        assert outcome.collective_correct

    def test_collective_at_least_as_good_as_individual(self):
        # With a moderate separation, the majority vote should fail at most as
        # often as a typical individual agent.
        torus = Torus2D(24)
        vote = MajorityQuorumVote(torus, num_agents=100, threshold=0.12, rounds=150)
        individual, collective = vote.failure_rates(trials=6, seed=2)
        assert collective <= individual + 0.05

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MajorityQuorumVote(Torus2D(10), num_agents=0, threshold=0.1, rounds=10)
        with pytest.raises(ValueError):
            MajorityQuorumVote(Torus2D(10), num_agents=10, threshold=-0.1, rounds=10)


class TestNewExperiments:
    def test_e19_runs_and_shows_avoidance_bias(self):
        from repro.experiments import run_experiment

        result = run_experiment("E19", quick=True, seed=0)
        rows = {record["movement_model"]: record for record in result.records}
        assert rows["collision_avoiding_walk"]["relative_bias"] < 0.0

    def test_e20_runs_and_is_unbiased(self):
        from repro.experiments import run_experiment

        result = run_experiment("E20", quick=True, seed=0)
        for record in result.records:
            assert abs(record["relative_bias"]) < 0.3
