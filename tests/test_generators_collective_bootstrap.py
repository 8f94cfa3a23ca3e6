"""Tests for collective quorum voting."""

import pytest

from repro.swarm.collective import MajorityQuorumVote
from repro.topology.torus import Torus2D


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
