"""Tests for adaptive (sequential) density estimation and its golden fixture."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.core.adaptive import AdaptiveDensityEstimator
from repro.topology.torus import Torus2D

BASELINES = Path(__file__).parent / "baselines"
ESTIMATOR_GOLDEN = json.loads((BASELINES / "adaptive_golden.json").read_text())


def _load_golden_generator():
    """The fixture's generator module: its case builders and digest are the spec."""
    path = BASELINES / "regenerate_adaptive_golden.py"
    spec = importlib.util.spec_from_file_location("regenerate_adaptive_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden_generator = _load_golden_generator()


class TestAdaptiveDensityEstimator:
    def test_run_outputs(self):
        estimator = AdaptiveDensityEstimator(
            Torus2D(24), num_agents=120, target_epsilon=0.4, max_rounds=2000
        )
        outcome = estimator.run(seed=0)
        assert outcome.estimates.shape == (120,)
        assert 1 <= outcome.rounds_used <= 2000
        assert outcome.phases >= 1
        assert 0.0 <= outcome.converged_fraction <= 1.0

    def test_estimate_centres_on_truth(self):
        estimator = AdaptiveDensityEstimator(
            Torus2D(24), num_agents=120, target_epsilon=0.3, max_rounds=4000
        )
        outcome = estimator.run(seed=1)
        assert outcome.mean_estimate() == pytest.approx(outcome.true_density, rel=0.2)

    def test_sparser_population_uses_more_rounds(self):
        dense = AdaptiveDensityEstimator(
            Torus2D(20), num_agents=120, target_epsilon=0.4, max_rounds=8000
        ).run(seed=2)
        sparse = AdaptiveDensityEstimator(
            Torus2D(40), num_agents=120, target_epsilon=0.4, max_rounds=8000
        ).run(seed=2)
        assert sparse.rounds_used > dense.rounds_used

    def test_tighter_epsilon_uses_more_rounds(self):
        loose = AdaptiveDensityEstimator(
            Torus2D(24), num_agents=120, target_epsilon=0.5, max_rounds=8000
        ).run(seed=3)
        tight = AdaptiveDensityEstimator(
            Torus2D(24), num_agents=120, target_epsilon=0.2, max_rounds=8000
        ).run(seed=3)
        assert tight.rounds_used >= loose.rounds_used

    def test_respects_round_cap(self):
        outcome = AdaptiveDensityEstimator(
            Torus2D(40), num_agents=10, target_epsilon=0.05, max_rounds=128
        ).run(seed=4)
        assert outcome.rounds_used <= 128

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AdaptiveDensityEstimator(Torus2D(10), num_agents=10, target_epsilon=0.0)
        with pytest.raises(ValueError):
            AdaptiveDensityEstimator(Torus2D(10), num_agents=10, initial_rounds=100, max_rounds=10)


class TestEstimatorGolden:
    """The estimator reproduces the streams the fixture was generated from, byte for byte."""

    @pytest.mark.parametrize(
        "case",
        ESTIMATOR_GOLDEN["adaptive"]["cases"],
        ids=lambda c: f"{c['topology']}-n{c['num_agents']}-eps{c['target_epsilon']}-s{c['seed']}",
    )
    def test_adaptive_matches_fixture(self, case):
        assert golden_generator.run_adaptive(case) == case["outcome"]

    def test_fixture_covers_early_stops_and_capped_runs(self):
        cap = ESTIMATOR_GOLDEN["adaptive"]["max_rounds"]
        rounds = {case["outcome"]["rounds_used"] for case in ESTIMATOR_GOLDEN["adaptive"]["cases"]}
        assert cap in rounds and min(rounds) < cap
