"""Tests for adaptive estimation, meeting/hitting times, and path-based counting."""

import importlib.util
import json
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from repro.core.adaptive import AdaptiveDensityEstimator, rounds_for_threshold
from repro.core import bounds
from repro.netsize.path_collisions import (
    path_intersection_counts,
    record_walk_paths,
    same_round_collision_counts,
    size_estimate_from_paths,
)
from repro.netsize.size_estimator import estimate_network_size
from repro.topology.complete import CompleteGraph
from repro.topology.graph import NetworkXTopology
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D
from repro.walks.meeting import hitting_times, meeting_times, summarize_first_passage

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

    def test_rounds_for_threshold_independent_of_density(self):
        budget = rounds_for_threshold(0.1, margin=0.5, delta=0.05)
        assert budget == bounds.theorem1_rounds(0.1, 0.25, 0.05)

    def test_rounds_for_threshold_grows_with_tighter_margin(self):
        assert rounds_for_threshold(0.1, 0.2, 0.05) > rounds_for_threshold(0.1, 0.6, 0.05)


class TestEstimatorGolden:
    """Both estimators reproduce the streams the fixture was generated from, byte for byte."""

    @pytest.mark.parametrize(
        "case",
        ESTIMATOR_GOLDEN["adaptive"]["cases"],
        ids=lambda c: f"{c['topology']}-n{c['num_agents']}-eps{c['target_epsilon']}-s{c['seed']}",
    )
    def test_adaptive_matches_fixture(self, case):
        assert golden_generator.run_adaptive(case) == case["outcome"]

    @pytest.mark.parametrize(
        "case",
        ESTIMATOR_GOLDEN["dispersion"]["cases"],
        ids=lambda c: f"side{c['side']}-n{c['robots']}-spread{c['spread_steps']}-{c['placement']}",
    )
    def test_dispersion_matches_fixture(self, case):
        assert golden_generator.run_dispersion(case) == case["outcome"]

    def test_fixture_covers_early_stops_and_capped_runs(self):
        cap = ESTIMATOR_GOLDEN["adaptive"]["max_rounds"]
        rounds = {case["outcome"]["rounds_used"] for case in ESTIMATOR_GOLDEN["adaptive"]["cases"]}
        assert cap in rounds and min(rounds) < cap


class TestMeetingAndHittingTimes:
    def test_hitting_times_shape_and_cap(self):
        times = hitting_times(Torus2D(12), target=0, max_steps=200, trials=50, seed=0)
        assert times.shape == (50,)
        assert times.min() >= 0
        assert times.max() <= 200

    def test_hitting_times_invalid_target(self):
        with pytest.raises(ValueError):
            hitting_times(Torus2D(12), target=10**6, max_steps=10, trials=5)

    def test_meeting_times_common_start_is_zero(self):
        times = meeting_times(Torus2D(20), max_steps=50, trials=30, seed=1, common_start=True)
        assert np.all(times == 0)

    def test_meeting_faster_on_complete_graph_than_ring(self):
        complete = meeting_times(CompleteGraph(100), max_steps=500, trials=100, seed=2)
        ring = meeting_times(Ring(100), max_steps=500, trials=100, seed=2)
        assert complete.mean() < ring.mean()

    def test_complete_graph_meeting_time_near_size(self):
        # On the complete graph with A nodes, two walkers meet each round with
        # probability ~1/A, so the mean meeting time is ~A.
        size = 50
        times = meeting_times(CompleteGraph(size), max_steps=2000, trials=400, seed=3)
        assert times.mean() == pytest.approx(size, rel=0.3)

    def test_summary_statistics(self):
        times = np.array([1, 2, 3, 100])
        summary = summarize_first_passage(times, max_steps=100)
        assert summary.mean_time == pytest.approx(26.5)
        assert summary.censored_fraction == pytest.approx(0.25)
        assert summary.trials == 4

    def test_summary_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize_first_passage(np.array([]), max_steps=10)


class TestPathCollisions:
    @pytest.fixture(scope="class")
    def topology(self) -> NetworkXTopology:
        return NetworkXTopology(nx.random_regular_graph(4, 300, seed=0), name="expander")

    def test_record_walk_paths_shape(self, topology):
        paths = record_walk_paths(topology, num_walks=20, rounds=15, seed=1)
        assert paths.shape == (20, 16)

    def test_same_round_counts_match_direct_computation(self):
        paths = np.array(
            [
                [0, 5, 5],
                [1, 5, 6],
                [2, 7, 5],
            ]
        )
        counts = same_round_collision_counts(paths)
        # Round 1: walks 0 and 1 are both at node 5. Round 2: walks 0 and 2 at node 5.
        assert counts.tolist() == [2, 1, 1]

    def test_degree_weighting(self):
        paths = np.array([[0, 3], [1, 3]])
        degrees = np.array([1.0, 1.0, 1.0, 4.0])
        counts = same_round_collision_counts(paths, degrees)
        assert np.allclose(counts, [0.25, 0.25])

    def test_path_intersections_superset_of_collisions(self, topology):
        paths = record_walk_paths(topology, num_walks=30, rounds=20, seed=2)
        same_round = same_round_collision_counts(paths)
        intersections = path_intersection_counts(paths)
        # Any same-round collision implies a path intersection with at least one walk.
        assert np.all((same_round > 0) <= (intersections > 0))

    def test_size_estimate_from_paths_matches_online_estimator(self, topology):
        # Running Algorithm 2 online and re-deriving the estimate from the
        # recorded paths must agree in distribution; check both land near |V|.
        paths = record_walk_paths(topology, num_walks=120, rounds=40, seed=3)
        degrees = np.asarray(topology.degree_of(np.arange(topology.num_nodes)), dtype=float)
        offline = size_estimate_from_paths(paths, topology.average_degree, degrees)
        online = estimate_network_size(topology, num_walks=120, rounds=40, seed=3).size_estimate
        assert offline == pytest.approx(topology.num_nodes, rel=0.5)
        assert online == pytest.approx(topology.num_nodes, rel=0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            same_round_collision_counts(np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            size_estimate_from_paths(np.zeros((1, 5), dtype=int), 4.0)
        with pytest.raises(ValueError):
            size_estimate_from_paths(np.zeros((3, 5), dtype=int), -1.0)
