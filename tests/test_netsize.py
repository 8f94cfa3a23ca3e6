"""Tests for the network-size estimation package (repro.netsize)."""

import networkx as nx
import numpy as np
import pytest

from repro.netsize.burn_in import burn_in_walks, required_burn_in_steps
from repro.netsize.degree import estimate_average_degree, estimate_inverse_average_degree
from repro.netsize.katzir import katzir_size_estimate
from repro.netsize.oracle import GraphAccessOracle
from repro.netsize.pipeline import NetworkSizeEstimationPipeline
from repro.netsize.size_estimator import estimate_network_size
from repro.topology.graph import NetworkXTopology


@pytest.fixture(scope="module")
def expander_topology() -> NetworkXTopology:
    return NetworkXTopology(nx.random_regular_graph(4, 400, seed=0), name="expander")


@pytest.fixture(scope="module")
def skewed_topology() -> NetworkXTopology:
    return NetworkXTopology(nx.barabasi_albert_graph(400, 3, seed=1), name="ba")


class TestOracle:
    def test_queries_counted(self, expander_topology):
        oracle = GraphAccessOracle(expander_topology)
        oracle.neighbors(0)
        oracle.neighbors(1)
        assert oracle.query_count == 2
        assert oracle.distinct_nodes_queried == 2

    def test_degree_charges_query(self, expander_topology):
        oracle = GraphAccessOracle(expander_topology)
        assert oracle.degree(5) == 4
        assert oracle.query_count == 1

    def test_step_walkers_charges_per_walker(self, expander_topology, rng):
        oracle = GraphAccessOracle(expander_topology)
        positions = expander_topology.uniform_nodes(25, rng)
        oracle.step_walkers(positions, rng)
        assert oracle.query_count == 25

    def test_reset(self, expander_topology):
        oracle = GraphAccessOracle(expander_topology)
        oracle.neighbors(0)
        oracle.reset()
        assert oracle.query_count == 0
        assert oracle.distinct_nodes_queried == 0

    def test_degrees_of_vectorised(self, expander_topology):
        oracle = GraphAccessOracle(expander_topology)
        degrees = oracle.degrees_of(np.arange(10))
        assert np.all(degrees == 4)
        assert oracle.query_count == 10

    def test_ground_truth_properties(self, expander_topology):
        oracle = GraphAccessOracle(expander_topology)
        assert oracle.true_size == 400
        assert oracle.true_average_degree == pytest.approx(4.0)


class TestDegreeEstimation:
    def test_exact_on_regular_graph(self, expander_topology):
        estimate = estimate_average_degree(expander_topology, 50, seed=0)
        assert estimate == pytest.approx(4.0)

    def test_inverse_form(self, expander_topology):
        inverse = estimate_inverse_average_degree(expander_topology, 50, seed=0)
        assert inverse == pytest.approx(0.25)

    def test_close_on_skewed_graph(self, skewed_topology):
        estimate = estimate_average_degree(skewed_topology, 3000, seed=1)
        assert estimate == pytest.approx(skewed_topology.average_degree, rel=0.2)

    def test_positions_override(self, skewed_topology):
        positions = skewed_topology.stationary_nodes(500, 2)
        direct = estimate_average_degree(skewed_topology, 500, positions=positions)
        assert direct > 0

    def test_oracle_queries_charged(self, expander_topology):
        oracle = GraphAccessOracle(expander_topology)
        estimate_average_degree(oracle, 40, seed=3)
        assert oracle.query_count == 40

    def test_invalid_sample_count(self, expander_topology):
        with pytest.raises(ValueError):
            estimate_average_degree(expander_topology, 0)


class TestSizeEstimator:
    def test_estimate_close_in_ideal_setting(self, expander_topology):
        result = estimate_network_size(expander_topology, num_walks=120, rounds=40, seed=0)
        assert result.size_estimate == pytest.approx(400, rel=0.35)

    def test_weighted_rate_expectation(self, expander_topology):
        # Lemma 28: E[C] = 1/|V|; average over a long run is close.
        result = estimate_network_size(expander_topology, num_walks=150, rounds=80, seed=1)
        assert result.weighted_collision_rate == pytest.approx(1 / 400, rel=0.35)

    def test_no_collisions_gives_inf(self, expander_topology):
        result = estimate_network_size(expander_topology, num_walks=2, rounds=1, seed=2)
        if result.total_weighted_collisions == 0:
            assert np.isinf(result.size_estimate)

    def test_starts_shape_validated(self, expander_topology):
        with pytest.raises(ValueError):
            estimate_network_size(
                expander_topology, num_walks=10, rounds=2, starts=np.zeros(5, dtype=np.int64)
            )

    def test_minimum_two_walks(self, expander_topology):
        with pytest.raises(ValueError):
            estimate_network_size(expander_topology, num_walks=1, rounds=5)

    def test_oracle_query_accounting(self, expander_topology):
        oracle = GraphAccessOracle(expander_topology)
        result = estimate_network_size(oracle, num_walks=30, rounds=10, seed=3)
        assert result.link_queries == 30 * 10

    def test_skewed_graph_estimate(self, skewed_topology):
        result = estimate_network_size(skewed_topology, num_walks=200, rounds=60, seed=4)
        assert result.size_estimate == pytest.approx(400, rel=0.5)


class TestBurnIn:
    def test_required_steps_positive(self, expander_topology):
        assert required_burn_in_steps(expander_topology, 0.1) >= 1

    def test_bipartite_graph_rejected(self):
        bipartite = NetworkXTopology(nx.cycle_graph(10))
        with pytest.raises(ValueError):
            required_burn_in_steps(bipartite, 0.1)

    def test_explicit_lambda_override(self, expander_topology):
        steps = required_burn_in_steps(expander_topology, 0.1, lambda_value=0.5)
        assert steps >= 1

    def test_burn_in_walks_start_and_spread(self, expander_topology):
        positions = burn_in_walks(expander_topology, 50, 40, seed=0, seed_node=7)
        assert positions.shape == (50,)
        assert len(np.unique(positions)) > 10  # walks have spread out

    def test_zero_steps_stay_at_seed(self, expander_topology):
        positions = burn_in_walks(expander_topology, 20, 0, seed=0, seed_node=3)
        assert np.all(positions == 3)

    def test_oracle_charged(self, expander_topology):
        oracle = GraphAccessOracle(expander_topology)
        burn_in_walks(oracle, 10, 5, seed=1)
        assert oracle.query_count == 50

    def test_invalid_seed_node(self, expander_topology):
        with pytest.raises(ValueError):
            burn_in_walks(expander_topology, 5, 5, seed_node=10**6)


class TestKatzir:
    def test_estimate_reasonable_with_many_walks(self, expander_topology):
        result = katzir_size_estimate(expander_topology, num_walks=300, seed=0)
        assert 100 < result.size_estimate < 1600

    def test_infinite_when_no_collisions(self, expander_topology):
        result = katzir_size_estimate(expander_topology, num_walks=2, seed=1)
        if result.weighted_collision_rate == 0:
            assert np.isinf(result.size_estimate)

    def test_positions_override(self, expander_topology):
        positions = expander_topology.stationary_nodes(100, 2)
        result = katzir_size_estimate(expander_topology, num_walks=100, positions=positions)
        assert result.num_walks == 100

    def test_minimum_walks(self, expander_topology):
        with pytest.raises(ValueError):
            katzir_size_estimate(expander_topology, num_walks=1)


class TestPipeline:
    def test_report_fields(self, expander_topology):
        pipeline = NetworkSizeEstimationPipeline(
            expander_topology, num_walks=80, rounds=30, burn_in=25
        )
        report = pipeline.run(seed=0)
        assert report.true_size == 400
        assert report.burn_in_steps == 25
        assert report.link_queries > 0
        assert report.average_degree_estimate == pytest.approx(4.0)

    def test_estimate_accuracy_end_to_end(self, expander_topology):
        pipeline = NetworkSizeEstimationPipeline(
            expander_topology, num_walks=150, rounds=60, burn_in=40
        )
        report = pipeline.run(seed=1)
        assert report.relative_error < 0.5

    def test_query_accounting_breakdown(self, expander_topology):
        walks, rounds, burn = 40, 10, 15
        pipeline = NetworkSizeEstimationPipeline(
            expander_topology, num_walks=walks, rounds=rounds, burn_in=burn
        )
        report = pipeline.run(seed=2)
        # burn-in + degree estimation + estimation rounds
        assert report.link_queries == walks * burn + walks + walks * rounds

    def test_katzir_baseline_runs(self, expander_topology):
        pipeline = NetworkSizeEstimationPipeline(
            expander_topology, num_walks=200, rounds=1, burn_in=30
        )
        report = pipeline.run_katzir_baseline(seed=3)
        assert report.estimation_rounds == 0
        assert report.link_queries == 200 * 30 + 200

    def test_invalid_parameters(self, expander_topology):
        with pytest.raises(ValueError):
            NetworkSizeEstimationPipeline(expander_topology, num_walks=1, rounds=10)
        with pytest.raises(ValueError):
            NetworkSizeEstimationPipeline(expander_topology, num_walks=10, rounds=0)
