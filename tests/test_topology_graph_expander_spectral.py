"""Tests for NetworkXTopology, RegularExpander, and spectral utilities."""

import networkx as nx
import numpy as np
import pytest

from repro.topology.complete import CompleteGraph
from repro.topology.expander import RegularExpander
from repro.topology.graph import NetworkXTopology
from repro.topology.ring import Ring
from repro.topology.spectral import second_eigenvalue_magnitude, transition_matrix
from repro.topology.torus import Torus2D
from repro.topology.torus_kd import TorusKD


class TestNetworkXTopology:
    def test_basic_counts(self):
        graph = nx.cycle_graph(10)
        topology = NetworkXTopology(graph)
        assert topology.num_nodes == 10
        assert topology.num_edges == 10
        assert topology.average_degree == 2.0

    def test_rejects_directed(self):
        with pytest.raises(ValueError):
            NetworkXTopology(nx.DiGraph([(0, 1)]))

    def test_rejects_isolated_nodes(self):
        graph = nx.Graph()
        graph.add_edge(0, 1)
        graph.add_node(2)
        with pytest.raises(ValueError):
            NetworkXTopology(graph)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            NetworkXTopology(nx.Graph())

    def test_self_loops_removed(self):
        graph = nx.Graph([(0, 1), (1, 1), (1, 2)])
        topology = NetworkXTopology(graph)
        assert 1 not in topology.neighbors(topology.index_of(1)).tolist()

    def test_degree_of_matches_networkx(self):
        graph = nx.path_graph(6)
        topology = NetworkXTopology(graph)
        for label in graph.nodes():
            assert topology.degree_of(topology.index_of(label)) == graph.degree(label)

    def test_step_goes_to_neighbor(self, rng):
        graph = nx.random_regular_graph(3, 20, seed=0)
        topology = NetworkXTopology(graph)
        positions = topology.uniform_nodes(200, rng)
        stepped = topology.step_many(positions, rng)
        for before, after in zip(positions, stepped):
            assert int(after) in topology.neighbors(int(before)).tolist()

    def test_stationary_nodes_weighted_by_degree(self):
        # A star graph: the hub has degree n-1 and should dominate samples.
        graph = nx.star_graph(9)
        topology = NetworkXTopology(graph)
        hub = topology.index_of(0)
        samples = topology.stationary_nodes(4000, np.random.default_rng(0))
        hub_fraction = np.mean(samples == hub)
        assert 0.4 < hub_fraction < 0.6  # hub holds half the degree mass

    def test_label_roundtrip(self):
        graph = nx.Graph([("a", "b"), ("b", "c")])
        topology = NetworkXTopology(graph)
        for label in ["a", "b", "c"]:
            assert topology.label_of(topology.index_of(label)) == label

    def test_from_edges(self):
        topology = NetworkXTopology.from_edges([(0, 1), (1, 2), (2, 0)])
        assert topology.num_nodes == 3
        assert topology.num_edges == 3

    def test_is_regular_detection(self):
        assert NetworkXTopology(nx.cycle_graph(8)).is_regular
        assert not NetworkXTopology(nx.path_graph(8)).is_regular


class TestRegularExpander:
    def test_construction(self):
        expander = RegularExpander(100, 4, seed=0)
        assert expander.num_nodes == 100
        assert expander.is_regular
        assert expander.degree == 4

    def test_odd_product_rejected(self):
        with pytest.raises(ValueError):
            RegularExpander(7, 3, seed=0)

    def test_degree_too_large_rejected(self):
        with pytest.raises(ValueError):
            RegularExpander(6, 6, seed=0)

    def test_second_eigenvalue_below_one(self):
        expander = RegularExpander(200, 4, seed=1)
        assert 0.0 < expander.second_eigenvalue < 1.0

    def test_second_eigenvalue_near_alon_boiteau_bound(self):
        # Random 4-regular graphs have lambda close to 2*sqrt(3)/4 ~ 0.866.
        expander = RegularExpander(400, 4, seed=2)
        assert 0.7 < expander.second_eigenvalue < 0.95

    def test_spectral_gap_consistent(self):
        expander = RegularExpander(100, 4, seed=3)
        assert expander.spectral_gap == pytest.approx(1.0 - expander.second_eigenvalue)


class TestSpectral:
    def test_transition_matrix_rows_sum_to_one(self):
        torus = Torus2D(5)
        walk = transition_matrix(torus)
        sums = np.asarray(walk.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0)

    def test_odd_ring_second_eigenvalue_close_to_cosine(self):
        # An odd cycle C_n is not bipartite; its walk matrix has
        # lambda = max(|lambda_2|, |lambda_n|) = cos(pi/n).
        ring = Ring(21)
        lam = second_eigenvalue_magnitude(ring)
        assert lam == pytest.approx(np.cos(np.pi / 21), abs=1e-6)

    def test_torus_bipartite_lambda_is_one(self):
        # The torus walk is periodic (bipartite), so |lambda_A| = 1.
        assert second_eigenvalue_magnitude(Torus2D(6)) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "build,expected",
        [
            # K_n: W = (J - I) / (n - 1) has eigenvalues 1 and -1 / (n - 1).
            (lambda: CompleteGraph(5), 1.0 / 4.0),
            (lambda: CompleteGraph(12), 1.0 / 11.0),
            # Petersen graph: adjacency spectrum {3, 1, -2}, so W's is {1, 1/3, -2/3}.
            (lambda: NetworkXTopology(nx.petersen_graph()), 2.0 / 3.0),
            # A star is bipartite (and not regular): -1 is an eigenvalue.
            (lambda: NetworkXTopology(nx.star_graph(6)), 1.0),
            # Odd cycles: the most negative eigenvalue is -cos(pi / n).
            (lambda: Ring(5), np.cos(np.pi / 5)),
            (lambda: Ring(9), np.cos(np.pi / 9)),
            # 17^3 = 4913 nodes takes the sparse Lanczos path; the eigenvalue
            # of largest magnitude after 1 is (3 cos(16 pi / 17)) / 3 = -cos(pi / 17).
            (lambda: TorusKD(17, 3), np.cos(np.pi / 17)),
        ],
        ids=["K5", "K12", "petersen", "star", "ring5", "ring9", "torus3d-sparse"],
    )
    def test_second_eigenvalue_matches_closed_form(self, build, expected):
        assert second_eigenvalue_magnitude(build()) == pytest.approx(expected, abs=1e-9)

    def test_transition_matrix_of_a_non_regular_graph(self):
        star = NetworkXTopology(nx.star_graph(6))
        walk = transition_matrix(star).toarray()
        hub = star.index_of(0)
        leaves = [star.index_of(label) for label in range(1, 7)]
        assert np.allclose(walk[hub, leaves], 1.0 / 6.0)
        assert np.allclose(walk[leaves, hub], 1.0)
        assert np.allclose(walk.sum(axis=1), 1.0)
        assert np.count_nonzero(walk) == 12
