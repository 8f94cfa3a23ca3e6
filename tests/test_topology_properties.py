"""Property-based and cross-topology invariant tests.

These tests run against every built-in regular topology (via the
``regular_topology`` fixture), and against the topologies that fixture
leaves out (non-regular graphs, the reflecting grid, a random expander and a
four-dimensional torus, via ``general_topology``), and use hypothesis to
explore parameter space for the invariants that every topology must satisfy:
valid node labels, symmetric adjacency, degree-consistent neighbour lists,
and steps that always land on neighbours.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.bounded_grid import BoundedGrid
from repro.topology.expander import RegularExpander
from repro.topology.graph import NetworkXTopology
from repro.topology.hypercube import Hypercube
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D
from repro.topology.torus_kd import TorusKD


class TestRegularTopologyInvariants:
    def test_neighbor_count_matches_degree(self, regular_topology):
        for node in range(0, regular_topology.num_nodes, max(1, regular_topology.num_nodes // 10)):
            assert len(regular_topology.neighbors(node)) == regular_topology.degree

    def test_neighbors_are_valid_nodes(self, regular_topology):
        neighbors = regular_topology.neighbors(0)
        regular_topology.validate_nodes(neighbors)

    def test_adjacency_symmetric(self, regular_topology):
        sample_nodes = range(0, regular_topology.num_nodes, max(1, regular_topology.num_nodes // 8))
        for node in sample_nodes:
            for neighbor in regular_topology.neighbors(node):
                assert node in regular_topology.neighbors(int(neighbor)).tolist()

    def test_step_lands_on_a_neighbor(self, regular_topology, rng):
        positions = regular_topology.uniform_nodes(50, rng)
        stepped = regular_topology.step_many(positions, rng)
        for before, after in zip(positions, stepped):
            assert int(after) in regular_topology.neighbors(int(before)).tolist()

    def test_uniform_placement_in_range(self, regular_topology, rng):
        nodes = regular_topology.uniform_nodes(500, rng)
        assert nodes.min() >= 0
        assert nodes.max() < regular_topology.num_nodes

    def test_stationary_equals_uniform_for_regular(self, regular_topology):
        # For regular topologies stationary_nodes must behave like uniform_nodes
        # distribution-wise; spot-check the range and determinism given a seed.
        a = regular_topology.stationary_nodes(100, 7)
        b = regular_topology.uniform_nodes(100, 7)
        assert np.array_equal(a, b)

    def test_walk_stays_on_graph(self, regular_topology, rng):
        path = regular_topology.walk(0, 50, rng)
        regular_topology.validate_nodes(path)
        for before, after in zip(path[:-1], path[1:]):
            assert int(after) in regular_topology.neighbors(int(before)).tolist()


#: The topologies ``regular_topology`` leaves out, built fresh per test.
GENERAL_TOPOLOGIES = {
    "bounded_grid": lambda: BoundedGrid(6),
    "star": lambda: NetworkXTopology(nx.star_graph(6)),
    "path": lambda: NetworkXTopology(nx.path_graph(9)),
    "powerlaw": lambda: NetworkXTopology(nx.powerlaw_cluster_graph(40, 2, 0.3, seed=3)),
    "expander": lambda: RegularExpander(30, 4, seed=2),
    "torus4d": lambda: TorusKD(3, 4),
}


@pytest.fixture(params=sorted(GENERAL_TOPOLOGIES))
def general_topology(request):
    return GENERAL_TOPOLOGIES[request.param]()


def allowed_moves(topology, node: int) -> set[int]:
    """Where one walk step from ``node`` may land.

    The neighbours, plus ``node`` itself on the bounded grid's boundary,
    where a step off the grid is replaced by staying put.
    """
    moves = {int(v) for v in topology.neighbors(node)}
    if isinstance(topology, BoundedGrid) and topology.degree_of(node) < 4:
        moves.add(int(node))
    return moves


class TestGeneralTopologyInvariants:
    def test_degree_matches_neighbour_count(self, general_topology):
        nodes = np.arange(general_topology.num_nodes)
        counts = [len(general_topology.neighbors(int(node))) for node in nodes]
        assert [general_topology.degree_of(int(node)) for node in nodes] == counts
        assert general_topology.degree_of(nodes).tolist() == counts

    def test_neighbours_are_distinct_valid_and_symmetric(self, general_topology):
        for node in range(general_topology.num_nodes):
            neighbors = general_topology.neighbors(node).tolist()
            general_topology.validate_nodes(np.array(neighbors))
            assert node not in neighbors
            assert len(set(neighbors)) == len(neighbors)
            for neighbor in neighbors:
                assert node in general_topology.neighbors(neighbor).tolist()

    def test_is_regular_iff_every_degree_is_equal(self, general_topology):
        degrees = general_topology.degree_of(np.arange(general_topology.num_nodes))
        assert general_topology.is_regular == bool(np.all(degrees == degrees[0]))

    def test_every_step_is_an_allowed_move(self, general_topology, rng):
        positions = np.repeat(np.arange(general_topology.num_nodes), 20)
        stepped = general_topology.step_many(positions, rng)
        for before, after in zip(positions.tolist(), stepped.tolist()):
            assert after in allowed_moves(general_topology, before)

    def test_step_many_keeps_the_batched_shape(self, general_topology, rng):
        positions = general_topology.uniform_nodes((3, 7), rng)
        stepped = general_topology.step_many(positions, rng)
        assert stepped.shape == (3, 7)
        assert np.issubdtype(stepped.dtype, np.integer)
        for before, after in zip(positions.ravel().tolist(), stepped.ravel().tolist()):
            assert after in allowed_moves(general_topology, before)

    def test_walk_is_seeded_and_moves_along_allowed_moves(self, general_topology):
        path = general_topology.walk(0, 40, seed=5)
        assert np.array_equal(path, general_topology.walk(0, 40, seed=5))
        assert path.shape == (41,) and path[0] == 0
        for before, after in zip(path[:-1].tolist(), path[1:].tolist()):
            assert after in allowed_moves(general_topology, before)

    def test_validate_nodes_rejects_labels_out_of_range(self, general_topology):
        size = general_topology.num_nodes
        general_topology.validate_nodes(np.array([], dtype=np.int64))
        general_topology.validate_nodes(np.array([0, size - 1]))
        for bad in ([-1], [0, size]):
            with pytest.raises(ValueError, match=f"\\[0, {size}\\)"):
                general_topology.validate_nodes(np.array(bad))


class TestStationaryPlacement:
    @pytest.mark.parametrize("name", ["star", "path", "powerlaw"])
    def test_non_regular_graphs_sample_the_degree_weighted_law(self, name):
        # A simple random walk on a graph is stationary at deg(v) / 2|E|.
        topology = GENERAL_TOPOLOGIES[name]()
        samples = 40_000
        nodes = topology.stationary_nodes(samples, seed=9)
        degrees = topology.degree_of(np.arange(topology.num_nodes)).astype(np.float64)
        expected = degrees / degrees.sum()
        observed = np.bincount(nodes, minlength=topology.num_nodes) / samples
        sigma = np.sqrt(expected * (1.0 - expected) / samples)
        assert np.all(np.abs(observed - expected) <= 5.0 * sigma)


class TestHypothesisTorus:
    @given(side=st.integers(min_value=2, max_value=20), steps=st.integers(min_value=0, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_walk_length(self, side, steps):
        torus = Torus2D(side)
        path = torus.walk(0, steps, 1)
        assert len(path) == steps + 1

    @given(side=st.integers(min_value=3, max_value=25))
    @settings(max_examples=25, deadline=None)
    def test_distance_symmetric(self, side):
        torus = Torus2D(side)
        rng = np.random.default_rng(side)
        a, b = rng.integers(0, torus.num_nodes, size=2)
        assert torus.torus_distance(int(a), int(b)) == torus.torus_distance(int(b), int(a))

    @given(side=st.integers(min_value=3, max_value=25))
    @settings(max_examples=25, deadline=None)
    def test_distance_triangle_inequality(self, side):
        torus = Torus2D(side)
        rng = np.random.default_rng(side + 1)
        a, b, c = (int(v) for v in rng.integers(0, torus.num_nodes, size=3))
        assert torus.torus_distance(a, c) <= torus.torus_distance(a, b) + torus.torus_distance(b, c)


class TestHypothesisEncodings:
    @given(side=st.integers(min_value=2, max_value=8), dims=st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_torus_kd_roundtrip(self, side, dims):
        topology = TorusKD(side, dims)
        nodes = np.arange(topology.num_nodes)
        assert np.array_equal(topology.encode(topology.decode(nodes)), nodes)

    @given(dims=st.integers(min_value=1, max_value=12))
    @settings(max_examples=20, deadline=None)
    def test_hypercube_neighbor_count(self, dims):
        cube = Hypercube(dims)
        assert len(cube.neighbors(0)) == dims

    @given(size=st.integers(min_value=3, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_ring_distance_bounded_by_half(self, size):
        ring = Ring(size)
        assert ring.ring_distance(0, size // 2) <= size // 2
