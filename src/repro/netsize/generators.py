"""Named synthetic graph generators for the network-size experiments.

Section 5.1 motivates the size-estimation algorithm with social networks,
which are not available offline; these generators build the synthetic stand-
ins used throughout the experiment suite (see the substitution table in
DESIGN.md). Each generator returns a :class:`NetworkXTopology` ready for the
oracle/pipeline machinery.
"""

from __future__ import annotations

from typing import Callable

import networkx as nx

from repro.topology.graph import NetworkXTopology
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import require_integer


def _seed_int(seed: SeedLike) -> int:
    return int(as_generator(seed).integers(0, 2**31 - 1))


def expander_graph(size: int, degree: int = 4, seed: SeedLike = None) -> NetworkXTopology:
    """A random ``degree``-regular graph (an expander with high probability)."""
    require_integer(size, "size", minimum=4)
    require_integer(degree, "degree", minimum=3)
    graph = nx.random_regular_graph(degree, size, seed=_seed_int(seed))
    return NetworkXTopology(graph, name="expander")


def powerlaw_cluster_graph(size: int, edges_per_node: int = 3, triangle_probability: float = 0.1, seed: SeedLike = None) -> NetworkXTopology:
    """Holme–Kim power-law graph with triadic closure (social-network-like)."""
    require_integer(size, "size", minimum=5)
    graph = nx.powerlaw_cluster_graph(size, edges_per_node, triangle_probability, seed=_seed_int(seed))
    return NetworkXTopology(graph, name="powerlaw_cluster")


def barabasi_albert_graph(size: int, edges_per_node: int = 3, seed: SeedLike = None) -> NetworkXTopology:
    """Barabási–Albert preferential-attachment graph (heavy-tailed degrees)."""
    require_integer(size, "size", minimum=5)
    graph = nx.barabasi_albert_graph(size, edges_per_node, seed=_seed_int(seed))
    return NetworkXTopology(graph, name="barabasi_albert")


def small_world_graph(size: int, nearest_neighbors: int = 6, rewire_probability: float = 0.1, seed: SeedLike = None) -> NetworkXTopology:
    """Watts–Strogatz small-world graph (slow global mixing, decent local mixing)."""
    require_integer(size, "size", minimum=10)
    graph = nx.connected_watts_strogatz_graph(
        size, nearest_neighbors, rewire_probability, seed=_seed_int(seed)
    )
    return NetworkXTopology(graph, name="small_world")


def torus_3d_graph(side: int) -> NetworkXTopology:
    """The 3-D torus as a NetworkX graph — the paper's worked example in Section 5.1.5."""
    require_integer(side, "side", minimum=2)
    graph = nx.grid_graph(dim=[side, side, side], periodic=True)
    return NetworkXTopology(nx.convert_node_labels_to_integers(graph), name="torus_3d_graph")


GeneratorFn = Callable[..., NetworkXTopology]

_GENERATORS: dict[str, GeneratorFn] = {
    "expander": expander_graph,
    "powerlaw_cluster": powerlaw_cluster_graph,
    "barabasi_albert": barabasi_albert_graph,
    "small_world": small_world_graph,
    "torus_3d_graph": torus_3d_graph,
}


__all__ = [
    "expander_graph",
    "powerlaw_cluster_graph",
    "barabasi_albert_graph",
    "small_world_graph",
    "torus_3d_graph",
]
