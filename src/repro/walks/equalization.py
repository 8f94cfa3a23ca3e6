"""Equalization (return-to-origin) statistics for single random walks.

Corollary 10 of the paper bounds the probability that a torus walk returns to
its starting node after ``m`` steps by ``Θ(1/(m+1)) + O(1/A)``; Corollary 16
bounds all central moments of the *number* of equalizations over ``t`` steps.
These functions measure both quantities empirically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.topology.base import Topology
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import require_integer
from repro.walks.single import walk_paths


@dataclass(frozen=True)
class EqualizationProfile:
    """Empirical return-to-origin probability per step offset."""

    offsets: np.ndarray
    probability: np.ndarray
    trials: int
    topology_name: str


def equalization_profile(
    topology: Topology,
    max_offset: int,
    trials: int = 1000,
    seed: SeedLike = None,
) -> EqualizationProfile:
    """Probability a walk is back at its start node after ``m`` steps.

    Starts ``trials`` walkers at uniformly random nodes and records, for each
    offset, the fraction currently at their own origin. Odd offsets have
    probability zero on bipartite topologies; they are reported as measured
    (no smoothing) because Corollary 10 states the parity explicitly.
    """
    require_integer(max_offset, "max_offset", minimum=0)
    require_integer(trials, "trials", minimum=1)
    rng = as_generator(seed)
    origins = topology.uniform_nodes(trials, rng)
    positions = origins.copy()
    hits = np.zeros(max_offset + 1, dtype=np.float64)
    hits[0] = float(trials)
    for offset in range(1, max_offset + 1):
        positions = topology.step_many(positions, rng)
        hits[offset] = float(np.count_nonzero(positions == origins))
    return EqualizationProfile(
        offsets=np.arange(max_offset + 1),
        probability=hits / trials,
        trials=trials,
        topology_name=topology.name,
    )


def equalization_counts(
    topology: Topology,
    steps: int,
    trials: int = 1000,
    seed: SeedLike = None,
) -> np.ndarray:
    """Number of equalizations of ``trials`` independent ``steps``-step walks.

    Returns an integer array of length ``trials`` — the samples whose central
    moments Corollary 16 bounds by ``k! w^k log^k(2t)``.
    """
    require_integer(steps, "steps", minimum=1)
    require_integer(trials, "trials", minimum=1)
    rng = as_generator(seed)
    starts = topology.uniform_nodes(trials, rng)
    paths = walk_paths(topology, starts, steps, rng)
    return np.count_nonzero(paths[:, 1:] == paths[:, [0]], axis=1)


__all__ = [
    "EqualizationProfile",
    "equalization_profile",
    "equalization_counts",
]
