"""Simulation of individual random walks.

These helpers build on :meth:`Topology.step_many`, advancing many walkers in
parallel. They are the building blocks for the re-collision, equalization,
and moment measurements in the sibling modules.
"""

from __future__ import annotations

import numpy as np

from repro.topology.base import Topology
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import require_integer


def walk_paths(
    topology: Topology,
    starts: np.ndarray,
    steps: int,
    seed: SeedLike = None,
) -> np.ndarray:
    """Paths of many independent walks advanced in lock-step.

    Parameters
    ----------
    topology:
        The graph to walk on.
    starts:
        Integer array of shape ``(num_walkers,)`` with starting nodes.
    steps:
        Number of rounds to simulate.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(num_walkers, steps + 1)``; column ``r`` holds the
        positions after ``r`` steps.
    """
    require_integer(steps, "steps", minimum=0)
    rng = as_generator(seed)
    starts = np.asarray(starts, dtype=np.int64)
    topology.validate_nodes(starts)
    paths = np.empty((starts.shape[0], steps + 1), dtype=np.int64)
    paths[:, 0] = starts
    positions = starts.copy()
    for round_index in range(1, steps + 1):
        positions = topology.step_many(positions, rng)
        paths[:, round_index] = positions
    return paths


__all__ = ["walk_paths"]
