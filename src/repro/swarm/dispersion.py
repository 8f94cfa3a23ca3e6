"""Density-guided swarm dispersion (the coverage sketch of Section 6.3.4).

The paper suggests using density estimation to detect over-crowded regions
and spread robots out. This module implements a minimal version of that
idea: the workspace is divided into coarse cells; in each epoch every robot
estimates the density via encounter rates for a few rounds, and robots whose
estimate exceeds the swarm-wide target take additional "spread" steps. The
result records how the occupancy imbalance across cells evolves, which is
the quantity a coverage application cares about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.kernel import run_kernel
from repro.core.simulation import SimulationConfig, resume_placement
from repro.topology.torus import Torus2D
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import require_integer


def occupancy_imbalance(topology: Torus2D, positions: np.ndarray, cells_per_side: int = 4) -> float:
    """Coefficient of variation of robot counts over coarse cells.

    The torus is cut into ``cells_per_side``² equal square cells, so
    ``cells_per_side`` must divide ``topology.side``. 0 means perfectly
    even coverage; larger values mean more clustering.
    """
    require_integer(cells_per_side, "cells_per_side", minimum=1)
    if topology.side % cells_per_side:
        raise ValueError(
            f"cells_per_side={cells_per_side} must divide the torus side {topology.side}: "
            "unequal cells would report uneven coverage for an even swarm"
        )
    x, y = topology.decode(np.asarray(positions, dtype=np.int64))
    cell_size = topology.side // cells_per_side
    cell_index = (x // cell_size) * cells_per_side + y // cell_size
    counts = np.bincount(cell_index, minlength=cells_per_side**2).astype(np.float64)
    mean = counts.mean()
    if mean == 0:
        return 0.0
    return float(counts.std() / mean)


@dataclass(frozen=True)
class DispersionResult:
    """Occupancy imbalance before, during, and after dispersion."""

    imbalance_history: np.ndarray
    final_positions: np.ndarray
    epochs: int
    rounds_per_epoch: int

    @property
    def initial_imbalance(self) -> float:
        return float(self.imbalance_history[0])

    @property
    def final_imbalance(self) -> float:
        return float(self.imbalance_history[-1])


def disperse_swarm(
    topology: Torus2D,
    positions: np.ndarray,
    epochs: int = 10,
    rounds_per_epoch: int = 20,
    spread_steps: int = 10,
    seed: SeedLike = None,
    *,
    cells_per_side: int = 4,
) -> DispersionResult:
    """Iteratively spread a swarm using encounter-rate density estimates.

    In each epoch every robot (1) random-walks ``rounds_per_epoch`` rounds
    while counting collisions, (2) compares its encounter rate with the
    global target density ``(n-1)/A``, and (3) if it is above target, takes
    ``spread_steps`` additional random steps to leave the crowded region.
    Robots know nothing beyond their own collision counts, mirroring the
    communication model of the paper.
    """
    require_integer(epochs, "epochs", minimum=1)
    require_integer(rounds_per_epoch, "rounds_per_epoch", minimum=1)
    require_integer(spread_steps, "spread_steps", minimum=0)
    rng = as_generator(seed)
    positions = np.asarray(positions, dtype=np.int64)
    topology.validate_nodes(positions)
    num_robots = positions.shape[0]
    target_density = (num_robots - 1) / topology.num_nodes

    history = np.zeros(epochs + 1, dtype=np.float64)
    history[0] = occupancy_imbalance(topology, positions, cells_per_side)

    for epoch in range(1, epochs + 1):
        # The counting rounds are one serial kernel run on the shared
        # generator, starting where the robots stand (the kernel copies them).
        config = SimulationConfig(
            num_robots, rounds_per_epoch, placement=resume_placement(positions)
        )
        counting = run_kernel(topology, config, None, rng)
        positions = counting.final_positions
        crowded = counting.estimates() > target_density
        for _ in range(spread_steps):
            stepped = topology.step_many(positions, rng)
            positions = np.where(crowded, stepped, positions)
        history[epoch] = occupancy_imbalance(topology, positions, cells_per_side)

    return DispersionResult(
        imbalance_history=history,
        final_positions=positions,
        epochs=epochs,
        rounds_per_epoch=rounds_per_epoch,
    )


__all__ = ["DispersionResult", "disperse_swarm", "occupancy_imbalance"]
