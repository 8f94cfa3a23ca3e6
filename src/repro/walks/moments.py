"""Empirical moment estimation for collision and visit counts.

Lemma 11 bounds every central moment of the number of collisions ``c_j``
between the estimating agent and one other agent over ``t`` rounds:

    E[(c_j - E c_j)^k]  <=  (t / A) * w^k * k! * log^k(2t).

Corollary 15 gives the analogous bound for the number of visits a single
walk pays to a fixed node, and Corollary 16 for equalizations. The functions
here produce the raw samples and their central moments so the experiment
suite can compare measurement against these bounds.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.topology.base import Topology
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import require_integer


def central_moments(samples: np.ndarray, orders: Sequence[int]) -> dict[int, float]:
    """Empirical central moments ``E[(X - mean)^k]`` for each ``k`` in ``orders``.

    Odd-order moments are reported as-is (they may be negative); callers that
    want a magnitude should take ``abs``.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("samples must be non-empty")
    mean = samples.mean()
    centered = samples - mean
    return {int(order): float(np.mean(centered ** int(order))) for order in orders}


def pairwise_collision_counts(
    topology: Topology,
    rounds: int,
    trials: int = 1000,
    seed: SeedLike = None,
) -> np.ndarray:
    """Samples of the pairwise collision count ``c_j`` of Lemma 11.

    Each trial places two agents independently and uniformly at random,
    advances both by independent random walks for ``rounds`` rounds, and
    counts the rounds in which they share a node. Returns an integer array of
    length ``trials``.
    """
    require_integer(rounds, "rounds", minimum=1)
    require_integer(trials, "trials", minimum=1)
    rng = as_generator(seed)
    positions_a = topology.uniform_nodes(trials, rng)
    positions_b = topology.uniform_nodes(trials, rng)
    counts = np.zeros(trials, dtype=np.int64)
    for _ in range(rounds):
        positions_a = topology.step_many(positions_a, rng)
        positions_b = topology.step_many(positions_b, rng)
        counts += (positions_a == positions_b).astype(np.int64)
    return counts


def visit_counts(
    topology: Topology,
    steps: int,
    trials: int = 1000,
    seed: SeedLike = None,
    *,
    target: int | None = None,
) -> np.ndarray:
    """Samples of the number of times a walk visits a fixed node (Corollary 15).

    Each trial starts a walker at a uniformly random node and counts visits
    to ``target`` (default: node 0) over ``steps`` steps. The starting round
    is not counted as a visit unless the walk begins at the target, matching
    the "visits node j in round r" accounting of the corollary.
    """
    require_integer(steps, "steps", minimum=1)
    require_integer(trials, "trials", minimum=1)
    rng = as_generator(seed)
    target_node = 0 if target is None else int(target)
    if not 0 <= target_node < topology.num_nodes:
        raise ValueError(f"target must be a valid node label, got {target_node}")
    positions = topology.uniform_nodes(trials, rng)
    counts = np.zeros(trials, dtype=np.int64)
    for _ in range(steps):
        positions = topology.step_many(positions, rng)
        counts += (positions == target_node).astype(np.int64)
    return counts


__all__ = [
    "central_moments",
    "pairwise_collision_counts",
    "visit_counts",
]
