"""Vectorised agent churn: grow and shrink the live population mid-run.

The simulation engines carry per-agent state as a bundle of aligned arrays
(positions, cumulative collision counters, property marks) whose trailing
axis indexes agents: shape ``(n,)`` in the single-run engine and ``(R, n)``
in the batched engine. Churn must edit *all* of them in lock-step — an
arrival appends a column with zeroed counters, a departure removes the same
agent from every array — or the counters silently desynchronise from the
live population. :class:`Population` bundles the arrays so that invariant
is enforced in one place, and the grow/shrink operations below are pure
NumPy (concatenate / argsort / take_along_axis along the agent axis), so
churning 32 replicates costs the same vectorised pass as churning one.

Conventions:

* arrivals are placed at independent uniform nodes (the stationary law of
  every regular topology the paper analyses), with fresh zero counters —
  per replicate, independently;
* departures remove a uniformly random subset of agents, chosen
  independently per replicate, and are clamped so at least one agent
  always survives (the population can never reach zero, let alone go
  negative);
* all randomness flows through the caller's generator, so churn is exactly
  as deterministic as the simulation that hosts it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.topology.base import Topology
from repro.utils.validation import require_integer, require_probability


@dataclass
class Population:
    """The live per-agent state arrays, aligned on their trailing agent axis.

    ``positions`` is integer node labels; ``totals`` / ``marked_totals``
    are cumulative (observed / marked) collision counters; ``marked`` is
    the boolean property vector. All four share one shape — ``(n,)`` or
    ``(R, n)`` — which :meth:`validate` enforces.
    """

    positions: np.ndarray
    totals: np.ndarray
    marked: np.ndarray
    marked_totals: np.ndarray

    @property
    def size(self) -> int:
        """Live agents per replicate (the trailing axis length)."""
        return int(self.positions.shape[-1])

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.positions.shape)

    def validate(self) -> "Population":
        """Raise ``ValueError`` unless all arrays agree on one shape."""
        shape = self.positions.shape
        for name in ("totals", "marked", "marked_totals"):
            if getattr(self, name).shape != shape:
                raise ValueError(
                    f"population arrays out of sync: positions have shape {shape} "
                    f"but {name} has shape {getattr(self, name).shape}"
                )
        return self


def spawn_agents(
    population: Population,
    count: int,
    topology: Topology,
    rng: np.random.Generator,
    marked_fraction: float = 0.0,
) -> Population:
    """Append ``count`` newly arrived agents (per replicate) to the population.

    New agents start at independent uniform nodes of ``topology`` with
    zeroed collision counters; with ``marked_fraction > 0`` each new agent
    is independently marked with that probability. The agent axis grows by
    ``count`` in every bundled array at once.
    """
    require_integer(count, "count", minimum=1)
    require_probability(marked_fraction, "marked_fraction")
    population.validate()
    new_shape = population.shape[:-1] + (count,)
    new_positions = topology.uniform_nodes(new_shape, rng)
    new_marked = (
        rng.random(new_shape) < marked_fraction
        if marked_fraction > 0.0
        else np.zeros(new_shape, dtype=bool)
    )
    zeros = np.zeros(new_shape, dtype=np.float64)
    return Population(
        positions=np.concatenate([population.positions, new_positions], axis=-1),
        totals=np.concatenate([population.totals, zeros], axis=-1),
        marked=np.concatenate([population.marked, new_marked], axis=-1),
        marked_totals=np.concatenate([population.marked_totals, zeros], axis=-1),
    )


def retire_agents(
    population: Population,
    count: int,
    rng: np.random.Generator,
) -> Population:
    """Remove ``count`` uniformly random agents per replicate.

    The departing subset is drawn independently for every replicate row,
    and surviving agents keep both their counters and their relative order
    (so an agent's column identity is stable across churn as long as it
    lives). ``count`` is clamped to ``n - 1``: the population never drops
    below one agent.
    """
    require_integer(count, "count", minimum=1)
    population.validate()
    count = min(count, population.size - 1)
    if count <= 0:
        return population
    # One uniform score per agent; dropping the `count` lowest scores of
    # each replicate row removes a uniformly random subset. Sorting the
    # survivor indices restores the original relative agent order.
    scores = rng.random(population.shape)
    order = np.argsort(scores, axis=-1, kind="stable")
    survivors = np.sort(order[..., count:], axis=-1)
    return Population(
        positions=np.take_along_axis(population.positions, survivors, axis=-1),
        totals=np.take_along_axis(population.totals, survivors, axis=-1),
        marked=np.take_along_axis(population.marked, survivors, axis=-1),
        marked_totals=np.take_along_axis(population.marked_totals, survivors, axis=-1),
    )


def shock_population(
    population: Population,
    factor: float,
    topology: Topology,
    rng: np.random.Generator,
    marked_fraction: float = 0.0,
) -> Population:
    """Rescale the population to ``max(1, round(n · factor))`` agents.

    Factors above one spawn the difference as fresh uniform arrivals;
    factors below one retire a uniform random subset. A factor of one (or
    a rounding that lands on the current size) is a no-op.
    """
    if not factor > 0:
        raise ValueError(f"factor must be positive, got {factor}")
    target = max(1, int(round(population.size * factor)))
    if target > population.size:
        return spawn_agents(
            population, target - population.size, topology, rng, marked_fraction
        )
    if target < population.size:
        return retire_agents(population, population.size - target, rng)
    return population


def remap_positions(
    population: Population,
    topology: Topology,
    rng: np.random.Generator,
    mode: str = "uniform",
) -> Population:
    """Re-home every agent onto (a possibly different-sized) ``topology``.

    ``"uniform"`` re-places all agents independently and uniformly — the
    paper's placement assumption, appropriate after a disruptive rewiring.
    ``"mod"`` maps each label to ``label % num_nodes``: deterministic and
    locality-preserving when a torus shrinks, at the cost of a transiently
    non-uniform occupancy. Counters are untouched — the agents remember
    what they observed in the old environment.
    """
    population.validate()
    if mode == "uniform":
        positions = topology.uniform_nodes(population.shape, rng)
    elif mode == "mod":
        positions = np.mod(population.positions, topology.num_nodes).astype(np.int64)
    else:
        raise ValueError(f"mode must be 'uniform' or 'mod', got {mode!r}")
    return Population(
        positions=positions,
        totals=population.totals,
        marked=population.marked,
        marked_totals=population.marked_totals,
    )


__all__ = [
    "Population",
    "spawn_agents",
    "retire_agents",
    "shock_population",
    "remap_positions",
]
