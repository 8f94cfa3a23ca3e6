"""Configuration and result containers of the encounter-rate simulation.

The simulation executes Algorithm 1 for *all* agents simultaneously: in
each round every agent takes one random-walk step and then observes
``count(position)`` — the number of other agents on its node. The round
loop itself lives in :mod:`repro.core.kernel` (one vectorized
implementation serving both the serial and the batched ``(R, n)`` path);
this module defines its contract — the config, the result containers, the
per-round hook protocol. Callers customise the simulation through three
hooks:

* ``placement`` — how agents are initially positioned (default: independent
  uniform placement, the assumption of Section 2);
* ``marked`` — an optional boolean property vector, so collisions with
  marked agents are tracked separately (Section 5.2);
* ``collision_model`` — an optional observation model that perturbs the true
  collision counts (missed or spurious detections, Section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

import numpy as np

from repro.topology.base import Topology
from repro.utils.validation import require_integer

PlacementFn = Callable[[Topology, int, np.random.Generator], np.ndarray]


class MovementModelLike(Protocol):
    """Anything with a ``step(topology, positions, rng)`` method.

    The concrete implementations live in :mod:`repro.walks.movement`; the
    default behaviour (no model) is the paper's uniform random walk via
    ``topology.step_many``.
    """

    def step(
        self, topology: Topology, positions: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Advance every agent by one round."""
        ...


class CollisionObservationModel(Protocol):
    """Observation model applied to the true per-round collision counts.

    Implementations live in :mod:`repro.swarm.noise`; the default behaviour
    (no model) reports the true counts.
    """

    def observe(self, true_counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return the counts the agents actually record this round."""
        ...


@dataclass
class RoundState:
    """Mutable view of the live simulation handed to a per-round hook.

    A hook may *read* everything (e.g. to stream this round's observations
    into an anytime estimator) and may *replace* ``topology``,
    ``positions``, ``totals``, ``marked``, and ``marked_totals`` — this is
    how the dynamics driver (:mod:`repro.dynamics`) applies agent churn,
    density shocks, and topology changes between rounds. After the hook
    returns, the simulation loop re-reads those fields, so a replaced array
    (even one of a different agent count) becomes the live state of the next
    round. The loop validates that the per-agent arrays stay mutually
    consistent and that positions remain valid nodes of ``topology``.

    In the kernel's serial mode the per-agent arrays have shape ``(n,)``;
    in its batched mode (``replicates=R``) they have shape ``(R, n)`` with
    a leading replicate axis. ``observed`` is this round's
    observed collision counts (already accumulated into ``totals``).
    """

    topology: Topology
    positions: np.ndarray
    totals: np.ndarray
    marked: np.ndarray
    marked_totals: np.ndarray
    observed: np.ndarray
    round_index: int
    rng: np.random.Generator

    @property
    def num_agents(self) -> int:
        """Live agents per replicate (the trailing axis of the state arrays)."""
        return int(self.positions.shape[-1])


#: Per-round hook contract; see :class:`RoundState`.
RoundHook = Callable[[RoundState], None]


def apply_round_hook(
    hook: RoundHook,
    state: RoundState,
) -> RoundState:
    """Invoke ``hook`` and validate the (possibly replaced) state arrays.

    Shared by the kernel's reference and fused loops so both enforce the
    same contract: the per-agent arrays must keep one common shape and
    positions must be valid nodes of the (possibly replaced) topology.
    """
    hook(state)
    state.positions = np.asarray(state.positions, dtype=np.int64)
    state.totals = np.asarray(state.totals, dtype=np.float64)
    state.marked = np.asarray(state.marked, dtype=bool)
    state.marked_totals = np.asarray(state.marked_totals, dtype=np.float64)
    shape = state.positions.shape
    if state.num_agents < 1:
        raise ValueError("round_hook must leave at least one live agent")
    for name in ("totals", "marked", "marked_totals"):
        if getattr(state, name).shape != shape:
            raise ValueError(
                f"round_hook left inconsistent state: positions have shape {shape} "
                f"but {name} has shape {getattr(state, name).shape}"
            )
    state.topology.validate_nodes(state.positions)
    return state


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of a multi-agent encounter-rate simulation.

    Attributes
    ----------
    num_agents:
        Total number of agents placed on the topology (the paper's ``n + 1``).
    rounds:
        Number of rounds ``t`` each agent runs Algorithm 1 for.
    placement:
        Optional custom placement function ``(topology, count, rng) -> nodes``;
        defaults to independent uniform placement.
    marked_fraction:
        If positive, this fraction of agents is marked with the property
        tracked by the frequency estimator (each agent independently with
        this probability, matching the "uniformly distributed in population"
        assumption of Section 5.2).
    collision_model:
        Optional observation model for noisy collision detection.
    movement:
        Optional movement model replacing the uniform random walk (see
        :mod:`repro.walks.movement`); used by the E19 ablation.
    record_trajectory:
        When ``True``, cumulative collision counts are recorded after every
        round (memory ``O(num_agents * rounds)``), allowing convergence plots.
    round_hook:
        Optional per-round callback receiving a :class:`RoundState` after
        each round's observation has been accumulated. The hook may replace
        the state arrays and the topology, which is how the dynamics layer
        (:mod:`repro.dynamics`) injects agent churn, density shocks, and
        environment changes mid-run. Incompatible with
        ``record_trajectory`` (the trajectory matrix assumes a fixed
        population).
    """

    num_agents: int
    rounds: int
    placement: Optional[PlacementFn] = None
    marked_fraction: float = 0.0
    collision_model: Optional[CollisionObservationModel] = None
    movement: Optional[MovementModelLike] = None
    record_trajectory: bool = False
    round_hook: Optional[RoundHook] = None

    def __post_init__(self) -> None:
        require_integer(self.num_agents, "num_agents", minimum=1)
        require_integer(self.rounds, "rounds", minimum=1)
        if not 0.0 <= self.marked_fraction <= 1.0:
            raise ValueError(
                f"marked_fraction must lie in [0, 1], got {self.marked_fraction}"
            )
        if self.round_hook is not None and self.record_trajectory:
            raise ValueError(
                "round_hook may change the population mid-run; trajectory "
                "recording requires a fixed population, so the two cannot "
                "be combined"
            )


@dataclass
class SimulationResult:
    """Raw outcome of a serial :func:`~repro.core.kernel.run_kernel` call.

    Attributes
    ----------
    collision_totals:
        Per-agent total observed collisions over all rounds, shape ``(n+1,)``.
    marked_collision_totals:
        Per-agent totals of collisions with marked agents (all zeros when no
        agents are marked).
    marked:
        Boolean property vector actually assigned.
    initial_positions / final_positions:
        Agent node labels before the first and after the last round.
    trajectory:
        If requested, array of shape ``(rounds, n+1)`` of cumulative
        collision counts after each round; otherwise ``None``.
    """

    collision_totals: np.ndarray
    marked_collision_totals: np.ndarray
    marked: np.ndarray
    initial_positions: np.ndarray
    final_positions: np.ndarray
    rounds: int
    num_nodes: int
    trajectory: np.ndarray | None = None
    marked_trajectory: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def num_agents(self) -> int:
        return int(self.collision_totals.shape[0])

    @property
    def true_density(self) -> float:
        """The paper's density ``d = n / A`` (other agents per node)."""
        return (self.num_agents - 1) / self.num_nodes

    @property
    def true_marked_density(self) -> float:
        """Density of marked agents, ``d_P`` of Section 5.2.

        Follows the same "other agents" convention used for ``d``: from the
        perspective of a typical (unmarked) agent there are
        ``sum(marked)`` marked agents it can encounter.
        """
        return float(np.count_nonzero(self.marked)) / self.num_nodes

    def estimates(self) -> np.ndarray:
        """Per-agent density estimates ``d̃ = c / t`` (Algorithm 1's output)."""
        return self.collision_totals / self.rounds

    def marked_estimates(self) -> np.ndarray:
        """Per-agent marked-density estimates ``d̃_P = c_P / t``."""
        return self.marked_collision_totals / self.rounds


def uniform_placement(topology: Topology, count: int, rng: np.random.Generator) -> np.ndarray:
    """Default placement: each agent at an independent uniform random node."""
    return topology.uniform_nodes(count, rng)


def resume_placement(positions: np.ndarray) -> PlacementFn:
    """Placement that puts the agents back at ``positions``, drawing nothing.

    Runs a simulation in segments — consecutive serial kernel calls on one
    generator, each resuming where the last one stopped.
    """

    def resume_placement(topology: Topology, count: int, rng: np.random.Generator) -> np.ndarray:
        return positions

    return resume_placement


__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "CollisionObservationModel",
    "MovementModelLike",
    "RoundState",
    "RoundHook",
    "apply_round_hook",
    "resume_placement",
    "uniform_placement",
]
