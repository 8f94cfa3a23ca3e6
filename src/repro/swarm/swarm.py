"""Robot swarm facade over the density-estimation primitives (Section 5.2).

A :class:`RobotSwarm` is a population of robots on a torus workspace. Each
robot may belong to task groups (arbitrary named boolean properties); the
swarm can estimate the overall density, the density of each task group, the
relative frequency of a group (``f_P = d_P / d``), and run quorum detection —
the operations the paper lists for both ant colonies and robot swarms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from repro.core.encounter import collision_counts, marked_collision_counts
from repro.core.results import DensityEstimationRun
from repro.core.simulation import CollisionObservationModel, PlacementFn, uniform_placement
from repro.swarm.noise import NoisyCollisionModel, correct_noisy_estimate
from repro.topology.base import Topology
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import require_integer, require_probability


@dataclass(frozen=True)
class SwarmDensityReport:
    """Per-robot estimates of overall and per-group densities."""

    density_estimates: np.ndarray
    group_density_estimates: dict[str, np.ndarray]
    true_density: float
    true_group_densities: dict[str, float]
    rounds: int

    def frequency_estimates(self, group: str) -> np.ndarray:
        """Per-robot relative frequency estimates ``d̃_P / d̃`` for ``group``."""
        if group not in self.group_density_estimates:
            raise KeyError(f"unknown group {group!r}")
        overall = self.density_estimates
        marked = self.group_density_estimates[group]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(overall > 0, marked / np.where(overall > 0, overall, 1.0), 0.0)

    def true_frequency(self, group: str) -> float:
        if self.true_density == 0:
            return 0.0
        return self.true_group_densities[group] / self.true_density


@dataclass
class RobotSwarm:
    """A swarm of robots random-walking a torus workspace.

    Parameters
    ----------
    workspace:
        The torus (or any regular topology) the robots move on.
    num_robots:
        Total number of robots.
    groups:
        Optional mapping from group name to either a membership probability
        (each robot joins independently) or an explicit boolean array of
        length ``num_robots``.
    placement:
        Initial placement function; defaults to uniform placement.
    collision_model:
        Optional noisy collision detection model applied to all counting.
    seed:
        Seed controlling group assignment (movement randomness is supplied
        per call).
    """

    workspace: Topology
    num_robots: int
    groups: Mapping[str, float | np.ndarray] = field(default_factory=dict)
    placement: Optional[PlacementFn] = None
    collision_model: Optional[CollisionObservationModel] = None
    seed: SeedLike = None

    def __post_init__(self) -> None:
        require_integer(self.num_robots, "num_robots", minimum=1)
        rng = as_generator(self.seed)
        memberships: dict[str, np.ndarray] = {}
        for name, spec in self.groups.items():
            if isinstance(spec, np.ndarray):
                membership = np.asarray(spec, dtype=bool)
                if membership.shape != (self.num_robots,):
                    raise ValueError(
                        f"group {name!r} membership must have shape ({self.num_robots},)"
                    )
            else:
                require_probability(float(spec), f"groups[{name!r}]")
                membership = rng.random(self.num_robots) < float(spec)
            memberships[name] = membership
        self._memberships = memberships

    # ------------------------------------------------------------------
    # Ground truth
    # ------------------------------------------------------------------
    @property
    def true_density(self) -> float:
        """Overall density ``d = (num_robots - 1) / A``."""
        return (self.num_robots - 1) / self.workspace.num_nodes

    def group_membership(self, group: str) -> np.ndarray:
        """Boolean membership vector of ``group``."""
        return self._memberships[group].copy()

    def true_group_density(self, group: str) -> float:
        """Density of robots in ``group`` (members per node)."""
        return float(np.count_nonzero(self._memberships[group])) / self.workspace.num_nodes

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimate_densities(self, rounds: int, seed: SeedLike = None) -> SwarmDensityReport:
        """Run Algorithm 1 for all robots, tracking every group separately.

        A single shared simulation produces, per robot, the overall
        encounter rate and one marked encounter rate per task group.
        """
        require_integer(rounds, "rounds", minimum=1)
        rng = as_generator(seed)
        placement = self.placement or uniform_placement
        positions = np.asarray(
            placement(self.workspace, self.num_robots, rng), dtype=np.int64
        )
        self.workspace.validate_nodes(positions)

        totals = np.zeros(self.num_robots, dtype=np.float64)
        group_totals = {
            name: np.zeros(self.num_robots, dtype=np.float64) for name in self._memberships
        }
        for _ in range(rounds):
            positions = self.workspace.step_many(positions, rng)
            true_counts = collision_counts(positions)
            if self.collision_model is not None:
                observed = np.asarray(
                    self.collision_model.observe(true_counts, rng), dtype=np.float64
                )
            else:
                observed = true_counts.astype(np.float64)
            totals += observed
            for name, membership in self._memberships.items():
                group_totals[name] += marked_collision_counts(positions, membership).astype(
                    np.float64
                )

        return SwarmDensityReport(
            density_estimates=totals / rounds,
            group_density_estimates={
                name: counts / rounds for name, counts in group_totals.items()
            },
            true_density=self.true_density,
            true_group_densities={
                name: self.true_group_density(name) for name in self._memberships
            },
            rounds=rounds,
        )

    def estimate_density(self, rounds: int, seed: SeedLike = None) -> DensityEstimationRun:
        """Overall density only, wrapped in the standard run container."""
        report = self.estimate_densities(rounds, seed)
        estimates = report.density_estimates
        if isinstance(self.collision_model, NoisyCollisionModel) and not self.collision_model.is_noiseless:
            estimates = np.asarray(correct_noisy_estimate(estimates, self.collision_model))
        return DensityEstimationRun(
            estimates=estimates,
            collision_totals=report.density_estimates * rounds,
            true_density=self.true_density,
            rounds=rounds,
            num_agents=self.num_robots,
            num_nodes=self.workspace.num_nodes,
            topology_name=self.workspace.name,
            algorithm="robot_swarm",
        )

    def detect_quorum(
        self, threshold: float, rounds: int, seed: SeedLike = None
    ) -> np.ndarray:
        """Boolean per-robot decisions: is the density above ``threshold``?"""
        run = self.estimate_density(rounds, seed)
        return run.estimates >= threshold


__all__ = ["RobotSwarm", "SwarmDensityReport"]
