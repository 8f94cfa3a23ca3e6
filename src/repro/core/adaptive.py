"""Adaptive (sequential) density estimation.

Theorem 1's round budget depends on the *unknown* density ``d``, which is
awkward to apply in practice: an agent cannot know how long to walk without
knowing the answer. Section 6.2 of the paper raises the related point that
for threshold detection the budget should depend on the threshold, not on
``d``. This module implements the standard doubling / sequential-estimation
answer to both observations:

* :class:`AdaptiveDensityEstimator` runs Algorithm 1 in phases of doubling
  length and stops once the (empirical-Bernstein style) confidence interval
  around the running estimate is within the requested relative width. The
  number of rounds it ends up using automatically scales as ``~ 1/d`` — the
  agent walks longer in sparse environments without being told ``d``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.kernel import run_kernel
from repro.core.simulation import SimulationConfig, resume_placement
from repro.topology.base import Topology
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import require_integer, require_probability


@dataclass(frozen=True)
class AdaptiveEstimate:
    """Outcome of one adaptive estimation run (population-wide view)."""

    estimates: np.ndarray
    rounds_used: int
    phases: int
    true_density: float
    target_epsilon: float
    converged_fraction: float

    def mean_estimate(self) -> float:
        return float(self.estimates.mean())


@dataclass
class AdaptiveDensityEstimator:
    """Sequential version of Algorithm 1 with a doubling phase schedule.

    All agents walk together (one shared simulation); after each phase the
    estimator checks, per agent, whether the agent's confidence interval is
    narrower than ``target_epsilon`` times its running estimate, and stops
    once a ``stop_quantile`` fraction of agents have converged or the round
    cap is hit.

    Parameters
    ----------
    topology:
        Topology the agents walk on.
    num_agents:
        Number of agents.
    target_epsilon:
        Desired relative half-width of the per-agent confidence interval.
    delta:
        Per-agent confidence parameter used in the interval.
    initial_rounds:
        Length of the first phase (doubled every phase).
    max_rounds:
        Hard cap on the total number of rounds.
    stop_quantile:
        Fraction of agents that must have converged before stopping.
    """

    topology: Topology
    num_agents: int
    target_epsilon: float = 0.2
    delta: float = 0.1
    initial_rounds: int = 16
    max_rounds: int = 100_000
    stop_quantile: float = 0.9

    def __post_init__(self) -> None:
        require_integer(self.num_agents, "num_agents", minimum=1)
        require_probability(self.target_epsilon, "target_epsilon", allow_zero=False, allow_one=False)
        require_probability(self.delta, "delta", allow_zero=False, allow_one=False)
        require_integer(self.initial_rounds, "initial_rounds", minimum=1)
        require_integer(self.max_rounds, "max_rounds", minimum=self.initial_rounds)
        require_probability(self.stop_quantile, "stop_quantile", allow_zero=False)

    # ------------------------------------------------------------------
    def _interval_half_width(self, counts: np.ndarray, rounds: int) -> np.ndarray:
        """Bernstein-style half-width of the per-agent rate estimate.

        The collision count behaves like a sum of near-Poisson contributions
        whose variance is inflated by the local mixing sum ``B(t) ≈ log(2t)``
        on the torus (Lemma 11 with k = 2); the additive term is the usual
        Bernstein correction with scale ``b ≈ log(2t)`` (Corollary 17).
        """
        log_term = math.log(4.0 / self.delta)
        local_mixing = math.log(2.0 * rounds)
        variance_proxy = np.maximum(counts, 1.0) * local_mixing
        half_width = np.sqrt(2.0 * variance_proxy * log_term) + local_mixing * log_term
        return half_width / rounds

    def run(self, seed: SeedLike = None) -> AdaptiveEstimate:
        """Run the sequential procedure and return the stopping state.

        Each phase is one serial :func:`~repro.core.kernel.run_kernel` call
        on the shared generator, resuming from the previous phase's final
        positions.
        """
        rng = as_generator(seed)
        positions = self.topology.uniform_nodes(self.num_agents, rng)
        counts = np.zeros(self.num_agents, dtype=np.float64)
        rounds_done = 0
        phase_length = self.initial_rounds
        phases = 0

        while rounds_done < self.max_rounds:
            phase_length = min(phase_length, self.max_rounds - rounds_done)
            config = SimulationConfig(
                self.num_agents, phase_length, placement=resume_placement(positions)
            )
            phase = run_kernel(self.topology, config, None, rng)
            positions = phase.final_positions
            counts += phase.collision_totals
            rounds_done += phase_length
            phases += 1

            estimates = counts / rounds_done
            half_widths = self._interval_half_width(counts, rounds_done)
            converged = half_widths <= self.target_epsilon * np.maximum(estimates, 1e-12)
            if float(np.mean(converged)) >= self.stop_quantile:
                break
            phase_length *= 2

        estimates = counts / rounds_done
        half_widths = self._interval_half_width(counts, rounds_done)
        converged = half_widths <= self.target_epsilon * np.maximum(estimates, 1e-12)
        true_density = (self.num_agents - 1) / self.topology.num_nodes
        return AdaptiveEstimate(
            estimates=estimates,
            rounds_used=rounds_done,
            phases=phases,
            true_density=true_density,
            target_epsilon=self.target_epsilon,
            converged_fraction=float(np.mean(converged)),
        )


__all__ = ["AdaptiveEstimate", "AdaptiveDensityEstimator"]
