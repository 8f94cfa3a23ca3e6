"""End-to-end network size estimation pipeline.

Glues together the three stages of Section 5.1 with full link-query
accounting:

1. **Burn-in** — all walks start at a seed vertex and walk
   ``M = O(log(|E|/δ)/(1-λ))`` steps (Section 5.1.4).
2. **Average degree estimation** — Algorithm 3 applied to the burned-in
   walker positions (Theorem 31).
3. **Size estimation** — Algorithm 2 run for ``t`` further rounds
   (Theorem 27).

The pipeline reports the query count so experiments can reproduce the
query-complexity comparison against [KLSC14] in Section 5.1.5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.netsize.burn_in import burn_in_walks, required_burn_in_steps
from repro.netsize.degree import estimate_average_degree
from repro.netsize.katzir import katzir_size_estimate
from repro.netsize.oracle import GraphAccessOracle
from repro.netsize.size_estimator import NetworkSizeEstimate, estimate_network_size
from repro.topology.graph import NetworkXTopology
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import require_integer, require_probability


@dataclass(frozen=True)
class PipelineReport:
    """Full accounting of one pipeline run."""

    size_estimate: float
    true_size: int
    relative_error: float
    average_degree_estimate: float
    true_average_degree: float
    num_walks: int
    burn_in_steps: int
    estimation_rounds: int
    link_queries: int
    details: dict[str, Any] = field(default_factory=dict)


@dataclass
class NetworkSizeEstimationPipeline:
    """Run burn-in + degree estimation + Algorithm 2 against a hidden graph.

    Parameters
    ----------
    topology:
        The hidden graph (wrapped in a query-counting oracle internally).
    num_walks:
        Number of random walks ``n``.
    rounds:
        Number of collision-counting rounds ``t`` for Algorithm 2.
    burn_in:
        Burn-in steps; ``None`` derives them from the spectral gap via
        Section 5.1.4 (requires a non-bipartite graph).
    seed_node:
        The initially known vertex all walks start from.
    delta:
        Failure probability target used when deriving the burn-in length.
    use_estimated_degree:
        When ``True`` (default) Algorithm 3's estimate is plugged into
        Algorithm 2; when ``False`` the true average degree is used (the
        idealised setting of Section 5.1.2).
    """

    topology: NetworkXTopology
    num_walks: int
    rounds: int
    burn_in: int | None = None
    seed_node: int = 0
    delta: float = 0.05
    use_estimated_degree: bool = True

    def __post_init__(self) -> None:
        require_integer(self.num_walks, "num_walks", minimum=2)
        require_integer(self.rounds, "rounds", minimum=1)
        require_probability(self.delta, "delta", allow_zero=False, allow_one=False)
        if self.burn_in is not None:
            require_integer(self.burn_in, "burn_in", minimum=0)

    def run(self, seed: SeedLike = None) -> PipelineReport:
        """Execute the three stages and return the full report."""
        rng = as_generator(seed)
        oracle = GraphAccessOracle(self.topology)

        burn_steps = (
            self.burn_in
            if self.burn_in is not None
            else required_burn_in_steps(self.topology, self.delta)
        )
        positions = burn_in_walks(
            oracle, self.num_walks, burn_steps, rng, seed_node=self.seed_node
        )

        degree_estimate = estimate_average_degree(
            oracle, self.num_walks, rng, positions=positions
        )
        degree_used = degree_estimate if self.use_estimated_degree else self.topology.average_degree

        estimate: NetworkSizeEstimate = estimate_network_size(
            oracle,
            self.num_walks,
            self.rounds,
            rng,
            average_degree=degree_used,
            starts=positions,
        )

        true_size = self.topology.num_nodes
        relative_error = (
            float("inf")
            if not np.isfinite(estimate.size_estimate)
            else abs(estimate.size_estimate - true_size) / true_size
        )
        return PipelineReport(
            size_estimate=estimate.size_estimate,
            true_size=true_size,
            relative_error=relative_error,
            average_degree_estimate=degree_estimate,
            true_average_degree=self.topology.average_degree,
            num_walks=self.num_walks,
            burn_in_steps=burn_steps,
            estimation_rounds=self.rounds,
            link_queries=oracle.query_count,
            details={
                "weighted_collision_rate": estimate.weighted_collision_rate,
                "total_weighted_collisions": estimate.total_weighted_collisions,
                "degree_used": degree_used,
            },
        )

    def run_katzir_baseline(self, seed: SeedLike = None) -> PipelineReport:
        """Run the [KLSC14] baseline with the same walk budget and burn-in.

        The baseline burns in the same number of walks and then counts the
        collisions of the final configuration only (no estimation rounds).
        """
        rng = as_generator(seed)
        oracle = GraphAccessOracle(self.topology)
        burn_steps = (
            self.burn_in
            if self.burn_in is not None
            else required_burn_in_steps(self.topology, self.delta)
        )
        positions = burn_in_walks(
            oracle, self.num_walks, burn_steps, rng, seed_node=self.seed_node
        )
        degree_estimate = estimate_average_degree(
            oracle, self.num_walks, rng, positions=positions
        )
        degree_used = degree_estimate if self.use_estimated_degree else self.topology.average_degree
        result = katzir_size_estimate(
            oracle,
            self.num_walks,
            rng,
            average_degree=degree_used,
            positions=positions,
        )
        true_size = self.topology.num_nodes
        relative_error = (
            float("inf")
            if not np.isfinite(result.size_estimate)
            else abs(result.size_estimate - true_size) / true_size
        )
        return PipelineReport(
            size_estimate=result.size_estimate,
            true_size=true_size,
            relative_error=relative_error,
            average_degree_estimate=degree_estimate,
            true_average_degree=self.topology.average_degree,
            num_walks=self.num_walks,
            burn_in_steps=burn_steps,
            estimation_rounds=0,
            link_queries=oracle.query_count,
            details={"weighted_collision_rate": result.weighted_collision_rate},
        )


__all__ = [
    "PipelineReport",
    "NetworkSizeEstimationPipeline",
]
