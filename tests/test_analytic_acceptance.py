"""Acceptance criteria of the analytic backend: cost model and agreement.

Two promises the backend makes, pinned as tests:

* **O(1) in replicates** — the replicate axis is a broadcast view, so an
  ``R = 10**7`` call materialises nothing. The wall-clock side of this
  promise (R=10 vs R=1000 cost, the R=10**7 call time, the speedup over the
  fused backend) is gated in ``benchmarks/bench_analytic.py``, not here.
* **Agreement** — the simulating backends land inside the analytic theory
  bands on both a slow-mixing torus and a well-mixed graph, i.e. the law
  the backend returns is the law the simulators sample from.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.analytic import solve
from repro.core.kernel import run_kernel
from repro.core.simulation import SimulationConfig
from repro.topology.complete import CompleteGraph
from repro.topology.torus import Torus2D

# The E01 quick workload: Torus2D(32), ~0.1 density, 100 rounds.
TOPOLOGY = Torus2D(32)
CONFIG = SimulationConfig(num_agents=104, rounds=100)


class TestRuntimeIsConstantInReplicates:
    def test_huge_replicate_counts_stay_cheap(self):
        # R = 10**7 would be ~8 TB of estimates if materialised.
        batch = run_kernel(TOPOLOGY, CONFIG, 10**7, 0, backend="analytic")
        assert batch.collision_totals.shape == (10**7, CONFIG.num_agents)
        assert batch.collision_totals.strides[0] == 0


class TestAgreementWithSimulation:
    @pytest.mark.parametrize(
        "topology",
        [Torus2D(32), CompleteGraph(1024)],
        ids=["torus", "well-mixed"],
    )
    def test_fused_lands_inside_the_theory_bands(self, topology):
        config = SimulationConfig(num_agents=104, rounds=100)
        solution = solve(topology, config)
        replicates = 64
        batch = run_kernel(topology, config, replicates, 1234, backend="fused")
        estimates = batch.estimates()
        total = estimates.size
        # Grand mean within 6 standard errors of the exact mean.
        grand_sd = np.sqrt(solution.grand_mean_variance(replicates))
        assert abs(float(estimates.mean()) - solution.density) < 6.0 * grand_sd
        # Pooled sample variance within 6 approximate standard errors of its
        # exact expectation (chi-square SE, inflated for correlation).
        expected_var = solution.expected_sample_variance(replicates)
        var_se = expected_var * np.sqrt(2.0 / (total - 1)) * np.sqrt(
            max(1.0, solution.variance_inflation)
        )
        assert abs(float(estimates.var(ddof=1)) - expected_var) < 6.0 * var_se
