"""The analytic backend: exact solutions, containers, and seam wiring.

Covers the positive paths of :mod:`repro.core.analytic` — the solved
moments against Monte-Carlo simulation and closed-form cross-checks, the
expectation-comb result containers, the ``run_kernel`` dispatch, the CLI
flag, the cache-key fold, and the scheduler's backend forwarding. The
negative paths (every unsupported combo) live in
``test_analytic_unsupported.py``; the algebraic invariants in
``test_analytic_properties.py``; the performance acceptance criteria in
``test_analytic_acceptance.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.analytic import (
    AnalyticBatchResult,
    AnalyticSimulationResult,
    AnalyticSolution,
    meeting_probabilities,
    run_analytic,
    solve,
    transition_matrix,
)
from repro.core.kernel import (
    KERNEL_BACKENDS,
    RunContext,
    current_run_context,
    run_kernel,
    use_run_context,
)
from repro.core.simulation import SimulationConfig, SimulationResult
from repro.engine import ExecutionEngine, RunCache
from repro.engine.scheduler import _run_chunk
from repro.serve.submit import Submission
from repro.topology.complete import CompleteGraph
from repro.topology.hypercube import Hypercube
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D
from repro.topology.torus_kd import TorusKD


class TestMeetingProbabilities:
    def test_lag_zero_is_one_and_series_is_a_probability(self):
        for topology in (Torus2D(5), Ring(7), TorusKD(3, 3), Hypercube(4), CompleteGraph(9)):
            series = meeting_probabilities(topology, 12)
            assert series[0] == 1.0
            assert np.all(series >= 0.0) and np.all(series <= 1.0)

    def test_complete_graph_closed_form_matches_dense_powers(self):
        topology = CompleteGraph(7)
        series = meeting_probabilities(topology, 8)
        dense = transition_matrix(topology).toarray()
        row = np.zeros(7)
        row[0] = 1.0
        for lag in range(9):
            assert series[lag] == pytest.approx(float(row @ row), abs=1e-12)
            row = row @ dense

    def test_hypercube_character_sum_matches_dense_powers(self):
        topology = Hypercube(4)
        series = meeting_probabilities(topology, 10)
        dense = transition_matrix(topology).toarray()
        row = np.zeros(topology.num_nodes)
        row[0] = 1.0
        for lag in range(11):
            assert series[lag] == pytest.approx(float(row @ row), abs=1e-12)
            row = row @ dense

    def test_torus_one_lag_is_probability_of_matching_steps(self):
        # Two walkers on a common node meet one round later iff they pick
        # the same of the 4 directions: p_1 = 1/4 (side > 2, no wrap overlap).
        series = meeting_probabilities(Torus2D(8), 1)
        assert series[1] == pytest.approx(0.25, abs=1e-12)


class TestSolutionAgainstMonteCarlo:
    """The exact moments must predict what the simulating backends produce."""

    TOPOLOGY = Torus2D(8)
    CONFIG = SimulationConfig(num_agents=10, rounds=20)
    REPLICATES = 3000

    @pytest.fixture(scope="class")
    def monte_carlo(self):
        batch = run_kernel(self.TOPOLOGY, self.CONFIG, self.REPLICATES, 7, backend="fused")
        return batch.estimates()

    @pytest.fixture(scope="class")
    def solution(self) -> AnalyticSolution:
        return solve(self.TOPOLOGY, self.CONFIG)

    def test_mean_is_exactly_density(self, monte_carlo, solution):
        assert solution.density == (10 - 1) / 64
        assert float(monte_carlo.mean()) == pytest.approx(solution.density, rel=0.02)

    def test_per_agent_variance(self, monte_carlo, solution):
        assert float(monte_carlo.var(ddof=1)) == pytest.approx(
            solution.estimate_variance, rel=0.1
        )

    def test_grand_mean_variance(self, monte_carlo, solution):
        grand_means = monte_carlo.mean(axis=1)
        assert float(grand_means.var(ddof=1)) == pytest.approx(
            solution.grand_mean_variance(1), rel=0.15
        )

    def test_expected_sample_variance(self, monte_carlo, solution):
        per_replicate = monte_carlo.var(axis=1, ddof=1)
        assert float(per_replicate.mean()) == pytest.approx(
            solution.expected_sample_variance(1), rel=0.1
        )

    def test_variance_inflation_above_one_on_the_torus(self, solution):
        assert solution.variance_inflation > 1.5

    def test_complete_graph_inflation_is_one(self):
        solution = solve(CompleteGraph(64), SimulationConfig(num_agents=10, rounds=20))
        assert solution.variance_inflation == pytest.approx(1.0, abs=0.01)


class TestSolutionWidths:
    SOLUTION = solve(Torus2D(16), SimulationConfig(num_agents=26, rounds=40))

    def test_chernoff_at_least_clt(self):
        # The Chernoff tail bound is conservative; the CLT width is sharp.
        assert self.SOLUTION.chernoff_epsilon(0.1) >= self.SOLUTION.clt_epsilon(0.1) * 0.5

    def test_widths_shrink_with_looser_delta(self):
        assert self.SOLUTION.clt_epsilon(0.2) < self.SOLUTION.clt_epsilon(0.05)
        assert self.SOLUTION.chernoff_epsilon(0.2) < self.SOLUTION.chernoff_epsilon(0.05)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 2.0])
    def test_delta_validation(self, delta):
        with pytest.raises(ValueError, match="delta"):
            self.SOLUTION.clt_epsilon(delta)
        with pytest.raises(ValueError, match="delta"):
            self.SOLUTION.chernoff_epsilon(delta)

    def test_collision_curve_is_linear_in_rounds(self):
        curve = self.SOLUTION.expected_collision_curve()
        assert curve.shape == (40,)
        assert curve[-1] == pytest.approx(self.SOLUTION.expected_collision_total)
        assert np.allclose(np.diff(curve), self.SOLUTION.density)


class TestResultContainers:
    TOPOLOGY = Torus2D(12)
    CONFIG = SimulationConfig(num_agents=15, rounds=30)

    def test_serial_container(self):
        outcome = run_analytic(self.TOPOLOGY, self.CONFIG)
        assert isinstance(outcome, AnalyticSimulationResult)
        assert isinstance(outcome, SimulationResult)
        assert outcome.collision_totals.shape == (15,)
        assert outcome.metadata["backend"] == "analytic"
        assert outcome.true_density == outcome.solution.density
        assert not outcome.marked.any()

    def test_batched_container_moments_are_exact(self):
        outcome = run_analytic(self.TOPOLOGY, self.CONFIG, replicates=9)
        assert isinstance(outcome, AnalyticBatchResult)
        estimates = outcome.estimates()
        assert estimates.shape == (9, 15)
        solution = outcome.solution
        assert float(estimates.mean()) == pytest.approx(solution.density, abs=1e-13)
        assert float(estimates.var()) == pytest.approx(solution.estimate_variance, rel=1e-9)

    def test_replicate_axis_is_a_broadcast_view(self):
        # O(1) in R: the replicate axis must carry zero stride, not copies.
        outcome = run_analytic(self.TOPOLOGY, self.CONFIG, replicates=10**6)
        assert outcome.collision_totals.strides[0] == 0
        assert outcome.collision_totals.base is not None

    def test_replicates_are_identical(self):
        outcome = run_analytic(self.TOPOLOGY, self.CONFIG, replicates=4)
        first = outcome.replicate(0)
        last = outcome.replicate(-1)
        assert np.array_equal(first.collision_totals, last.collision_totals)

    def test_seed_is_ignored(self):
        a = run_analytic(self.TOPOLOGY, self.CONFIG, replicates=3, seed=1)
        b = run_analytic(self.TOPOLOGY, self.CONFIG, replicates=3, seed=999)
        assert np.array_equal(a.collision_totals, b.collision_totals)

    def test_single_agent_yields_zero_estimates(self):
        outcome = run_analytic(self.TOPOLOGY, SimulationConfig(num_agents=1, rounds=5))
        assert np.array_equal(outcome.collision_totals, np.zeros(1))
        assert outcome.solution.density == 0.0


class TestKernelDispatch:
    def test_analytic_is_a_kernel_backend(self):
        assert "analytic" in KERNEL_BACKENDS

    def test_run_kernel_dispatches_analytic(self):
        outcome = run_kernel(
            Torus2D(10), SimulationConfig(num_agents=8, rounds=12), 5, 3, backend="analytic"
        )
        assert isinstance(outcome, AnalyticBatchResult)

    def test_context_backend_resolution(self):
        with use_run_context(RunContext("analytic")):
            outcome = run_kernel(Torus2D(10), SimulationConfig(num_agents=8, rounds=12), 5, 3)
        assert isinstance(outcome, AnalyticBatchResult)

    def test_serial_mode_dispatches_too(self):
        outcome = run_kernel(
            Torus2D(10), SimulationConfig(num_agents=8, rounds=12), None, 3, backend="analytic"
        )
        assert isinstance(outcome, AnalyticSimulationResult)

    def test_engine_run_replicates_under_analytic_context(self):
        with use_run_context(RunContext("analytic")):
            batch = ExecutionEngine().run_replicates(
                Torus2D(10), SimulationConfig(num_agents=8, rounds=12), 4, 0
            )
        assert batch.metadata["backend"] == "analytic"


class TestSchedulerForwardsContext:
    def test_run_chunk_runs_cells_under_its_context(self):
        # _run_chunk runs inside worker processes, which do not share the
        # parent's context: it must run its cells under the context it is
        # passed, and hand the caller's own context back on return.
        results, _ = _run_chunk(
            _report_backend, [{}], [np.random.SeedSequence(0)], False, RunContext("analytic")
        )
        assert results == ["analytic"]
        assert current_run_context() == RunContext()

    def test_worker_pool_runs_cells_under_analytic(self):
        with use_run_context(RunContext("analytic")):
            backends = ExecutionEngine(workers=2).map(_report_backend, [{} for _ in range(4)], 0)
        assert backends == ["analytic"] * 4


def _report_backend(rng):
    """Module-level (picklable) scheduler task echoing the worker's backend."""
    del rng
    return current_run_context().backend


class TestCacheKeyFoldsAnalytic:
    def test_key_changes_only_under_analytic_context(self, tmp_path):
        cache = RunCache(tmp_path)
        submission = Submission(kind="experiment", name="E01", seed=0, quick=True)
        auto_key = submission.cache_key(cache)
        for backend in KERNEL_BACKENDS:
            key = submission.cache_key(cache, RunContext(backend))
            # The simulating backends are bit-identical and share keys;
            # analytic changes records, so it gets its own.
            assert (key == auto_key) == (backend != "analytic")
            with use_run_context(RunContext(backend)):
                assert submission.cache_key(cache) == key  # context=None reads the current one
        # analytic ignores sharding, so the shard setting cannot split its key.
        analytic_key = submission.cache_key(cache, RunContext("analytic"))
        assert submission.cache_key(cache, RunContext("analytic", shard_workers=2)) == analytic_key


class TestAnalyticCli:
    def test_run_e01_quick_analytic(self, capsys):
        assert main(["run", "E01", "--quick", "--json", "--backend", "analytic"]) == 0
        payload = json.loads(capsys.readouterr().out)
        density = (104 - 1) / 32**2
        for record in payload["records"]:
            assert record["mean_estimate"] == pytest.approx(density, abs=1e-12)

    def test_run_e17_quick_analytic_zero_bias(self, capsys):
        assert main(["run", "E17", "--quick", "--json", "--backend", "analytic"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for record in payload["records"]:
            assert record["relative_bias"] == pytest.approx(0.0, abs=1e-10)
