"""Tests for the deterministic parallel scheduler (repro.engine.scheduler)."""

import numpy as np
import pytest

from repro.engine import (
    ExecutionEngine,
    ExecutionPlan,
    build_plan,
    execute_plan,
    iter_execute_plan,
)
from repro.experiments import e09_network_size
from repro.utils.rng import spawn_generators, spawn_seed_sequences


def sample_task(label, scale, rng):
    """Module-level task so process workers can unpickle it."""
    return {"label": label, "value": float(scale * rng.normal())}


def sweep_runner(a, rng):
    """Module-level sweep runner returning one record."""
    return {"draw": float(rng.random()), "doubled": 2 * a}


SETTINGS = [{"label": f"s{i}", "scale": i + 1} for i in range(11)]


class TestExecutionPlan:
    def test_build_plan_freezes_settings_and_spawns_seeds(self):
        plan = build_plan(sample_task, SETTINGS, seed=3)
        assert len(plan) == len(SETTINGS)
        assert len(plan.seed_sequences) == len(SETTINGS)
        assert all(isinstance(s, np.random.SeedSequence) for s in plan.seed_sequences)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="seed sequences"):
            ExecutionPlan(
                task=sample_task,
                settings=({"label": "a", "scale": 1},),
                seed_sequences=tuple(spawn_seed_sequences(0, 2)),
            )

    def test_empty_plan(self):
        assert execute_plan(build_plan(sample_task, [], seed=0)) == []


class TestExecutePlan:
    def test_serial_results_in_plan_order(self):
        plan = build_plan(sample_task, SETTINGS, seed=5)
        results = execute_plan(plan, workers=1)
        assert [r["label"] for r in results] == [s["label"] for s in SETTINGS]

    def test_bit_identical_across_worker_counts(self):
        plan = build_plan(sample_task, SETTINGS, seed=5)
        serial = execute_plan(plan, workers=1)
        parallel = execute_plan(plan, workers=4)
        assert serial == parallel  # exact float equality, not approx

    def test_bit_identical_across_chunk_sizes(self):
        plan = build_plan(sample_task, SETTINGS, seed=5)
        assert execute_plan(plan, workers=2, chunk_size=1) == execute_plan(
            plan, workers=2, chunk_size=7
        )

    def test_stream_depends_on_plan_index_not_layout(self):
        # Rebuilding the same plan gives the same per-task streams.
        first = execute_plan(build_plan(sample_task, SETTINGS, seed=9), workers=1)
        second = execute_plan(build_plan(sample_task, SETTINGS, seed=9), workers=1)
        assert first == second

    def test_workers_validated(self):
        plan = build_plan(sample_task, SETTINGS, seed=0)
        with pytest.raises(ValueError):
            execute_plan(plan, workers=0)


class TestIterExecutePlan:
    """The incremental execution path the sweep runner checkpoints on."""

    def test_serial_yields_indexed_results_in_plan_order(self):
        plan = build_plan(sample_task, SETTINGS, seed=5)
        pairs = list(iter_execute_plan(plan, workers=1))
        assert [index for index, _ in pairs] == list(range(len(SETTINGS)))
        assert [result for _, result in pairs] == execute_plan(plan, workers=1)

    def test_parallel_iteration_matches_serial_exactly(self):
        # Chunks arrive in completion order; the (index, result) *set* — and
        # therefore the reassembled plan — is identical to the serial pass.
        plan = build_plan(sample_task, SETTINGS, seed=5)
        serial = list(iter_execute_plan(plan, workers=1))
        for chunk_size in (1, 2, 5):
            parallel = list(iter_execute_plan(plan, workers=3, chunk_size=chunk_size))
            assert sorted(parallel, key=lambda pair: pair[0]) == serial

    def test_results_stream_before_the_plan_finishes(self):
        # Serial iteration is lazy: results already yielded survive an
        # abandoned iteration (what makes mid-sweep checkpoints meaningful).
        plan = build_plan(sample_task, SETTINGS, seed=5)
        iterator = iter_execute_plan(plan, workers=1)
        first = next(iterator)
        second = next(iterator)
        iterator.close()
        reference = execute_plan(plan, workers=1)
        assert first == (0, reference[0])
        assert second == (1, reference[1])

    def test_empty_plan_yields_nothing(self):
        assert list(iter_execute_plan(build_plan(sample_task, [], seed=0))) == []

    def test_abandoning_parallel_iterator_shuts_the_pool_down(self):
        # Closing the generator early (a consumer error between yields) must
        # cancel the queued chunks and return promptly without raising.
        plan = build_plan(sample_task, SETTINGS, seed=5)
        reference = execute_plan(plan, workers=1)
        iterator = iter_execute_plan(plan, workers=2, chunk_size=1)
        index, result = next(iterator)  # whichever chunk completed first
        assert result == reference[index]
        iterator.close()
        # The pool is gone; a fresh iteration over the same plan still works.
        pairs = sorted(iter_execute_plan(plan, workers=2), key=lambda pair: pair[0])
        assert pairs == list(enumerate(reference))

    def test_workers_validated(self):
        plan = build_plan(sample_task, SETTINGS, seed=0)
        with pytest.raises(ValueError):
            list(iter_execute_plan(plan, workers=0))


class TestExecutionEngine:
    def test_map_matches_plan_execution(self):
        engine = ExecutionEngine()
        plan = build_plan(sample_task, SETTINGS, seed=2)
        assert engine.map(sample_task, SETTINGS, seed=2) == execute_plan(plan)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            ExecutionEngine(workers=0)
        with pytest.raises(ValueError):
            ExecutionEngine(workers=2, chunk_size=0)

    def test_run_replicates_shape(self):
        from repro.core.simulation import SimulationConfig
        from repro.topology import Torus2D

        batch = ExecutionEngine().run_replicates(
            Torus2D(8), SimulationConfig(num_agents=10, rounds=5), 4, seed=0
        )
        assert batch.estimates().shape == (4, 10)


class TestLegacyGeneratorStreams:
    """``engine.map`` hands task ``i`` the stream ``spawn_generators`` gave trial ``i``.

    The experiments' "cell seeds match the legacy trial generators" rests on
    this, for int seeds and for a generator seed mid-stream alike.
    """

    SETTINGS = [{"a": 1}, {"a": 5}, {"a": 9}]

    def _legacy_loop(self, seed):
        rngs = spawn_generators(seed, len(self.SETTINGS))
        return [sweep_runner(**setting, rng=rng) for setting, rng in zip(self.SETTINGS, rngs)]

    def test_int_seed(self):
        assert ExecutionEngine().map(sweep_runner, self.SETTINGS, seed=4) == self._legacy_loop(4)

    def test_generator_seed(self):
        engine = ExecutionEngine().map(sweep_runner, self.SETTINGS, seed=np.random.default_rng(7))
        assert engine == self._legacy_loop(np.random.default_rng(7))


class TestExperimentDeterminism:
    """ISSUE 1 acceptance: same seed => identical records for any worker count."""

    CONFIG = e09_network_size.NetworkSizeConfig(
        expander_size=120,
        powerlaw_size=120,
        rounds_grid=(4,),
        burn_in=8,
        trials=2,
    )

    def test_e09_records_identical_workers_1_vs_4(self):
        serial = e09_network_size.run(self.CONFIG, seed=13, engine=ExecutionEngine(workers=1))
        parallel = e09_network_size.run(self.CONFIG, seed=13, engine=ExecutionEngine(workers=4))
        assert serial.records == parallel.records

    def test_e09_json_byte_identical_workers_1_vs_4(self):
        from repro.utils.serialization import dumps

        serial = e09_network_size.run(self.CONFIG, seed=13, engine=ExecutionEngine(workers=1))
        parallel = e09_network_size.run(self.CONFIG, seed=13, engine=ExecutionEngine(workers=4))
        assert dumps(serial.records) == dumps(parallel.records)

    def test_batched_experiments_ignore_worker_count(self):
        from repro.experiments import run_experiment

        for experiment_id in ("E01", "E17"):
            serial = run_experiment(
                experiment_id, quick=True, seed=3, engine=ExecutionEngine(workers=1)
            )
            parallel = run_experiment(
                experiment_id, quick=True, seed=3, engine=ExecutionEngine(workers=4)
            )
            assert serial.records == parallel.records


def costed_task(label, scale, rng):
    """Module-level task advertising its own per-cell cost."""
    return {"label": label, "value": float(scale * rng.normal())}


# build_plan calls cost_hint in the parent process only, so a plain
# attribute is enough (workers pickle the function by reference).
costed_task.cost_hint = lambda label, scale: float(scale)


class TestCostHints:
    """Cost-balanced chunking: scheduling changes, results never do."""

    def test_huge_cell_gets_its_own_chunk(self):
        from repro.engine.scheduler import _cost_chunk_bounds

        bounds = _cost_chunk_bounds([1, 1, 1, 1000, 1, 1, 1, 1], workers=2)
        assert (3, 4) in bounds, f"the 1000-cost cell was not isolated: {bounds}"
        assert bounds[0][0] == 0 and bounds[-1][1] == 8
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo

    def test_uniform_costs_cover_contiguously(self):
        from repro.engine.scheduler import _cost_chunk_bounds

        bounds = _cost_chunk_bounds([1.0] * 20, workers=2)
        assert bounds[0][0] == 0 and bounds[-1][1] == 20
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo

    def test_degenerate_costs_fall_back_to_count_chunking(self):
        from repro.engine.scheduler import _cost_chunk_bounds

        bounds = _cost_chunk_bounds([0.0] * 8, workers=2)
        assert bounds[0][0] == 0 and bounds[-1][1] == 8

    def test_plan_validates_cost_hints(self):
        with pytest.raises(ValueError, match="cost hints"):
            build_plan(sample_task, SETTINGS, seed=1, cost_hints=[1.0])
        with pytest.raises(ValueError, match="positive"):
            build_plan(sample_task, SETTINGS, seed=1, cost_hints=[-1.0] * len(SETTINGS))

    def test_build_plan_auto_detects_task_cost_hint(self):
        plan = build_plan(costed_task, SETTINGS, seed=1)
        assert plan.cost_hints == tuple(float(s["scale"]) for s in SETTINGS)

    def test_explicit_hints_override_task_advertisement(self):
        hints = [2.0] * len(SETTINGS)
        plan = build_plan(costed_task, SETTINGS, seed=1, cost_hints=hints)
        assert plan.cost_hints == tuple(hints)

    def test_cost_hints_never_change_results(self):
        baseline = execute_plan(build_plan(sample_task, SETTINGS, seed=7), workers=1)
        skewed = [1.0] * len(SETTINGS)
        skewed[4] = 10_000.0
        for workers in (1, 3):
            hinted = execute_plan(
                build_plan(sample_task, SETTINGS, seed=7, cost_hints=skewed),
                workers=workers,
            )
            assert hinted == baseline

    def test_explicit_chunk_size_wins_over_hints(self):
        plan = build_plan(sample_task, SETTINGS, seed=7, cost_hints=[5.0] * len(SETTINGS))
        assert execute_plan(plan, workers=2, chunk_size=4) == execute_plan(plan, workers=1)

    def test_engine_map_accepts_cost_hints(self):
        engine = ExecutionEngine(workers=2)
        baseline = engine.map(sample_task, SETTINGS, seed=9)
        hinted = engine.map(
            sample_task, SETTINGS, seed=9, cost_hints=[float(i + 1) for i in range(len(SETTINGS))]
        )
        assert hinted == baseline
