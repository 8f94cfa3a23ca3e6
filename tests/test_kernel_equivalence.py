"""Equivalence suite for the unified simulation kernel (ISSUE 4 tentpole).

Three contracts are pinned here:

1. **Golden-fixture bit-identity** — the serial kernel
   (``run_kernel(..., None, ...)``) and the batched kernel at ``R = 1``
   reproduce the random stream of the
   *pre-refactor* serial loop exactly, for every catalog movement model x
   collision/noise model combination. The fixtures in
   ``tests/baselines/kernel_golden.json`` were generated from the old loop
   before it was deleted; see ``tests/baselines/regenerate_kernel_golden.py``.
2. **Batch safety of the whole catalog** — every movement and noise model
   declares ``batch_safe = True`` (the collision-avoiding walk was the last
   scheduler-only model), and the kernel's single capability check rejects
   foreign models with an error naming them.
3. **Worker-count invariance of migrated experiments** — newly migrated
   experiments produce bit-identical records for ``workers=1`` and
   ``workers=4``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.kernel import BatchSimulationResult, require_batch_safe, run_kernel
from repro.core.simulation import SimulationConfig
from repro.engine import ExecutionEngine
from repro.experiments import run_experiment
from repro.swarm.noise import NoisyCollisionModel
from repro.topology.torus import Torus2D
from repro.walks.movement import (
    BiasedTorusWalk,
    CollisionAvoidingWalk,
    LazyRandomWalk,
    MovementModel,
    UniformRandomWalk,
)

GOLDEN_PATH = Path(__file__).parent / "baselines" / "kernel_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: Name -> model maps mirroring the fixture generator.
MOVEMENTS = {
    "default": None,
    "uniform_random_walk": UniformRandomWalk(),
    "lazy_random_walk": LazyRandomWalk(stay_probability=0.4),
    "biased_torus_walk": BiasedTorusWalk(bias=0.3),
    "collision_avoiding_walk": CollisionAvoidingWalk(avoidance_steps=2),
}
NOISE_MODELS = {
    "noiseless": None,
    "noisy": NoisyCollisionModel(miss_probability=0.3, spurious_rate=0.1),
}


def _config(case) -> SimulationConfig:
    return SimulationConfig(
        num_agents=GOLDEN["num_agents"],
        rounds=GOLDEN["rounds"],
        marked_fraction=case["marked_fraction"],
        collision_model=NOISE_MODELS[case["noise"]],
        movement=MOVEMENTS[case["movement"]],
    )


def _check(outcome, case) -> None:
    assert np.array_equal(outcome.collision_totals, np.array(case["collision_totals"]))
    assert np.array_equal(
        outcome.marked_collision_totals, np.array(case["marked_collision_totals"])
    )
    assert np.array_equal(outcome.marked, np.array(case["marked"], dtype=bool))
    assert np.array_equal(outcome.initial_positions, np.array(case["initial_positions"]))
    assert np.array_equal(outcome.final_positions, np.array(case["final_positions"]))


def _case_id(case) -> str:
    return (
        f"{case['movement']}-{case['noise']}-marked{case['marked_fraction']}-seed{case['seed']}"
    )


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=_case_id)
class TestGoldenFixtures:
    """Every catalog movement x noise combination, pinned to the old stream."""

    def test_serial_kernel_matches_pre_refactor_stream(self, case):
        outcome = run_kernel(Torus2D(GOLDEN["side"]), _config(case), None, case["seed"])
        _check(outcome, case)

    def test_batched_kernel_single_replicate_matches(self, case):
        batch = run_kernel(Torus2D(GOLDEN["side"]), _config(case), 1, case["seed"])
        assert isinstance(batch, BatchSimulationResult)
        _check(batch.replicate(0), case)


class TestCatalogBatchSafety:
    def test_every_catalog_movement_model_is_batch_safe(self):
        for model in MOVEMENTS.values():
            if model is not None:
                assert model.batch_safe, model.name
                require_batch_safe(model, "movement model")  # must not raise

    def test_every_catalog_noise_model_is_batch_safe(self):
        model = NoisyCollisionModel(miss_probability=0.2, spurious_rate=0.1)
        assert model.batch_safe
        require_batch_safe(model, "collision model")  # must not raise

    def test_require_batch_safe_names_the_offender(self):
        class OpaqueModel:
            name = "opaque_model"

        with pytest.raises(ValueError, match="opaque_model"):
            require_batch_safe(OpaqueModel(), "movement model")
        # Unnamed models fall back to the class name.
        with pytest.raises(ValueError, match="object"):
            require_batch_safe(object(), "collision model")

    def test_require_batch_safe_exported_from_engine(self):
        import repro.engine as engine

        assert engine.require_batch_safe is require_batch_safe

    def test_kernel_serial_mode_accepts_any_model(self):
        # With a single replicate set there is nothing to leak into, so
        # serial mode must keep accepting models without batch_safe — the
        # historical serial-loop contract.
        class OpaqueWalk(MovementModel):
            name = "opaque_walk"
            batch_safe = False

            def step(self, topology, positions, rng):
                return topology.step_many(positions, rng)

        config = SimulationConfig(num_agents=5, rounds=3, movement=OpaqueWalk())
        outcome = run_kernel(Torus2D(5), config, None, seed=0)
        assert outcome.collision_totals.shape == (5,)
        with pytest.raises(ValueError, match="opaque_walk"):
            run_kernel(Torus2D(5), config, 2, seed=0)


class TestCollisionAvoidingWalkVectorization:
    def test_single_row_matches_serial_semantics(self):
        # A (1, n) replicate row must consume the stream exactly like the
        # historical 1-D step (this is what makes R=1 bit-identical).
        model = CollisionAvoidingWalk(avoidance_steps=2)
        topology = Torus2D(6)
        positions = np.array([0, 0, 7, 12, 12, 30], dtype=np.int64)
        serial = model.step(topology, positions, np.random.default_rng(5))
        row = model.step(topology, positions[None, :], np.random.default_rng(5))
        assert row.shape == (1, positions.size)
        assert np.array_equal(serial, row[0])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_collision_mask_is_evaluated_per_replicate(self, seed):
        # Row 0 is one big pile-up (everyone flees: extra steps allowed);
        # row 1 shares the same node labels but is collision-free, so its
        # agents must take *exactly one* step. A mask computed over the
        # flattened matrix would see row 1's agents as colliding (same
        # labels as row 0) and let them flee to distance 2 or back to 0.
        model = CollisionAvoidingWalk(avoidance_steps=1)
        topology = Torus2D(8)
        crowded = np.zeros(4, dtype=np.int64)
        spread = np.array([0, 10, 20, 30], dtype=np.int64)
        positions = np.stack([crowded, spread])
        moved = model.step(topology, positions, np.random.default_rng(seed))

        def torus_distance(a, b):
            ax, ay = topology.decode(a)
            bx, by = topology.decode(b)
            dx = np.minimum((ax - bx) % 8, (bx - ax) % 8)
            dy = np.minimum((ay - by) % 8, (by - ay) % 8)
            return dx + dy

        assert np.all(torus_distance(spread, moved[1]) == 1)


class TestMigratedExperimentsWorkerInvariance:
    """ISSUE 4 satellite: workers-1-vs-4 record equality for newly migrated
    experiments (one scheduler-mapped, two batched-cell migrations)."""

    @pytest.mark.parametrize("experiment_id", ["E14", "E19", "E03"])
    def test_records_identical_across_worker_counts(self, experiment_id):
        serial = run_experiment(
            experiment_id, quick=True, seed=2, engine=ExecutionEngine(workers=1)
        )
        parallel = run_experiment(
            experiment_id, quick=True, seed=2, engine=ExecutionEngine(workers=4)
        )
        assert json.dumps(serial.records, default=str) == json.dumps(
            parallel.records, default=str
        )
        assert serial.notes == parallel.notes


class TestEngineForwardingGuard:
    """ISSUE 4 satellite: run_all fails fast when an experiment ignores engine=."""

    def test_run_all_rejects_engine_oblivious_experiment(self, monkeypatch):
        import repro.experiments as experiments

        class LegacyModule:
            __name__ = "repro.experiments.legacy"

            @staticmethod
            def run(config=None, seed=0):  # no engine parameter
                raise AssertionError("must not be reached")

        class LegacyConfig:
            @classmethod
            def quick(cls):
                return cls()

        registry = dict(experiments.EXPERIMENTS)
        registry["E99"] = (LegacyModule, LegacyConfig)
        monkeypatch.setattr(experiments, "EXPERIMENTS", registry)
        with pytest.raises(TypeError, match="E99"):
            experiments.run_all(quick=True, seed=0)

    def test_every_registered_experiment_accepts_engine(self):
        import inspect

        from repro.experiments import EXPERIMENTS

        for key, (module, _) in EXPERIMENTS.items():
            assert "engine" in inspect.signature(module.run).parameters, key


class TestNoLegacyTrialLoopsInExperiments:
    """Mirror of the CI grep gate: experiment modules must stay on the engine."""

    def test_no_direct_trial_loop_primitives(self):
        import repro.experiments as experiments

        root = Path(experiments.__file__).parent
        offenders = []
        for path in sorted(root.glob("*.py")):
            text = path.read_text()
            if "spawn_generators" in text or "RandomWalkDensityEstimator" in text:
                offenders.append(path.name)
        assert offenders == [], (
            "experiments must route trials through the engine (ExecutionPlan "
            f"cells or the batched kernel); offenders: {offenders}"
        )
