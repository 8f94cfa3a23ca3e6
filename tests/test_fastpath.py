"""Equivalence and contract suite for the fused kernel fast path (ISSUE 5).

Four contracts are pinned here:

1. **Counting-path equivalence** — the linear (bincount scatter-add)
   batched primitives are value-identical to the sort-based (``np.unique``)
   primitives and to the per-row serial primitives, property-tested across
   random ``(R, n, A)`` regimes including marked profiles, empty arrays,
   and single-agent edge cases.
2. **Bit-identity of the backends** — ``backend="fused"`` (and ``"auto"``)
   reproduce ``backend="reference"`` exactly: on the 40 kernel golden
   fixtures (i.e. the pre-refactor serial stream), and across a battery of
   topology x movement x noise x marked x hook configurations in both
   serial and batched mode.
3. **The chunked-RNG stream contract** — for every ``precomputed_steps``
   topology, ``draw_steps``/``apply_steps`` decompose ``step_many``
   bit-identically (same values, same generator state), and
   ``draw_steps_chunk`` row ``k`` equals the ``k``-th sequential draw.
4. **Backend API plumbing** — validation of backend names, the process
   default, and hoisted-validation behaviour for foreign movement models.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.fastpath as fastpath
from repro.core.encounter import (
    batched_collision_counts,
    batched_collision_counts_linear,
    batched_collision_profiles,
    batched_collision_profiles_linear,
    collision_counts,
    linear_counting_is_faster,
    marked_collision_counts,
)
from repro.core.fastpath import build_step_table, run_fused
from repro.core.kernel import (
    KERNEL_BACKENDS,
    RunContext,
    current_run_context,
    run_kernel,
    use_run_context,
)
from repro.core.simulation import SimulationConfig
from repro.obs.telemetry import TelemetryRecorder, use_telemetry
from repro.swarm.noise import NoisyCollisionModel
from repro.topology.bounded_grid import BoundedGrid
from repro.topology.complete import CompleteGraph
from repro.topology.hypercube import Hypercube
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D
from repro.topology.torus_kd import TorusKD
from repro.walks.movement import (
    BiasedTorusWalk,
    CollisionAvoidingWalk,
    LazyRandomWalk,
    MovementModel,
    UniformRandomWalk,
)

GOLDEN_PATH = Path(__file__).parent / "baselines" / "kernel_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

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

#: Every topology declaring the precomputed_steps capability.
CAPABLE_TOPOLOGIES = [
    Torus2D(7),
    Ring(23),
    TorusKD(5, 3),
    Hypercube(6),
    BoundedGrid(6),
    CompleteGraph(19),
]


def _result_fields(outcome):
    return (
        outcome.collision_totals,
        outcome.marked_collision_totals,
        outcome.marked,
        outcome.initial_positions,
        outcome.final_positions,
    )


def assert_outcomes_equal(a, b, context=""):
    for left, right in zip(_result_fields(a), _result_fields(b)):
        assert np.array_equal(left, right), context
    if a.trajectory is None:
        assert b.trajectory is None, context
    else:
        assert np.array_equal(a.trajectory, b.trajectory), context
    if a.marked_trajectory is None:
        assert b.marked_trajectory is None, context
    else:
        assert np.array_equal(a.marked_trajectory, b.marked_trajectory), context


# ----------------------------------------------------------------------
# 1. Counting-path equivalence
# ----------------------------------------------------------------------


class TestCountingEquivalence:
    @given(
        replicates=st.integers(min_value=1, max_value=6),
        agents=st.integers(min_value=1, max_value=60),
        nodes=st.integers(min_value=1, max_value=4000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_linear_equals_sort_equals_per_row(self, replicates, agents, nodes, seed):
        rng = np.random.default_rng(seed)
        positions = rng.integers(0, nodes, size=(replicates, agents))
        sort_counts = batched_collision_counts(positions, nodes)
        linear_counts = batched_collision_counts_linear(positions, nodes)
        assert np.array_equal(sort_counts, linear_counts)
        assert linear_counts.dtype == sort_counts.dtype
        for row in range(replicates):
            assert np.array_equal(linear_counts[row], collision_counts(positions[row]))

    @given(
        replicates=st.integers(min_value=1, max_value=6),
        agents=st.integers(min_value=1, max_value=60),
        nodes=st.integers(min_value=1, max_value=4000),
        marked_fraction=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_linear_profiles_equal_sort_profiles(
        self, replicates, agents, nodes, marked_fraction, seed
    ):
        rng = np.random.default_rng(seed)
        positions = rng.integers(0, nodes, size=(replicates, agents))
        marked = rng.random((replicates, agents)) < marked_fraction
        sort_plain, sort_marked = batched_collision_profiles(positions, marked, nodes)
        linear_plain, linear_marked = batched_collision_profiles_linear(
            positions, marked, nodes
        )
        assert np.array_equal(sort_plain, linear_plain)
        assert np.array_equal(sort_marked, linear_marked)
        for row in range(replicates):
            assert np.array_equal(
                linear_marked[row], marked_collision_counts(positions[row], marked[row])
            )

    def test_empty_arrays(self):
        empty = np.zeros((0, 0), dtype=np.int64)
        assert batched_collision_counts_linear(empty, 10).shape == (0, 0)
        plain, flagged = batched_collision_profiles_linear(
            empty, np.zeros((0, 0), dtype=bool), 10
        )
        assert plain.shape == (0, 0) and flagged.shape == (0, 0)
        zero_agents = np.zeros((3, 0), dtype=np.int64)
        assert batched_collision_counts_linear(zero_agents, 10).shape == (3, 0)

    def test_single_agent_never_collides(self):
        positions = np.array([[4], [4], [0]], dtype=np.int64)
        assert np.array_equal(
            batched_collision_counts_linear(positions, 5), np.zeros((3, 1), dtype=np.int64)
        )

    def test_out_of_range_labels_rejected(self):
        bad = np.array([[0, 7]], dtype=np.int64)
        with pytest.raises(ValueError, match="lie in"):
            batched_collision_counts_linear(bad, 5)
        with pytest.raises(ValueError, match="lie in"):
            batched_collision_profiles_linear(bad, np.zeros((1, 2), dtype=bool), 5)

    def test_mismatched_marked_shape_rejected(self):
        positions = np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(ValueError, match="same shape"):
            batched_collision_profiles_linear(positions, np.zeros((2, 2), dtype=bool), 4)

    def test_heuristic_regimes(self):
        # Dense suite regime: linear. Huge sparse grid: sort. Memory cap: sort.
        assert linear_counting_is_faster(32, 200, 2_304)
        assert not linear_counting_is_faster(32, 50, 262_144)
        assert not linear_counting_is_faster(1, 10_000, 10**9)
        assert not linear_counting_is_faster(0, 0, 10)


# ----------------------------------------------------------------------
# 2. Backend bit-identity
# ----------------------------------------------------------------------


def _golden_config(case) -> SimulationConfig:
    return SimulationConfig(
        num_agents=GOLDEN["num_agents"],
        rounds=GOLDEN["rounds"],
        marked_fraction=case["marked_fraction"],
        collision_model=NOISE_MODELS[case["noise"]],
        movement=MOVEMENTS[case["movement"]],
    )


def _golden_id(case) -> str:
    return (
        f"{case['movement']}-{case['noise']}-marked{case['marked_fraction']}-seed{case['seed']}"
    )


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=_golden_id)
class TestGoldenFixturesOnFusedBackend:
    """The fused backend reproduces the pre-refactor serial stream exactly."""

    def test_serial_fused_matches_golden(self, case):
        outcome = run_kernel(
            Torus2D(GOLDEN["side"]), _golden_config(case), None, case["seed"], backend="fused"
        )
        assert np.array_equal(outcome.collision_totals, np.array(case["collision_totals"]))
        assert np.array_equal(
            outcome.marked_collision_totals, np.array(case["marked_collision_totals"])
        )
        assert np.array_equal(outcome.final_positions, np.array(case["final_positions"]))

    def test_batched_fused_single_replicate_matches_golden(self, case):
        batch = run_kernel(
            Torus2D(GOLDEN["side"]), _golden_config(case), 1, case["seed"], backend="fused"
        )
        outcome = batch.replicate(0)
        assert np.array_equal(outcome.collision_totals, np.array(case["collision_totals"]))
        assert np.array_equal(outcome.final_positions, np.array(case["final_positions"]))


def _battery_cases():
    yield "torus-plain", Torus2D(12), SimulationConfig(num_agents=30, rounds=25)
    yield "torus-marked", Torus2D(12), SimulationConfig(
        num_agents=30, rounds=25, marked_fraction=0.4
    )
    yield "torus-noise", Torus2D(12), SimulationConfig(
        num_agents=30,
        rounds=25,
        collision_model=NoisyCollisionModel(miss_probability=0.2, spurious_rate=0.1),
    )
    yield "torus-trajectory", Torus2D(12), SimulationConfig(
        num_agents=30, rounds=25, marked_fraction=0.3, record_trajectory=True
    )
    yield "torus-lazy", Torus2D(12), SimulationConfig(
        num_agents=30, rounds=25, movement=LazyRandomWalk(stay_probability=0.3)
    )
    yield "torus-biased", Torus2D(12), SimulationConfig(
        num_agents=30, rounds=25, movement=BiasedTorusWalk(bias=0.4)
    )
    yield "torus-avoiding", Torus2D(12), SimulationConfig(
        num_agents=30, rounds=25, movement=CollisionAvoidingWalk(avoidance_steps=1)
    )
    yield "ring", Ring(40), SimulationConfig(num_agents=25, rounds=30)
    yield "ring-sparse", Ring(100_000), SimulationConfig(num_agents=6, rounds=15)
    yield "torus3d", TorusKD(6, 3), SimulationConfig(num_agents=40, rounds=20)
    yield "hypercube", Hypercube(7), SimulationConfig(num_agents=30, rounds=20)
    yield "bounded-grid", BoundedGrid(9), SimulationConfig(num_agents=25, rounds=25)
    yield "complete", CompleteGraph(50), SimulationConfig(num_agents=20, rounds=20)


@pytest.mark.parametrize(
    "name,topology,config", list(_battery_cases()), ids=lambda v: v if isinstance(v, str) else ""
)
class TestBackendBitIdentityBattery:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_serial_modes_identical(self, name, topology, config, seed):
        reference = run_kernel(topology, config, None, seed, backend="reference")
        fused = run_kernel(topology, config, None, seed, backend="fused")
        auto = run_kernel(topology, config, None, seed, backend="auto")
        assert_outcomes_equal(reference, fused, name)
        assert_outcomes_equal(reference, auto, name)

    @pytest.mark.parametrize("replicates", [1, 5])
    def test_batched_modes_identical(self, name, topology, config, replicates):
        reference = run_kernel(topology, config, replicates, 3, backend="reference")
        fused = run_kernel(topology, config, replicates, 3, backend="fused")
        assert_outcomes_equal(reference, fused, name)


class TestHookedBitIdentity:
    """Hooks (dynamics-style churn / topology swaps) re-arm the fast path."""

    @staticmethod
    def _make_hook():
        def hook(state):
            if state.round_index == 2:
                # Density shock: drop the last agent of every replicate.
                state.positions = state.positions[..., :-1]
                state.totals = state.totals[..., :-1]
                state.marked = state.marked[..., :-1]
                state.marked_totals = state.marked_totals[..., :-1]
            elif state.round_index == 4:
                # Environment change: a larger world (labels stay valid).
                state.topology = Torus2D(20)
            elif state.round_index == 6:
                # Hooks may also consume randomness; the stream must agree.
                jitter = state.rng.integers(0, 2, size=state.positions.shape)
                state.positions = (state.positions + jitter) % state.topology.num_nodes

        return hook

    @pytest.mark.parametrize("replicates", [None, 4])
    def test_hooked_run_identical_across_backends(self, replicates):
        results = []
        for backend in ("reference", "fused"):
            config = SimulationConfig(
                num_agents=18, rounds=10, marked_fraction=0.5, round_hook=self._make_hook()
            )
            results.append(run_kernel(Torus2D(12), config, replicates, 11, backend=backend))
        assert_outcomes_equal(results[0], results[1], "hooked")
        assert results[0].num_nodes == results[1].num_nodes == 400

    @pytest.mark.parametrize("backend", ["reference", "fused"])
    def test_hook_receives_fresh_observed_each_round(self, backend):
        seen = []

        def hook(state):
            seen.append(state.observed)

        config = SimulationConfig(num_agents=10, rounds=6, round_hook=hook)
        run_kernel(Torus2D(8), config, 3, 5, backend=backend)
        assert len(seen) == 6
        # The arrays must be distinct objects with stable per-round values
        # (a hook may retain them), so none may alias a reused buffer.
        assert len({id(array) for array in seen}) == 6
        totals = np.zeros_like(seen[0])
        for array in seen:
            totals += array
        expected = run_kernel(
            Torus2D(8),
            SimulationConfig(num_agents=10, rounds=6),
            3,
            5,
            backend=backend,
        ).collision_totals
        assert np.array_equal(totals, expected)


class TestChunkRefillBoundaries:
    def test_many_chunks_still_bit_identical(self, monkeypatch):
        # Force tiny chunks so one run crosses many refill boundaries.
        monkeypatch.setattr(fastpath, "CHUNK_BUDGET_ELEMENTS", 64)
        config = SimulationConfig(num_agents=30, rounds=50)
        fused = run_kernel(Torus2D(10), config, 4, 13, backend="fused")
        reference = run_kernel(Torus2D(10), config, 4, 13, backend="reference")
        assert_outcomes_equal(reference, fused, "chunk refill")


# ----------------------------------------------------------------------
# 3. The chunked-RNG stream contract
# ----------------------------------------------------------------------


@pytest.mark.parametrize("topology", CAPABLE_TOPOLOGIES, ids=lambda t: t.name)
class TestPrecomputedStepsContract:
    def test_declares_capability(self, topology):
        assert topology.precomputed_steps
        assert topology.num_step_choices >= 1

    @pytest.mark.parametrize("shape", [(40,), (3, 17)])
    def test_draw_apply_decomposes_step_many(self, topology, shape):
        placement_rng = np.random.default_rng(1)
        positions = topology.uniform_nodes(shape, placement_rng)
        stepper = np.random.default_rng(5)
        decomposed = np.random.default_rng(5)
        for _ in range(10):
            via_step = topology.step_many(positions, stepper)
            draws = topology.draw_steps(shape, decomposed)
            assert draws.min() >= 0 and draws.max() < topology.num_step_choices
            via_apply = topology.apply_steps(positions, draws)
            assert np.array_equal(via_step, via_apply)
            positions = via_step
        # Both generators must be in the same state afterwards.
        assert stepper.integers(0, 2**62) == decomposed.integers(0, 2**62)

    def test_chunked_draw_matches_sequential(self, topology):
        chunked = np.random.default_rng(9)
        sequential = np.random.default_rng(9)
        chunk = topology.draw_steps_chunk(7, (4, 11), chunked)
        assert chunk.shape == (7, 4, 11)
        for k in range(7):
            assert np.array_equal(chunk[k], topology.draw_steps((4, 11), sequential))
        assert chunked.integers(0, 2**62) == sequential.integers(0, 2**62)

    def test_step_table_tabulates_apply_steps(self, topology):
        table = build_step_table(topology)
        if table is None:
            pytest.skip("table over budget for this topology")
        choices = topology.num_step_choices
        nodes = np.arange(topology.num_nodes, dtype=np.int64)
        for choice in range(choices):
            expected = topology.apply_steps(nodes, np.full_like(nodes, choice))
            assert np.array_equal(table[nodes * choices + choice], expected)


class TestTableBudget:
    def test_budget_refuses_oversized_tables(self, monkeypatch):
        monkeypatch.setattr(fastpath, "TABLE_BUDGET_ELEMENTS", 10)
        assert build_step_table(Torus2D(8)) is None

    @staticmethod
    def armings(run) -> list[dict]:
        recorder = TelemetryRecorder(level="events")
        with use_telemetry(recorder):
            run()
        return [event for event in recorder.events() if event["event"] == "fastpath.armed"]

    def test_small_serial_runs_build_the_table(self):
        """E01 quick: three (1, 104) Torus2D(32) calls of 25, 50 and 100 rounds,
        where a round's call overhead outweighs its 104 elements."""
        from repro.experiments import run_experiment

        armed = self.armings(lambda: run_experiment("E01", quick=True))
        shapes = [(event["rows"], event["agents"], event["num_nodes"]) for event in armed]
        assert shapes == [(1, 104, 1024)] * 3
        assert [event["displacement_table"] for event in armed] == [True] * 3

    def test_a_rearm_on_the_same_topology_keeps_the_table(self, monkeypatch):
        """crash --quick re-arms at mid-run with 4 x 24 agents on 256 nodes and
        40 rounds left; it keeps the table its first arming built."""
        from repro.dynamics import build_scenario, track_scenario_batch

        builds = []
        real_build = fastpath.build_step_table
        monkeypatch.setattr(
            fastpath, "build_step_table", lambda topology: builds.append(topology) or real_build(topology)
        )
        armed = self.armings(lambda: track_scenario_batch(build_scenario("crash", quick=True), 4, 0))
        assert [(event["reason"], event["rows"], event["agents"]) for event in armed] == [
            ("initial", 4, 60),
            ("round_hook", 4, 24),
        ]
        assert [event["displacement_table"] for event in armed] == [True, True]
        assert len(builds) == 1

    def test_a_near_budget_topology_run_for_a_few_rounds_skips_the_table(self):
        topology = Torus2D(1024)
        assert topology.num_nodes * topology.num_step_choices == fastpath.TABLE_BUDGET_ELEMENTS
        armed = self.armings(
            lambda: run_kernel(topology, SimulationConfig(num_agents=64, rounds=5), 4, 0)
        )
        assert [event["displacement_table"] for event in armed] == [False]

    def test_no_capability_no_table(self):
        import networkx as nx

        from repro.topology.graph import NetworkXTopology

        topology = NetworkXTopology(nx.cycle_graph(10))
        assert not topology.precomputed_steps
        assert build_step_table(topology) is None


# ----------------------------------------------------------------------
# 4. Backend API plumbing
# ----------------------------------------------------------------------


class TestBackendAPI:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            run_kernel(Torus2D(5), SimulationConfig(num_agents=3, rounds=2), None, 0, backend="turbo")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            RunContext("turbo")

    def test_default_backend_is_auto(self):
        assert RunContext().backend == "auto"
        assert current_run_context() == RunContext()

    def test_none_resolves_to_installed_context(self, monkeypatch):
        # Under a "reference" context, backend=None must not take the fused
        # path: make fused unreachable and compare with the explicit call.
        def unreachable(*args, **kwargs):
            raise AssertionError("backend=None took the fused path")

        monkeypatch.setattr(fastpath, "run_fused", unreachable)
        config = SimulationConfig(num_agents=6, rounds=3)
        with use_run_context(RunContext("reference")):
            outcome = run_kernel(Torus2D(6), config, None, 2)
        explicit = run_kernel(Torus2D(6), config, None, 2, backend="reference")
        assert np.array_equal(outcome.collision_totals, explicit.collision_totals)

    def test_backends_exported_from_engine(self):
        import repro.engine as engine

        assert engine.KERNEL_BACKENDS == KERNEL_BACKENDS

    def test_run_fused_importable_and_direct(self):
        config = SimulationConfig(num_agents=6, rounds=3)
        outcome = run_fused(Torus2D(6), config, None, 1)
        reference = run_kernel(Torus2D(6), config, None, 1, backend="reference")
        assert np.array_equal(outcome.collision_totals, reference.collision_totals)


class TestPlacementArrayOwnership:
    """A placement callable may retain and reuse the array it returns; the
    in-place stepping of the fused backend must never corrupt it."""

    @pytest.mark.parametrize("backend", ["reference", "fused"])
    def test_caller_placement_array_never_mutated(self, backend):
        retained = np.arange(40, dtype=np.int64) % 256  # valid Torus2D(16) labels
        snapshot = retained.copy()

        def placement(topology, count, rng):
            return retained

        # Enough rounds that the fused backend arms its displacement table
        # (the in-place stepping path).
        config = SimulationConfig(num_agents=40, rounds=600, placement=placement)
        first = run_kernel(Torus2D(16), config, None, 0, backend=backend)
        assert np.array_equal(retained, snapshot), backend
        second = run_kernel(Torus2D(16), config, None, 0, backend=backend)
        assert np.array_equal(first.collision_totals, second.collision_totals)

    def test_repeated_trials_with_retained_placement_bit_identical(self):
        retained = (np.arange(40, dtype=np.int64) * 7) % 256

        def placement(topology, count, rng):
            return retained

        config = SimulationConfig(num_agents=40, rounds=600, placement=placement)
        outcomes = {
            backend: [
                run_kernel(Torus2D(16), config, None, seed, backend=backend)
                for seed in (0, 1)
            ]
            for backend in ("reference", "fused")
        }
        for trial in range(2):
            assert np.array_equal(
                outcomes["reference"][trial].collision_totals,
                outcomes["fused"][trial].collision_totals,
            ), f"trial {trial}"


class TestHoistedValidation:
    class _EscapingWalk(MovementModel):
        """A foreign model that walks agents off the label range."""

        name = "escaping_walk"
        batch_safe = True  # it is elementwise — just wrong

        def step(self, topology, positions, rng):
            return np.asarray(positions, dtype=np.int64) + topology.num_nodes

    @pytest.mark.parametrize("backend", ["reference", "fused"])
    def test_foreign_movement_model_still_validated_per_round(self, backend):
        config = SimulationConfig(num_agents=5, rounds=3, movement=self._EscapingWalk())
        with pytest.raises(ValueError, match="lie in"):
            run_kernel(Torus2D(5), config, 2, 0, backend=backend)
        with pytest.raises(ValueError, match="lie in"):
            run_kernel(Torus2D(5), config, None, 0, backend=backend)

    def test_catalog_models_declare_valid_nodes(self):
        for model in MOVEMENTS.values():
            if model is not None:
                assert model.emits_valid_nodes, model.name

    def test_only_delegating_models_declare_precomputed_steps(self):
        assert UniformRandomWalk().precomputed_steps
        for model in (
            LazyRandomWalk(stay_probability=0.2),
            BiasedTorusWalk(bias=0.1),
            CollisionAvoidingWalk(avoidance_steps=1),
        ):
            # These draw their own randomness interleaved with the
            # topology's; chunked drawing would reorder the stream.
            assert not model.precomputed_steps, model.name
