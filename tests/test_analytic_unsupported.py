"""Negative paths of the analytic backend: every unsupported combo fails loudly.

The analytic engine returns exact laws, so anything it cannot solve must
raise :class:`AnalyticUnsupportedError` *naming the offending ingredient* —
never fall back to simulation and never return silently-wrong expectations.
This suite walks the catalog: irregular topologies, non-uniform movement
models, noisy observation, dynamic hooks, custom placement, marked
subpopulations, trajectory recording, the sparse-size budget, and the same
failures surfaced through the CLI (exit 2, clean ``error:`` line, no
traceback).
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.cli import main
from repro.core.analytic import (
    AnalyticUnsupportedError,
    ensure_analytic_supported,
    meeting_probabilities,
    run_analytic,
    solve,
    transition_matrix,
)
from repro.core.kernel import run_kernel
from repro.core.simulation import SimulationConfig
from repro.swarm.noise import NoisyCollisionModel
from repro.topology.bounded_grid import BoundedGrid
from repro.topology.expander import RegularExpander
from repro.topology.graph import NetworkXTopology
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D
from repro.walks.movement import (
    BiasedTorusWalk,
    CollisionAvoidingWalk,
    LazyRandomWalk,
    UniformRandomWalk,
)

CONFIG = SimulationConfig(num_agents=8, rounds=10)
TORUS = Torus2D(8)


def _uniform_placement(topology, count, rng):
    return rng.integers(0, topology.num_nodes, size=count)


class TestUnsupportedTopologies:
    UNSUPPORTED = [
        BoundedGrid(8),
        RegularExpander(16, degree=4, seed=0),
        NetworkXTopology(nx.path_graph(6), name="path6"),
    ]

    @pytest.mark.parametrize("topology", UNSUPPORTED, ids=lambda t: t.name)
    def test_ensure_names_the_topology(self, topology):
        with pytest.raises(AnalyticUnsupportedError) as excinfo:
            ensure_analytic_supported(topology, CONFIG)
        assert topology.name in str(excinfo.value)
        assert "topology" in str(excinfo.value)

    @pytest.mark.parametrize("topology", UNSUPPORTED, ids=lambda t: t.name)
    def test_run_kernel_raises_before_any_simulation(self, topology):
        with pytest.raises(AnalyticUnsupportedError, match="topolog"):
            run_kernel(topology, CONFIG, 4, 0, backend="analytic")

    @pytest.mark.parametrize("topology", UNSUPPORTED, ids=lambda t: t.name)
    def test_transition_matrix_refuses_too(self, topology):
        with pytest.raises(AnalyticUnsupportedError, match="transition structure"):
            transition_matrix(topology)


class TestUnsupportedMovementModels:
    MODELS = [LazyRandomWalk(), BiasedTorusWalk(), CollisionAvoidingWalk()]

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_named_in_the_error(self, model):
        config = SimulationConfig(num_agents=8, rounds=10, movement=model)
        with pytest.raises(AnalyticUnsupportedError) as excinfo:
            run_analytic(TORUS, config)
        assert model.name in str(excinfo.value)
        assert "movement" in str(excinfo.value)

    def test_uniform_walk_is_allowed(self):
        # movement=UniformRandomWalk() is the walk the math describes; it
        # declares precomputed_steps=True and must not trip the check.
        config = SimulationConfig(num_agents=8, rounds=10, movement=UniformRandomWalk())
        ensure_analytic_supported(TORUS, config)
        assert run_analytic(TORUS, config).metadata["backend"] == "analytic"


class TestUnsupportedObservation:
    def test_noisy_collision_model_is_rejected(self):
        config = SimulationConfig(
            num_agents=8, rounds=10, collision_model=NoisyCollisionModel(miss_probability=0.2)
        )
        with pytest.raises(AnalyticUnsupportedError, match="collision model"):
            run_analytic(TORUS, config)

    def test_noiseless_instance_is_allowed(self):
        # A NoisyCollisionModel with zero noise is the identity observation;
        # the check keys on is_noiseless, not on the type.
        config = SimulationConfig(
            num_agents=8, rounds=10, collision_model=NoisyCollisionModel()
        )
        ensure_analytic_supported(TORUS, config)
        assert run_analytic(TORUS, config).metadata["backend"] == "analytic"


class TestUnsupportedConfigFlags:
    def test_round_hook(self):
        config = SimulationConfig(
            num_agents=8, rounds=10, round_hook=lambda state: None
        )
        with pytest.raises(AnalyticUnsupportedError, match="round_hook"):
            ensure_analytic_supported(TORUS, config)

    def test_custom_placement(self):
        config = SimulationConfig(num_agents=8, rounds=10, placement=_uniform_placement)
        with pytest.raises(AnalyticUnsupportedError, match="placement"):
            ensure_analytic_supported(TORUS, config)
        assert "_uniform_placement" in _error_text(TORUS, config)

    def test_marked_fraction(self):
        config = SimulationConfig(num_agents=8, rounds=10, marked_fraction=0.25)
        with pytest.raises(AnalyticUnsupportedError, match="marked_fraction"):
            ensure_analytic_supported(TORUS, config)

    def test_record_trajectory(self):
        config = SimulationConfig(num_agents=8, rounds=10, record_trajectory=True)
        with pytest.raises(AnalyticUnsupportedError, match="record_trajectory"):
            ensure_analytic_supported(TORUS, config)


def _error_text(topology, config) -> str:
    with pytest.raises(AnalyticUnsupportedError) as excinfo:
        ensure_analytic_supported(topology, config)
    return str(excinfo.value)


class TestSparseBudget:
    def test_oversized_ring_trips_the_transition_budget(self):
        # Ring(2**24) needs 2**25 sparse entries — over MAX_TRANSITION_NNZ.
        # The capability check passes (Ring is supported); the budget guard
        # fires before any allocation happens.
        huge = Ring(1 << 24)
        ensure_analytic_supported(huge, CONFIG)
        with pytest.raises(AnalyticUnsupportedError, match="budget"):
            meeting_probabilities(huge, 4)
        with pytest.raises(AnalyticUnsupportedError, match="budget"):
            solve(huge, SimulationConfig(num_agents=8, rounds=4))


class TestCliNegativePaths:
    """`--backend analytic` on an unsolvable workload: exit 2, clean message."""

    @pytest.mark.parametrize(
        ("argv", "needle"),
        [
            # E20 compares the torus against the non-transitive bounded grid.
            (["run", "E20", "--quick", "--backend", "analytic"], "topology"),
            # E14 sweeps noisy observation models.
            (["run", "E14", "--quick", "--backend", "analytic"], "collision model"),
            # E19 ablates non-uniform movement models.
            (["run", "E19", "--quick", "--backend", "analytic"], "movement"),
            # E21's adaptive phases resume from the previous phase's positions.
            (["run", "E21", "--quick", "--backend", "analytic"], "resume_placement"),
            # Dynamic scenarios drive the simulation through a round hook.
            (
                ["scenario", "run", "--scenario", "crash", "--quick", "--backend", "analytic"],
                "round_hook",
            ),
        ],
        ids=["e20-topology", "e14-noise", "e19-movement", "e21-adaptive", "scenario-hook"],
    )
    def test_exit_2_with_named_offender_and_no_traceback(self, capsys, argv, needle):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "backend='analytic' does not support" in captured.err
        assert needle in captured.err
        assert "Traceback" not in captured.err
        assert "Traceback" not in captured.out

    def test_supported_experiment_still_exits_0(self, capsys):
        assert main(["run", "E01", "--quick", "--backend", "analytic"]) == 0
        assert "error:" not in capsys.readouterr().err


class TestNoSilentFallback:
    def test_unsupported_never_returns_a_result(self):
        # The contract: raise, never quietly delegate to a simulating
        # backend. A delegation bug would return a result object here.
        config = SimulationConfig(num_agents=8, rounds=10, movement=LazyRandomWalk())
        for replicates in (None, 4):
            with pytest.raises(AnalyticUnsupportedError):
                run_kernel(TORUS, config, replicates, 0, backend="analytic")

    def test_error_is_a_value_error(self):
        # _guarded in the CLI catches ValueError; the subclass relationship
        # is what turns these into clean exit-2 messages.
        assert issubclass(AnalyticUnsupportedError, ValueError)

    def test_seed_sequence_argument_does_not_mask_errors(self):
        with pytest.raises(AnalyticUnsupportedError):
            run_analytic(
                BoundedGrid(6), CONFIG, replicates=2, seed=np.random.SeedSequence(0)
            )
