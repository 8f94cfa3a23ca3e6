"""Invariance and contract suite for intra-kernel sharding (ISSUE 9).

Four contracts are pinned here:

1. **K-invariance** — ``run_kernel(..., shard_workers=K)`` is bit-identical
   to ``shard_workers=1`` for every ``K``, property-tested across random
   ``(R, n, rounds, seed)`` draws and exercised over the full topology
   catalog, the movement-model catalog, marked profiles, observation
   noise, and trajectory recording. Per-replicate SeedSequence children
   make every row a pure function of its row index, never of the
   partition.
2. **Fallbacks never diverge** — ``round_hook`` configs and serial mode
   (``replicates=None``) fall back to the unsharded fused loop for every
   ``K`` (a hook observes the whole live matrix; sharding it would change
   semantics), and telemetry counts each fallback with its reason. Every
   ``fastpath.*`` counter of a sharded call is the same for every ``K``.
3. **The per-row discipline itself** — ``K = 1, 2, 3`` reproduce
   ``tests/baselines/shard_golden.json`` byte for byte, at the default
   chunk budget and with a budget so small that every chunked run takes
   three or more refills and a short last one. K-invariance alone would
   not notice a rewrite that changed every row's stream the same way.
4. **Blocked linear counting** — when the linear counting buffer exceeds
   its memory budget, the fused loop chunks the ``R x A`` offset-label
   space in row blocks instead of falling back to the sort path;
   :func:`~repro.core.encounter.linear_counting_block_rows` picks the
   block height and the blocked results stay bit-identical to the
   reference backend (labels never cross row blocks).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.encounter as encounter
import repro.core.fastpath as fastpath
from repro.core.encounter import linear_counting_block_rows
from repro.core.fastpath import run_fused
from repro.core.kernel import RunContext, run_kernel, use_run_context
from repro.core.shardpath import shard_bounds
from repro.core.simulation import SimulationConfig
from repro.obs.telemetry import TelemetryRecorder, use_telemetry
from repro.swarm.noise import NoisyCollisionModel
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D
from repro.walks.movement import (
    BiasedTorusWalk,
    CollisionAvoidingWalk,
    LazyRandomWalk,
    UniformRandomWalk,
)

SHARD_COUNTS = (2, 3, 7)

BASELINES = Path(__file__).parent / "baselines"
SHARD_GOLDEN = json.loads((BASELINES / "shard_golden.json").read_text())


def _load_golden_generator():
    """The fixture's generator module: its case builder and digest are the spec."""
    path = BASELINES / "regenerate_shard_golden.py"
    spec = importlib.util.spec_from_file_location("regenerate_shard_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden_generator = _load_golden_generator()


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
    for field in ("trajectory", "marked_trajectory"):
        left, right = getattr(a, field), getattr(b, field)
        if left is None:
            assert right is None, context
        else:
            assert np.array_equal(left, right), context


# ----------------------------------------------------------------------
# 1. K-invariance
# ----------------------------------------------------------------------


class TestShardBounds:
    @given(
        replicates=st.integers(min_value=1, max_value=200),
        shards=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounds_partition_the_rows(self, replicates, shards):
        bounds = shard_bounds(replicates, shards)
        assert len(bounds) == min(shards, replicates)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == replicates
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo
        sizes = [hi - lo for lo, hi in bounds]
        assert all(size >= 1 for size in sizes)
        assert max(sizes) - min(sizes) <= 1

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            shard_bounds(0, 2)
        with pytest.raises(ValueError):
            shard_bounds(8, 0)


class TestKInvariance:
    @given(
        replicates=st.integers(min_value=1, max_value=14),
        shard_workers=st.integers(min_value=2, max_value=9),
        rounds=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        marked=st.booleans(),
        noisy=st.booleans(),
        record=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_shard_count_matches_single_shard(
        self, replicates, shard_workers, rounds, seed, marked, noisy, record
    ):
        topology = Torus2D(8)
        config = SimulationConfig(
            num_agents=9,
            rounds=rounds,
            marked_fraction=0.4 if marked else 0.0,
            collision_model=(
                NoisyCollisionModel(miss_probability=0.25, spurious_rate=0.1)
                if noisy
                else None
            ),
            record_trajectory=record,
        )
        baseline = run_kernel(topology, config, replicates, seed, shard_workers=1)
        sharded = run_kernel(topology, config, replicates, seed, shard_workers=shard_workers)
        assert_outcomes_equal(
            baseline, sharded, f"shard_workers={shard_workers} diverged from 1"
        )

    @pytest.mark.parametrize("shard_workers", SHARD_COUNTS)
    def test_topology_catalog_invariant(self, regular_topology, shard_workers):
        config = SimulationConfig(num_agents=12, rounds=20, marked_fraction=0.3)
        baseline = run_kernel(regular_topology, config, 11, seed=5, shard_workers=1)
        sharded = run_kernel(
            regular_topology, config, 11, seed=5, shard_workers=shard_workers
        )
        assert_outcomes_equal(baseline, sharded, type(regular_topology).__name__)

    @pytest.mark.parametrize(
        "movement",
        [
            UniformRandomWalk(),
            LazyRandomWalk(stay_probability=0.4),
            BiasedTorusWalk(bias=0.3),
            CollisionAvoidingWalk(avoidance_steps=2),
        ],
        ids=lambda m: type(m).__name__,
    )
    def test_movement_models_invariant(self, movement):
        topology = Torus2D(9)
        config = SimulationConfig(num_agents=15, rounds=18, movement=movement)
        baseline = run_kernel(topology, config, 10, seed=3, shard_workers=1)
        for shard_workers in SHARD_COUNTS:
            sharded = run_kernel(topology, config, 10, seed=3, shard_workers=shard_workers)
            assert_outcomes_equal(baseline, sharded, type(movement).__name__)

    def test_more_shards_than_replicates(self):
        topology = Ring(40)
        config = SimulationConfig(num_agents=8, rounds=10)
        baseline = run_kernel(topology, config, 3, seed=0, shard_workers=1)
        oversubscribed = run_kernel(topology, config, 3, seed=0, shard_workers=64)
        assert_outcomes_equal(baseline, oversubscribed)

    def test_deterministic_given_seed_and_distinct_across_seeds(self):
        topology = Torus2D(8)
        config = SimulationConfig(num_agents=10, rounds=15)
        first = run_kernel(topology, config, 6, seed=11, shard_workers=3)
        second = run_kernel(topology, config, 6, seed=11, shard_workers=3)
        assert_outcomes_equal(first, second)
        other = run_kernel(topology, config, 6, seed=12, shard_workers=3)
        assert not np.array_equal(other.initial_positions, first.initial_positions)

    def test_sharded_discipline_differs_from_shared_stream(self):
        # Not an accident to preserve: sharded runs reseed per replicate
        # row, so they are *expected* to differ from the unsharded shared
        # stream (this is why the serve cache key folds the discipline in).
        topology = Torus2D(8)
        config = SimulationConfig(num_agents=10, rounds=15)
        sharded = run_kernel(topology, config, 6, seed=11, shard_workers=1)
        unsharded = run_kernel(topology, config, 6, seed=11)
        assert not np.array_equal(sharded.initial_positions, unsharded.initial_positions)


# ----------------------------------------------------------------------
# 2. Fallbacks
# ----------------------------------------------------------------------


class TestFallbacks:
    @staticmethod
    def _hook_config():
        def hook(state):
            # Deterministic cross-matrix mutation: the inherently
            # unshardable case.
            state.positions[...] = np.roll(state.positions, 1, axis=-1)

        return SimulationConfig(num_agents=10, rounds=12, round_hook=hook)

    def test_hooked_runs_identical_for_every_shard_count(self):
        topology = Torus2D(8)
        config = self._hook_config()
        unsharded = run_fused(topology, config, 7, seed=2)
        for shard_workers in (1,) + SHARD_COUNTS:
            sharded = run_kernel(topology, config, 7, seed=2, shard_workers=shard_workers)
            assert_outcomes_equal(
                unsharded, sharded, f"hooked run diverged at shard_workers={shard_workers}"
            )

    def test_serial_mode_falls_back(self):
        topology = Torus2D(8)
        config = SimulationConfig(num_agents=10, rounds=12)
        serial = run_fused(topology, config, None, seed=4)
        sharded = run_kernel(topology, config, None, seed=4, shard_workers=4)
        assert_outcomes_equal(serial, sharded)

    @pytest.mark.parametrize(
        "replicates, reason", [(None, "serial"), (5, "round_hook")]
    )
    def test_fallbacks_are_counted(self, replicates, reason):
        topology = Torus2D(8)
        config = (
            self._hook_config()
            if reason == "round_hook"
            else SimulationConfig(num_agents=10, rounds=5)
        )
        recorder = TelemetryRecorder(level="events")
        with use_telemetry(recorder):
            run_kernel(topology, config, replicates, seed=0, shard_workers=3)
        counters = recorder.summary()["counters"]
        assert counters.get(f"shardpath.fallbacks[reason={reason}]") == 1

    def test_sharded_run_emits_merge_telemetry(self):
        topology = Torus2D(8)
        config = SimulationConfig(num_agents=10, rounds=5)
        recorder = TelemetryRecorder(level="events")
        with use_telemetry(recorder):
            run_kernel(topology, config, 9, seed=0, shard_workers=3)
        counters = recorder.summary()["counters"]
        assert counters.get("shardpath.runs") == 1
        assert counters.get("shardpath.shards") == 3
        assert counters.get("shardpath.merged_rows") == 9
        merged = [e for e in recorder.events() if e["event"] == "shardpath.merged"]
        assert len(merged) == 1 and merged[0]["shards"] == 3

    @pytest.mark.parametrize("noisy", [False, True], ids=["chunked", "noisy"])
    def test_fastpath_telemetry_identical_for_every_shard_count(self, monkeypatch, noisy):
        # Shard threads run the fused loop, so they time its phases; the call
        # reports armings and refills once, so no fastpath.* counter scales with K.
        topology = Torus2D(8)
        config = SimulationConfig(
            num_agents=10,
            rounds=7,
            marked_fraction=0.3,
            collision_model=NoisyCollisionModel(miss_probability=0.2) if noisy else None,
        )
        monkeypatch.setattr(fastpath, "CHUNK_BUDGET_ELEMENTS", 3 * 9 * 10)
        observed = []
        for shard_workers in (1, 2, 3):
            recorder = TelemetryRecorder(level="events")
            with use_telemetry(recorder):
                run_kernel(topology, config, 9, seed=0, shard_workers=shard_workers)
            summary = recorder.summary()
            counters = {
                key: value
                for key, value in summary["counters"].items()
                if key.startswith("fastpath.")
            }
            events = [
                {key: value for key, value in event.items() if key not in ("seq", "t")}
                for event in recorder.events()
                if event["event"].startswith("fastpath.")
            ]
            for phase in ("draw", "step", "count", "observe"):
                assert summary["timers"][f"fastpath.{phase}_seconds"]["count"] == 1
            assert summary["counters"]["shardpath.shards"] == shard_workers
            observed.append((counters, events))
        assert observed[0] == observed[1] == observed[2]
        counters, events = observed[0]
        assert counters["fastpath.counting_path[path=bincount]"] == 1
        assert counters.get("fastpath.chunk_refills", 0) == (0 if noisy else 3)
        assert all(event["span"] == "shardpath" for event in events)
        assert events[0]["event"] == "fastpath.armed" and events[0]["rows"] == 9


# ----------------------------------------------------------------------
# 3. The per-row discipline itself
# ----------------------------------------------------------------------


def _golden_case_id(case) -> str:
    return (
        f"{case['topology']}-{case['movement']}-{case['noise']}-"
        f"marked{case['marked_fraction']}-R{case['replicates']}"
    )


@pytest.mark.parametrize("shard_workers", (1, 2, 3))
@pytest.mark.parametrize("case", SHARD_GOLDEN["cases"], ids=_golden_case_id)
class TestShardGolden:
    """Every K reproduces the per-row streams the fixture was generated from."""

    def test_matches_fixture(self, case, shard_workers):
        assert golden_generator.run_digests(case, shard_workers) == case["digests"]

    def test_matches_fixture_across_short_chunks(self, monkeypatch, case, shard_workers):
        # Three rounds per refill: 7- and 10-round runs take >= 3 refills and
        # end on a short one.
        monkeypatch.setattr(
            fastpath, "CHUNK_BUDGET_ELEMENTS", 3 * case["replicates"] * case["num_agents"]
        )
        recorder = TelemetryRecorder(level="events")
        with use_telemetry(recorder):
            digests = golden_generator.run_digests(case, shard_workers)
        assert digests == case["digests"]
        refills = [e["rounds"] for e in recorder.events() if e["event"] == "fastpath.chunk_refill"]
        chunked = case["noise"] == "noiseless" and case["movement"] in (
            "default",
            "uniform_random_walk",
        )
        if chunked:
            assert len(refills) >= 3 and refills[-1] < refills[0] == 3, refills
        else:
            assert refills == []


# ----------------------------------------------------------------------
# 4. Kernel API plumbing
# ----------------------------------------------------------------------


class TestShardWorkersAPI:
    def test_context_shard_workers_default_and_validation(self):
        assert RunContext().shard_workers is None
        with pytest.raises(ValueError):
            RunContext(shard_workers=0)
        with pytest.raises(ValueError):
            RunContext(shard_workers=2.5)

    def test_context_shard_workers_used_by_run_kernel(self):
        topology = Torus2D(8)
        config = SimulationConfig(num_agents=9, rounds=10)
        explicit = run_kernel(topology, config, 6, seed=9, shard_workers=3)
        with use_run_context(RunContext(shard_workers=3)):
            ambient = run_kernel(topology, config, 6, seed=9)
        assert_outcomes_equal(explicit, ambient)

    def test_reference_backend_refuses_shards(self):
        topology = Torus2D(8)
        config = SimulationConfig(num_agents=9, rounds=5)
        with pytest.raises(ValueError, match="shard_workers"):
            run_kernel(topology, config, 4, seed=0, backend="reference", shard_workers=2)

    def test_invalid_shard_workers_rejected(self):
        topology = Torus2D(8)
        config = SimulationConfig(num_agents=9, rounds=5)
        with pytest.raises(ValueError):
            run_kernel(topology, config, 4, seed=0, shard_workers=0)


# ----------------------------------------------------------------------
# 5. Blocked linear counting
# ----------------------------------------------------------------------


class TestBlockedLinearCounting:
    def test_block_rows_full_when_budget_fits(self):
        # Dense regime, tiny buffer: the whole batch fits -> single pass.
        assert linear_counting_block_rows(32, 200, 1_024) == 32

    def test_block_rows_zero_when_sort_wins(self):
        # Sparse regime: the heuristic prefers the sort path regardless of
        # memory, so there is nothing to block.
        assert linear_counting_block_rows(32, 50, 262_144) == 0

    def test_block_rows_chunks_when_over_budget(self):
        # Dense regime whose full buffer exceeds the budget: block height
        # is the largest row count whose buffer fits.
        budget = 1_024 * 8 * 4  # four rows' worth
        block = linear_counting_block_rows(32, 200, 1_024, memory_budget_bytes=budget)
        assert block == 4

    def test_block_rows_degenerate_inputs(self):
        assert linear_counting_block_rows(0, 200, 1_024) == 0
        assert linear_counting_block_rows(8, 0, 1_024) == 0

    @pytest.mark.parametrize("shard_workers", [None, 3])
    def test_blocked_counting_bit_identical(self, monkeypatch, shard_workers):
        # Shrink the budget so the dense batched workload must chunk its
        # offset-label space, then pin the blocked path to the reference
        # backend (and to the sharded path on top of it).
        topology = Torus2D(8)
        config = SimulationConfig(num_agents=40, rounds=15, marked_fraction=0.3)
        replicates = 12
        if shard_workers is None:
            baseline = run_kernel(topology, config, replicates, seed=8, backend="reference")
        else:
            baseline = run_kernel(topology, config, replicates, seed=8, shard_workers=1)
        budget = topology.num_nodes * 8 * 3  # three rows of count buffer
        monkeypatch.setattr(encounter, "LINEAR_COUNTING_MEMORY_BUDGET_BYTES", budget)
        assert 0 < linear_counting_block_rows(
            replicates, config.num_agents, topology.num_nodes, memory_budget_bytes=budget
        ) < replicates
        blocked = run_kernel(
            topology, config, replicates, seed=8, backend="fused",
            shard_workers=shard_workers,
        )
        assert_outcomes_equal(baseline, blocked, "blocked counting diverged")

    def test_blocked_path_reported_in_telemetry(self, monkeypatch):
        topology = Torus2D(8)
        config = SimulationConfig(num_agents=40, rounds=5)
        budget = topology.num_nodes * 8 * 3
        monkeypatch.setattr(encounter, "LINEAR_COUNTING_MEMORY_BUDGET_BYTES", budget)
        recorder = TelemetryRecorder(level="events")
        with use_telemetry(recorder):
            run_kernel(topology, config, 12, seed=0, backend="fused")
        armed = [e for e in recorder.events() if e["event"] == "fastpath.armed"]
        assert armed and armed[0]["counting_path"] == "bincount-blocked"
        assert armed[0]["counting_block_rows"] == 3
