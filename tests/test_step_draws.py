"""Narrow step-draw windows: the same stream as one int64 draw, an eighth of the memory.

The fused loop stores each window of step choices in the narrowest dtype
that holds one (``uint8`` on every lattice), allocated once per call and
refilled in place. Each refill draws int64 blocks of whole rounds, at most
``fastpath.DRAW_BLOCK_ELEMENTS`` elements each, and narrows them into the
window. These tests pin that:

1. a filled window equals one ``draw_steps_chunk`` call in values and in
   the generator's final state, for every topology that draws windows,
   under every bit generator NumPy ships and for any block size, and a
   refill reuses the first window's storage;
2. with one-round blocks, the kernel, shard and adaptive golden fixtures
   still reproduce byte for byte;
3. at R = 64, n = 128, where a window spans several blocks, the fused
   backend equals the reference backend on every such topology;
4. a batched fused call's traced peak stays bounded: one narrow window
   and one block at a time.
"""

from __future__ import annotations

import importlib.util
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro.core.fastpath as fastpath
from repro.core.kernel import run_kernel
from repro.core.simulation import SimulationConfig
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
    UniformRandomWalk,
)

BASELINES = Path(__file__).parent / "baselines"


def _load(name: str):
    path = BASELINES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


shard_generator = _load("regenerate_shard_golden")
adaptive_generator = _load("regenerate_adaptive_golden")
KERNEL_GOLDEN = json.loads((BASELINES / "kernel_golden.json").read_text())
SHARD_GOLDEN = json.loads((BASELINES / "shard_golden.json").read_text())
ADAPTIVE_GOLDEN = json.loads((BASELINES / "adaptive_golden.json").read_text())

#: Every topology that draws step windows, at R = 64, n = 128 sizes.
TOPOLOGIES = {
    "torus2d": Torus2D(16),
    "torus_kd": TorusKD(5, 3),
    "ring": Ring(301),
    "hypercube": Hypercube(8),
    "bounded_grid": BoundedGrid(12),
    "complete": CompleteGraph(300),
}


def same_state(left, right) -> bool:
    """Deep equality of two ``bit_generator.state`` dicts (MT19937 holds an array)."""
    if isinstance(left, dict):
        return left.keys() == right.keys() and all(same_state(left[k], right[k]) for k in left)
    if isinstance(left, np.ndarray):
        return np.array_equal(left, right)
    return left == right


def narrow_dtype(topology) -> np.dtype:
    return np.min_scalar_type(topology.num_step_choices - 1)


@pytest.fixture
def window_dtypes(monkeypatch):
    """The dtype of every window (or per-row window) the fused loop fills."""
    dtypes = []
    fill = fastpath._draw_window

    def spy(topology, window, rng):
        dtypes.append(window.dtype)
        fill(topology, window, rng)

    monkeypatch.setattr(fastpath, "_draw_window", spy)
    return dtypes


@pytest.fixture
def one_round_blocks(monkeypatch, window_dtypes):
    """Every round of every window is drawn by its own ``draw_steps_chunk`` call."""
    monkeypatch.setattr(fastpath, "DRAW_BLOCK_ELEMENTS", 1)
    return window_dtypes


def assert_narrow_windows(dtypes, topology_name: str) -> None:
    expected = narrow_dtype(shard_generator.TOPOLOGIES[topology_name]())
    assert dtypes and set(dtypes) == {expected}, dtypes


# ----------------------------------------------------------------------
# 1. A filled window is one draw
# ----------------------------------------------------------------------

BIT_GENERATORS = (
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
)

#: (rounds, one round's slice): empty, one round, odd-length rounds, and a
#: window of many rounds.
WINDOWS = ((3, (0,)), (1, (5,)), (5, (3, 7)), (40, (129,)))


@pytest.mark.parametrize("block_rounds", (1, 3, None), ids=("1-round", "3-round", "default"))
@pytest.mark.parametrize("name", TOPOLOGIES)
@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
def test_window_equals_one_draw_in_values_and_state(monkeypatch, bit_generator, name, block_rounds):
    topology = TOPOLOGIES[name]
    for rounds, shape in WINDOWS:
        if block_rounds is not None:
            monkeypatch.setattr(fastpath, "DRAW_BLOCK_ELEMENTS", block_rounds * math.prod(shape))
        expected_rng = np.random.Generator(bit_generator(2024))
        stream = fastpath._SharedStream(np.random.Generator(bit_generator(2024)))
        # An odd number of 32-bit draws first, so generators that split
        # 64-bit outputs hold a buffered half-word when the window is drawn.
        for generator in (expected_rng, stream.rng):
            generator.integers(0, 4, size=3)
        if "has_uint32" in expected_rng.bit_generator.state:
            assert expected_rng.bit_generator.state["has_uint32"] == 1

        # A full window, then a shorter last one in the same storage.
        stream.refill(topology, rounds, shape)
        first = stream._window
        assert first.dtype == narrow_dtype(topology)
        assert np.array_equal(first, topology.draw_steps_chunk(rounds, shape, expected_rng))
        assert same_state(stream.rng.bit_generator.state, expected_rng.bit_generator.state)
        last_rounds = max(1, rounds - 2)
        stream.refill(topology, last_rounds, shape)
        assert stream._window.shape == (last_rounds, *shape)
        assert stream._window.size == 0 or np.shares_memory(stream._window, first)
        assert np.array_equal(
            stream._window, topology.draw_steps_chunk(last_rounds, shape, expected_rng)
        )
        assert same_state(stream.rng.bit_generator.state, expected_rng.bit_generator.state)


@pytest.mark.parametrize("block_rounds", (1, 3, None), ids=("1-round", "3-round", "default"))
@pytest.mark.parametrize("name", TOPOLOGIES)
def test_row_windows_equal_one_draw_per_row(monkeypatch, name, block_rounds):
    topology, rounds, agents = TOPOLOGIES[name], 40, 129
    if block_rounds is not None:
        monkeypatch.setattr(fastpath, "DRAW_BLOCK_ELEMENTS", block_rounds * agents)
    seeds = [11, 12, 13, 14]
    streams = fastpath._RowStreams(seeds)
    streams.refill(topology, rounds, (len(seeds), agents))
    window = streams.tile_steps(topology, 1, 4)
    assert window.dtype == narrow_dtype(topology)
    for row, seed in enumerate(seeds[1:]):
        rng = np.random.default_rng(seed)
        assert np.array_equal(window[:, row], topology.draw_steps_chunk(rounds, (agents,), rng))
        assert same_state(streams.rngs[row + 1].bit_generator.state, rng.bit_generator.state)


# ----------------------------------------------------------------------
# 2. Golden fixtures through one-round blocks
# ----------------------------------------------------------------------

KERNEL_MOVEMENTS = {
    "default": None,
    "uniform_random_walk": UniformRandomWalk(),
    "lazy_random_walk": LazyRandomWalk(stay_probability=0.4),
    "biased_torus_walk": BiasedTorusWalk(bias=0.3),
    "collision_avoiding_walk": CollisionAvoidingWalk(avoidance_steps=2),
}
KERNEL_NOISE = {
    "noiseless": None,
    "noisy": NoisyCollisionModel(miss_probability=0.3, spurious_rate=0.1),
}


def chunked(case) -> bool:
    """Whether a golden case draws step windows (no noise, the topology's own step)."""
    return case["noise"] == "noiseless" and case["movement"] in ("default", "uniform_random_walk")


@pytest.mark.parametrize("replicates", (None, 1), ids=("serial", "batched"))
@pytest.mark.parametrize(
    "case",
    KERNEL_GOLDEN["cases"],
    ids=lambda c: f"{c['movement']}-{c['noise']}-marked{c['marked_fraction']}-seed{c['seed']}",
)
def test_kernel_golden_through_one_round_blocks(one_round_blocks, case, replicates):
    config = SimulationConfig(
        num_agents=KERNEL_GOLDEN["num_agents"],
        rounds=KERNEL_GOLDEN["rounds"],
        marked_fraction=case["marked_fraction"],
        collision_model=KERNEL_NOISE[case["noise"]],
        movement=KERNEL_MOVEMENTS[case["movement"]],
    )
    outcome = run_kernel(Torus2D(KERNEL_GOLDEN["side"]), config, replicates, case["seed"], backend="fused")
    if replicates is not None:
        outcome = outcome.replicate(0)
    assert np.array_equal(outcome.collision_totals, np.array(case["collision_totals"]))
    assert np.array_equal(outcome.marked_collision_totals, np.array(case["marked_collision_totals"]))
    assert np.array_equal(outcome.marked, np.array(case["marked"], dtype=bool))
    assert np.array_equal(outcome.initial_positions, np.array(case["initial_positions"]))
    assert np.array_equal(outcome.final_positions, np.array(case["final_positions"]))
    if chunked(case):
        assert_narrow_windows(one_round_blocks, "torus2d")


@pytest.mark.parametrize("shard_workers", (1, 3))
@pytest.mark.parametrize(
    "case",
    SHARD_GOLDEN["cases"],
    ids=lambda c: f"{c['topology']}-{c['movement']}-{c['noise']}-marked{c['marked_fraction']}-R{c['replicates']}",
)
def test_shard_golden_through_one_round_blocks(one_round_blocks, case, shard_workers):
    assert shard_generator.run_digests(case, shard_workers) == case["digests"]
    if chunked(case):
        assert_narrow_windows(one_round_blocks, case["topology"])


@pytest.mark.parametrize(
    "case",
    [case for case in ADAPTIVE_GOLDEN["adaptive"]["cases"] if case["topology"] in TOPOLOGIES],
    ids=lambda c: f"{c['topology']}-n{c['num_agents']}-eps{c['target_epsilon']}-s{c['seed']}",
)
def test_adaptive_golden_through_one_round_blocks(one_round_blocks, case):
    assert adaptive_generator.run_adaptive(case) == case["outcome"]
    assert one_round_blocks


# ----------------------------------------------------------------------
# 3. Fused ≡ reference across blocks
# ----------------------------------------------------------------------


@pytest.mark.parametrize("window_rounds", (None, 3), ids=("one-window", "three-round-windows"))
@pytest.mark.parametrize("marked_fraction", (0.0, 0.3))
@pytest.mark.parametrize("name", TOPOLOGIES)
def test_fused_equals_reference_across_blocks(
    monkeypatch, window_dtypes, name, marked_fraction, window_rounds
):
    # 8,192 step choices a round: a default block holds 8 rounds, so the
    # one 10-round window is drawn in two blocks.
    replicates, agents = 64, 128
    if window_rounds is not None:
        monkeypatch.setattr(fastpath, "CHUNK_BUDGET_ELEMENTS", window_rounds * replicates * agents)
    topology = TOPOLOGIES[name]
    config = SimulationConfig(
        num_agents=agents, rounds=10, marked_fraction=marked_fraction, record_trajectory=True
    )
    fused = run_kernel(topology, config, replicates, 41, backend="fused")
    assert window_dtypes and set(window_dtypes) == {narrow_dtype(topology)}
    assert len(window_dtypes) == (1 if window_rounds is None else 4)
    reference = run_kernel(topology, config, replicates, 41, backend="reference")
    for field in shard_generator.FIELDS:
        left, right = getattr(fused, field), getattr(reference, field)
        assert (left is None and right is None) or np.array_equal(left, right), field


# ----------------------------------------------------------------------
# 4. Bounded memory
# ----------------------------------------------------------------------


def test_batched_fused_call_peak_memory_bounded():
    """The tracemalloc gate: one step window alive at a time, in bytes.

    One fused Torus2D(32), n = 64, R = 1000, T = 100 call draws windows of
    32 rounds of 64,000 step choices. With int64 windows and the old
    window alive while the next is drawn, it peaks near 33.5 MiB; freeing
    the old window alone leaves 18.9 MiB.
    """
    topology = Torus2D(32)
    run_kernel(topology, SimulationConfig(num_agents=64, rounds=2), 8)  # imports, off the trace
    tracemalloc.start()
    try:
        result = run_kernel(topology, SimulationConfig(num_agents=64, rounds=100), replicates=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.collision_totals.shape == (1000, 64)
    assert peak < 8 * 1024 * 1024, f"traced peak {peak / 2**20:.1f} MiB over budget"
