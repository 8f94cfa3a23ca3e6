"""Forced-tile suite: the fused loop's cache tiles change speed, never results.

The fused loop runs window → tile → round, and at the default
``fastpath.TILE_BUDGET_BYTES`` every small workload here fits one tile,
so the rest of the suite would also pass on an untiled loop. These tests
shrink the budget to one and to three rows' worth of ``A``-slot scatter
space, with replicate counts that end on a short tile, and require:

1. unsharded runs equal the reference backend (chunkable runs tile their
   rounds; noisy runs count one whole-batch tile in tile-sized blocks);
2. ``shard_workers = 1, 2, 3`` agree with each other, with identical
   ``fastpath.*`` counters, and reproduce
   ``tests/baselines/shard_golden.json`` byte for byte.

Every test checks the ``fastpath.armed`` event's ``tile_rows`` first, so
none of them can pass on a loop that did not tile.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import repro.core.fastpath as fastpath
from repro.core.kernel import run_kernel
from repro.core.simulation import SimulationConfig
from repro.obs.telemetry import TelemetryRecorder, use_telemetry
from repro.swarm.noise import NoisyCollisionModel

BASELINES = Path(__file__).parent / "baselines"
SHARD_GOLDEN = json.loads((BASELINES / "shard_golden.json").read_text())


def _load_golden_generator():
    """The shard fixture's generator module: its topologies, case builder and digest."""
    path = BASELINES / "regenerate_shard_golden.py"
    spec = importlib.util.spec_from_file_location("regenerate_shard_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden_generator = _load_golden_generator()

#: Forced tile heights, in rows.
TILE_ROWS = (1, 3)

#: 5 = 3 + 2 and 34 = 11·3 + 1: three-row tiles end on a short one.
REPLICATES = (5, 34)

NOISE = NoisyCollisionModel(miss_probability=0.3, spurious_rate=0.1)

FIELDS = golden_generator.FIELDS


def force_tiles(monkeypatch, topology, rows: int) -> None:
    monkeypatch.setattr(fastpath, "TILE_BUDGET_BYTES", rows * topology.num_nodes * 8)


def recorded_run(topology, config, replicates, seed, **kwargs):
    """One call under a recorder: its result, ``fastpath.*`` counters and armings."""
    recorder = TelemetryRecorder(level="events")
    with use_telemetry(recorder):
        outcome = run_kernel(topology, config, replicates, seed, **kwargs)
    counters = {
        key: value
        for key, value in recorder.summary()["counters"].items()
        if key.startswith("fastpath.")
    }
    armed = [event for event in recorder.events() if event["event"] == "fastpath.armed"]
    return outcome, counters, armed


def assert_tiled(armed, rows: int, tile_rows: int) -> None:
    assert armed and armed[0]["rows"] == rows
    assert armed[0]["tile_rows"] == tile_rows < rows


def assert_same_fields(a, b, context: str) -> None:
    for field in FIELDS:
        left, right = getattr(a, field), getattr(b, field)
        if left is None:
            assert right is None, (context, field)
        else:
            assert np.array_equal(left, right), (context, field)


def tile_config(marked_fraction, record_trajectory, noise=None) -> SimulationConfig:
    return SimulationConfig(
        num_agents=6,
        rounds=7,
        marked_fraction=marked_fraction,
        collision_model=noise,
        record_trajectory=record_trajectory,
    )


TILE_AXES = [
    pytest.mark.parametrize("tile_rows", TILE_ROWS),
    pytest.mark.parametrize("replicates", REPLICATES),
    pytest.mark.parametrize("record_trajectory", (False, True), ids=("totals", "trajectory")),
    pytest.mark.parametrize("marked_fraction", (0.0, 0.3)),
    pytest.mark.parametrize("topology_name", sorted(golden_generator.TOPOLOGIES)),
]


def tile_axes(test):
    for mark in TILE_AXES:
        test = mark(test)
    return test


@tile_axes
@pytest.mark.parametrize("noise", (None, NOISE), ids=("noiseless", "noisy"))
def test_forced_tiles_match_reference(
    monkeypatch, topology_name, noise, marked_fraction, record_trajectory, replicates, tile_rows
):
    # Noiseless runs tile their rounds; noisy runs count one whole-batch
    # tile in tile-sized blocks.
    topology = golden_generator.TOPOLOGIES[topology_name]()
    config = tile_config(marked_fraction, record_trajectory, noise)
    force_tiles(monkeypatch, topology, tile_rows)
    fused, _, armed = recorded_run(topology, config, replicates, 17, backend="fused")
    assert_tiled(armed, replicates, tile_rows)
    reference = run_kernel(topology, config, replicates, 17, backend="reference")
    assert_same_fields(fused, reference, f"{topology_name} R={replicates} tile={tile_rows}")


@tile_axes
def test_forced_tiles_identical_for_every_shard_count(
    monkeypatch, topology_name, marked_fraction, record_trajectory, replicates, tile_rows
):
    # Shard slices of 34 rows end on short tiles of their own; noisy
    # sharded runs are covered by the golden cases below.
    topology = golden_generator.TOPOLOGIES[topology_name]()
    config = tile_config(marked_fraction, record_trajectory)
    force_tiles(monkeypatch, topology, tile_rows)
    runs = [
        recorded_run(topology, config, replicates, 17, shard_workers=shards)
        for shards in (1, 2, 3)
    ]
    assert_tiled(runs[0][2], replicates, tile_rows)
    for outcome, counters, _ in runs[1:]:
        assert_same_fields(outcome, runs[0][0], f"{topology_name} R={replicates} tile={tile_rows}")
        assert counters == runs[0][1]


def _golden_case_id(case) -> str:
    return (
        f"{case['topology']}-{case['movement']}-{case['noise']}-"
        f"marked{case['marked_fraction']}-R{case['replicates']}"
    )


@pytest.mark.parametrize("tile_rows", TILE_ROWS)
@pytest.mark.parametrize("case", SHARD_GOLDEN["cases"], ids=_golden_case_id)
def test_forced_tiles_reproduce_shard_golden(monkeypatch, case, tile_rows):
    topology, config = golden_generator.build(case)
    force_tiles(monkeypatch, topology, tile_rows)
    counters = []
    for shards in (1, 2, 3):
        outcome, shard_counters, armed = recorded_run(
            topology, config, case["replicates"], case["seed"], shard_workers=shards
        )
        assert_tiled(armed, case["replicates"], tile_rows)
        digests = {field: golden_generator.digest(getattr(outcome, field)) for field in FIELDS}
        assert digests == case["digests"], shards
        counters.append(shard_counters)
    assert counters[0] == counters[1] == counters[2]
