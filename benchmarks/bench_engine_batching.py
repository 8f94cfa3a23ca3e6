"""Benchmark: batched replicate execution vs the sequential per-replicate loop.

Measures the engine's headline win (ISSUE 1 acceptance criterion): running
R = 32 replicates of Algorithm 1 (200 agents x 400 rounds on
``Torus2D(side=64)``) as one ``(R, n)`` matrix simulation must beat running
the same 32 replicates through serial reference-backend ``run_kernel`` calls
one at a time by at least 3x throughput. The measurements are written to
``BENCH_batching.json`` with the shared provenance block so ``repro bench
history`` can track them across PRs.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_engine_batching.py

or through pytest (the assertion is the acceptance gate)::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_batching.py -s
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from _timing import best_of, write_bench_report
from repro.core.kernel import run_kernel
from repro.core.simulation import SimulationConfig
from repro.topology.torus import Torus2D
from repro.utils.rng import spawn_seed_sequences

SIDE = 64
NUM_AGENTS = 200
ROUNDS = 400
REPLICATES = 32
MIN_SPEEDUP = 3.0
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_batching.json"


def _run_sequential(seed: int = 0) -> np.ndarray:
    """The legacy path: one serial kernel run per replicate.

    Pinned to the reference backend: this is the pre-engine loop the ISSUE 1
    gate was defined against, and the gate measures the value of *batching*
    relative to it. The fused fast path (ISSUE 5) accelerates serial runs
    too; its own gate lives in bench_fastpath.py.
    """
    topology = Torus2D(SIDE)
    config = SimulationConfig(num_agents=NUM_AGENTS, rounds=ROUNDS)
    totals = np.empty((REPLICATES, NUM_AGENTS), dtype=np.float64)
    for index, child in enumerate(spawn_seed_sequences(seed, REPLICATES)):
        totals[index] = run_kernel(
            topology, config, None, child, backend="reference"
        ).collision_totals
    return totals


def _run_batched(seed: int = 0) -> np.ndarray:
    """The engine path: all replicates as one matrix simulation."""
    topology = Torus2D(SIDE)
    config = SimulationConfig(num_agents=NUM_AGENTS, rounds=ROUNDS)
    return run_kernel(topology, config, REPLICATES, seed).collision_totals


def measure() -> dict[str, float]:
    sequential_seconds = best_of(_run_sequential)
    batched_seconds = best_of(_run_batched)
    return {
        "sequential_seconds": sequential_seconds,
        "batched_seconds": batched_seconds,
        "sequential_replicates_per_second": REPLICATES / sequential_seconds,
        "batched_replicates_per_second": REPLICATES / batched_seconds,
        "speedup": sequential_seconds / batched_seconds,
    }


def _report(stats: dict[str, float]) -> None:
    print(
        f"\n{REPLICATES} replicates of ({NUM_AGENTS} agents x {ROUNDS} rounds "
        f"on Torus2D(side={SIDE}))"
    )
    print(
        f"  sequential loop : {stats['sequential_seconds']:7.3f} s "
        f"({stats['sequential_replicates_per_second']:6.1f} replicates/s)"
    )
    print(
        f"  batched engine  : {stats['batched_seconds']:7.3f} s "
        f"({stats['batched_replicates_per_second']:6.1f} replicates/s)"
    )
    print(f"  speedup         : {stats['speedup']:7.2f}x (gate: >= {MIN_SPEEDUP}x)")


def write_report(stats: dict[str, float], path: Path | None = None) -> Path:
    """Write the machine-readable benchmark record (BENCH_batching.json)."""
    workload = f"{REPLICATES}x({NUM_AGENTS} agents x {ROUNDS} rounds) torus-{SIDE}"
    records = [
        {
            "workload": workload,
            "kind": "macro",
            "backend": "sequential",
            "best_seconds": stats["sequential_seconds"],
            "replicates_per_second": stats["sequential_replicates_per_second"],
            "speedup": 1.0,
        },
        {
            "workload": workload,
            "kind": "macro",
            "backend": "batched",
            "best_seconds": stats["batched_seconds"],
            "replicates_per_second": stats["batched_replicates_per_second"],
            "speedup": stats["speedup"],
        },
    ]
    return write_bench_report(
        OUTPUT_PATH if path is None else path,
        "bench_engine_batching",
        {"min_speedup": MIN_SPEEDUP},
        records,
    )


def test_batched_engine_speedup():
    """Acceptance gate: batched throughput >= 3x the sequential loop."""
    stats = measure()
    _report(stats)
    print(f"wrote {write_report(stats)}")

    # Same workload, so the estimates must agree statistically: both paths
    # are unbiased estimators of the same density.
    density = (NUM_AGENTS - 1) / (SIDE * SIDE)
    batched_mean = _run_batched().mean() / ROUNDS
    assert abs(batched_mean - density) / density < 0.1

    assert stats["speedup"] >= MIN_SPEEDUP, (
        f"batched engine speedup {stats['speedup']:.2f}x below the {MIN_SPEEDUP}x gate"
    )


if __name__ == "__main__":
    test_batched_engine_speedup()
