"""Benchmark: the million-agent scaling observatory (ISSUE 9 acceptance gates).

The intra-kernel sharding path (:mod:`repro.core.shardpath`) splits the
``(R, n)`` position matrix into contiguous replicate-row shards on a
worker pool, each shard seeded from per-replicate SeedSequence children so
the merged result is bit-identical for every shard count. This benchmark
is the scaling observatory for that path:

1. **Invariance precheck**: before timing anything, ``shard_workers=K``
   must reproduce ``shard_workers=1`` array-for-array on a marked + noisy
   workload — a wrong-but-fast sharded kernel must never produce a record.
2. **Scaling curve**: every (workload, shard_workers) cell on the agents ×
   replicates grid is timed, interleaved with the unsharded fused call of
   the same shape, and written to ``BENCH_scaling.json`` — one record per
   cell with the median seconds and the speedup over **unsharded fused**
   (series ``sharded-k*``; the unsharded base is series ``fused``) — so
   ``repro bench history --metric speedup`` tracks the curve across PRs.
   A speedup over ``shard_workers=1`` would hide what sharding costs
   before it parallelises anything.
3. **Single-shard overhead gate**: on the replicate-heavy cell (Torus2D
   32², n=64, R=1000, T=100), where per-row seeding costs the most,
   ``shard_workers=1`` must stay within ``MAX_K1_OVER_FUSED`` (1.5x) of
   unsharded fused, as a ratio of interleaved medians; the ratio is also
   reported against the ``K1_OVER_FUSED_TARGET`` (1.2x) goal.
4. **Parallel gate** (machines with >= ``MIN_GATE_CPUS`` cores only): at
   ``shard_workers=4`` at least one scaling workload must reach
   ``MIN_SPEEDUP_AT_4`` (1.8x) over unsharded fused. The gate is
   skipped, loudly, on smaller runners — a 1-core container cannot
   demonstrate parallel speedup and a red herring there would train
   people to ignore the gate.
5. **Frontier gate**: the two frontier workloads — a million agents at
   small ``R``, and ``R = 10^3`` replicates at moderate ``n`` — must each
   complete their full round budget under ``FRONTIER_BUDGET_SECONDS``
   with the sharded fused kernel, and a measured reference-backend probe,
   extrapolated to frontier scale by element-rounds, must cost at least
   ``MIN_FRONTIER_ADVANTAGE`` times the fused wall-clock. (The reference
   loop is never *run* at frontier scale; that is the point.)

Run standalone::

    PYTHONPATH=src python benchmarks/bench_scaling.py

or through pytest (the assertions are the acceptance gates)::

    PYTHONPATH=src python -m pytest benchmarks/bench_scaling.py -s
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from _timing import median_of, once, write_bench_report
from repro.core.kernel import run_kernel
from repro.core.simulation import SimulationConfig
from repro.swarm.noise import NoisyCollisionModel
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D

SHARD_GRID = (1, 2, 4)
MIN_SPEEDUP_AT_4 = 1.8
MIN_GATE_CPUS = 4
MAX_K1_OVER_FUSED = 1.5
K1_OVER_FUSED_TARGET = 1.2
FRONTIER_BUDGET_SECONDS = 180.0
MIN_FRONTIER_ADVANTAGE = 1.0
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_scaling.json"


@dataclass(frozen=True)
class ScalingWorkload:
    """One (topology, agents, replicates, rounds) cell of the scaling grid."""

    name: str
    kind: str  # "scaling" | "replicate-heavy" | "frontier"
    side: int
    agents: int
    replicates: int
    rounds: int
    #: Scaled-down (agents, replicates, rounds) for the reference probe the
    #: frontier gate extrapolates from; None for plain scaling cells.
    probe: Optional[tuple[int, int, int]] = None

    def build(self, agents=None, replicates=None, rounds=None):
        topology = Torus2D(self.side)
        config = SimulationConfig(
            num_agents=self.agents if agents is None else agents,
            rounds=self.rounds if rounds is None else rounds,
        )
        return topology, config, (self.replicates if replicates is None else replicates)

    def element_rounds(self, agents=None, replicates=None, rounds=None) -> int:
        return (
            (self.agents if agents is None else agents)
            * (self.replicates if replicates is None else replicates)
            * (self.rounds if rounds is None else rounds)
        )


WORKLOADS = (
    # The scaling grid: agents x replicates regimes between the macro suite
    # and the frontier, where per-shard work is large enough for thread
    # fan-out to pay at all. It pays only in part: the draws, gathers and
    # adds release the GIL, but np.bincount holds it.
    ScalingWorkload("agents=20k R=32", "scaling", side=128, agents=20_000, replicates=32, rounds=30),
    ScalingWorkload("agents=100k R=16", "scaling", side=256, agents=100_000, replicates=16, rounds=20),
    ScalingWorkload("agents=4k R=256", "scaling", side=64, agents=4_000, replicates=256, rounds=30),
    # Many replicates of a small batch: per-row seeding and draws cost the
    # most relative to the work, so the single-shard overhead gate runs here.
    ScalingWorkload(
        "torus32 n=64 R=1000", "replicate-heavy", side=32, agents=64, replicates=1_000, rounds=100
    ),
    # The frontier: a million agents, and a thousand replicates — the
    # regimes the acceptance criteria name. Probes are ~500x smaller.
    ScalingWorkload(
        "frontier agents=1M R=4",
        "frontier",
        side=1_024,
        agents=1_000_000,
        replicates=4,
        rounds=100,
        probe=(20_000, 4, 10),
    ),
    ScalingWorkload(
        "frontier R=1000 n=2000",
        "frontier",
        side=64,
        agents=2_000,
        replicates=1_000,
        rounds=300,
        probe=(2_000, 50, 20),
    ),
)


def _gate_workers() -> int:
    return min(4, os.cpu_count() or 1)


def assert_shard_invariance() -> None:
    """Precheck: sharded results are bit-identical to single-shard results."""
    topology = Ring(512)
    config = SimulationConfig(
        num_agents=64,
        rounds=40,
        marked_fraction=0.25,
        collision_model=NoisyCollisionModel(miss_probability=0.2, spurious_rate=0.05),
    )
    baseline = run_kernel(topology, config, 23, seed=7, shard_workers=1)
    for workers in (2, 4, 7):
        other = run_kernel(topology, config, 23, seed=7, shard_workers=workers)
        for field in ("collision_totals", "marked_collision_totals", "final_positions", "marked"):
            assert np.array_equal(getattr(baseline, field), getattr(other, field)), (
                f"shard_workers={workers} diverged from shard_workers=1 on {field}"
            )


def interleaved_medians(workload: ScalingWorkload, repeats: int = 5) -> dict:
    """Median seconds of unsharded fused (key ``None``) and of each shard count.

    Each repeat times every variant once, back to back, so background load
    slows all of them together; an untimed first pass warms them up.
    """
    topology, config, replicates = workload.build()
    samples: dict = {shard_workers: [] for shard_workers in (None, *SHARD_GRID)}
    for repeat in range(repeats + 1):
        for shard_workers, seconds in samples.items():
            elapsed = once(
                lambda: run_kernel(topology, config, replicates, seed=0, shard_workers=shard_workers)
            )
            if repeat:
                seconds.append(elapsed)
    return {shard_workers: statistics.median(seconds) for shard_workers, seconds in samples.items()}


def measure_scaling() -> list[dict]:
    """The scaling curve: per workload, the unsharded base and one record per shard count."""
    records = []
    for workload in (w for w in WORKLOADS if w.kind != "frontier"):
        medians = interleaved_medians(workload)
        for shard_workers, seconds in medians.items():
            backend = "fused" if shard_workers is None else f"sharded-k{shard_workers}"
            speedup = medians[None] / seconds
            records.append(
                {
                    "workload": workload.name,
                    "kind": workload.kind,
                    "backend": backend,
                    "shard_workers": shard_workers,
                    "median_seconds": seconds,
                    "speedup": speedup,
                }
            )
            print(f"{workload.name:24s} {backend:10s} {seconds:7.4f}s speedup over fused {speedup:5.2f}x")
    return records


def measure_frontier() -> list[dict]:
    """The frontier gate cells: fused wall-clock vs extrapolated reference."""
    records = []
    workers = _gate_workers()
    for workload in (w for w in WORKLOADS if w.kind == "frontier"):
        topology, config, replicates = workload.build()
        fused_seconds = once(
            lambda: run_kernel(topology, config, replicates, seed=0, shard_workers=workers)
        )

        probe_agents, probe_replicates, probe_rounds = workload.probe
        probe_topology, probe_config, _ = workload.build(
            agents=probe_agents, rounds=probe_rounds
        )
        reference_probe_seconds = median_of(
            lambda: run_kernel(
                probe_topology, probe_config, probe_replicates, seed=0, backend="reference"
            ),
            repeats=3,
        )
        scale = workload.element_rounds() / workload.element_rounds(
            agents=probe_agents, replicates=probe_replicates, rounds=probe_rounds
        )
        reference_extrapolated = reference_probe_seconds * scale
        advantage = reference_extrapolated / fused_seconds
        records.append(
            {
                "workload": workload.name,
                "kind": workload.kind,
                "backend": f"fused-k{workers}",
                "shard_workers": workers,
                "median_seconds": fused_seconds,
                "speedup": advantage,
                "reference_extrapolated_seconds": reference_extrapolated,
                "rounds_per_second": workload.rounds / fused_seconds,
            }
        )
        print(
            f"{workload.name:24s} fused(k={workers}) {fused_seconds:7.2f}s "
            f"reference~{reference_extrapolated:8.1f}s advantage {advantage:5.2f}x "
            f"({workload.rounds / fused_seconds:.1f} rounds/s)"
        )
    return records


def write_report(records: list[dict], path: Optional[Path] = None) -> Path:
    """Write the machine-readable benchmark record (BENCH_scaling.json)."""
    return write_bench_report(
        OUTPUT_PATH if path is None else path,
        "bench_scaling",
        {
            "min_speedup_at_4": MIN_SPEEDUP_AT_4,
            "min_gate_cpus": MIN_GATE_CPUS,
            "max_k1_over_fused": MAX_K1_OVER_FUSED,
            "k1_over_fused_target": K1_OVER_FUSED_TARGET,
            "frontier_budget_seconds": FRONTIER_BUDGET_SECONDS,
            "min_frontier_advantage": MIN_FRONTIER_ADVANTAGE,
            "cpu_count": os.cpu_count() or 1,
        },
        records,
    )


def test_sharded_kernel_meets_scaling_gates() -> None:
    """Acceptance gates: invariance, the 4-worker speedup, K=1 overhead, the frontier budget."""
    assert_shard_invariance()
    records = measure_scaling() + measure_frontier()
    path = write_report(records)
    print(f"wrote {path}")

    heavy = {r["backend"]: r for r in records if r["kind"] == "replicate-heavy"}
    fused_seconds = heavy["fused"]["median_seconds"]
    k1_seconds = heavy["sharded-k1"]["median_seconds"]
    ratio = k1_seconds / fused_seconds
    verdict = "meets" if ratio <= K1_OVER_FUSED_TARGET else "misses"
    print(
        f"{heavy['fused']['workload']}: shard_workers=1 {k1_seconds:.4f}s / unsharded fused "
        f"{fused_seconds:.4f}s = {ratio:.2f}x ({verdict} the {K1_OVER_FUSED_TARGET}x target)"
    )
    assert ratio <= MAX_K1_OVER_FUSED, (
        f"shard_workers=1 is {ratio:.2f}x unsharded fused on the replicate-heavy cell "
        f"(gate {MAX_K1_OVER_FUSED}x): per-row seeding has become a slow path again"
    )

    cpus = os.cpu_count() or 1
    scaling_at_4 = [
        r for r in records if r["kind"] == "scaling" and r["shard_workers"] == 4
    ]
    if cpus >= MIN_GATE_CPUS:
        best = max(r["speedup"] for r in scaling_at_4)
        assert best >= MIN_SPEEDUP_AT_4, (
            f"no scaling workload reached {MIN_SPEEDUP_AT_4}x over unsharded fused at "
            f"shard_workers=4 on a {cpus}-core machine; measured: "
            + ", ".join(f"{r['workload']}={r['speedup']:.2f}x" for r in scaling_at_4)
        )
    else:
        print(
            f"SKIPPED parallel gate: {cpus} core(s) < {MIN_GATE_CPUS} — "
            "a single-core runner cannot demonstrate shard speedup"
        )

    for record in (r for r in records if r["kind"] == "frontier"):
        assert record["median_seconds"] <= FRONTIER_BUDGET_SECONDS, (
            f"{record['workload']}: sharded fused took {record['median_seconds']:.1f}s — "
            f"over the {FRONTIER_BUDGET_SECONDS:.0f}s frontier budget"
        )
        assert record["speedup"] >= MIN_FRONTIER_ADVANTAGE, (
            f"{record['workload']}: extrapolated reference is only "
            f"{record['speedup']:.2f}x the fused wall-clock — the frontier "
            f"workload no longer demonstrates an advantage over the seed loop"
        )


if __name__ == "__main__":
    test_sharded_kernel_meets_scaling_gates()
    print("benchmark gate passed")
