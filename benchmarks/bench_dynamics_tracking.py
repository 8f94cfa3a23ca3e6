"""Benchmark: batched online density tracking vs the static batched path.

The dynamics driver adds a per-round hook to the batched ``(R, n)``
simulation loop: three online estimators, a change detector, a confidence
band, and the event-schedule lookup. The hook's work is O(R) per round
(ring-buffer sums over replicate columns), so tracking must remain an
affordable overhead. Two gates pin that, both on the same 32 replicates x
200 agents x 400 rounds ``Torus2D(side=32)`` workload:

1. **Relative**: tracked <= 3x the static path on the *default* kernel
   backend. The original ISSUE 2 gate was 1.5x against the sort-based
   reference loop; the ISSUE 5 fused fast path made the static substrate
   ~4-5x faster while the hook's Python-level work per round is unchanged,
   so the same absolute overhead is now a larger fraction of a much
   shorter round. 3x keeps the hook honest (it may not *grow*) without
   punishing the substrate for getting faster.
2. **Absolute yardstick**: tracked on the default backend must stay
   within the original 1.5x budget measured against the *reference*
   backend's static loop — the yardstick the 1.5x gate was defined
   against. Full online tracking plus the fast path together must beat
   what plain static simulation used to cost (currently ~0.5x: tracking
   everything is faster than the old loop tracking nothing).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_dynamics_tracking.py

or through pytest (the assertion is the acceptance gate)::

    PYTHONPATH=src python -m pytest benchmarks/bench_dynamics_tracking.py -s
"""

from __future__ import annotations

import time

from repro.core.kernel import run_kernel
from repro.core.simulation import SimulationConfig
from repro.dynamics.driver import track_scenario_batch
from repro.dynamics.scenario import build_scenario
from repro.topology.torus import Torus2D

SIDE = 32
NUM_AGENTS = 200
ROUNDS = 400
REPLICATES = 32
MAX_SLOWDOWN = 3.0
MAX_VS_REFERENCE_STATIC = 1.5


def _run_static(backend: str | None = None) -> None:
    """The hook-free path: batched replicates, no per-round tracking."""
    topology = Torus2D(SIDE)
    config = SimulationConfig(num_agents=NUM_AGENTS, rounds=ROUNDS)
    run_kernel(topology, config, REPLICATES, seed=0, backend=backend)


def _run_tracked() -> None:
    """The dynamics path: same workload with full online tracking installed."""
    scenario = build_scenario(
        "stable", rounds=ROUNDS, side=SIDE, num_agents=NUM_AGENTS
    )
    track_scenario_batch(scenario, REPLICATES, seed=0)


def _time(fn, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock seconds (first call also warms caches)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure() -> dict[str, float]:
    static_seconds = _time(_run_static)
    reference_static_seconds = _time(lambda: _run_static(backend="reference"))
    tracked_seconds = _time(_run_tracked)
    return {
        "static_seconds": static_seconds,
        "reference_static_seconds": reference_static_seconds,
        "tracked_seconds": tracked_seconds,
        "slowdown": tracked_seconds / static_seconds,
        "vs_reference_static": tracked_seconds / reference_static_seconds,
    }


def _report(stats: dict[str, float]) -> None:
    print(
        f"\n{REPLICATES} replicates of ({NUM_AGENTS} agents x {ROUNDS} rounds "
        f"on Torus2D(side={SIDE}))"
    )
    print(f"  static batched (default backend)  : {stats['static_seconds']:7.3f} s")
    print(f"  static batched (reference backend): {stats['reference_static_seconds']:7.3f} s")
    print(f"  online tracking (default backend) : {stats['tracked_seconds']:7.3f} s")
    print(f"  tracking overhead                 : {stats['slowdown']:7.2f}x (gate: <= {MAX_SLOWDOWN}x)")
    print(
        f"  tracking vs reference static      : {stats['vs_reference_static']:7.2f}x "
        f"(gate: <= {MAX_VS_REFERENCE_STATIC}x)"
    )


def test_tracking_overhead_within_gate():
    """Acceptance gates: tracking overhead bounded relatively and absolutely."""
    stats = measure()
    _report(stats)

    # Sanity: the tracked run produces per-round estimates that agree with
    # the true density of the static world.
    scenario = build_scenario("stable", rounds=ROUNDS, side=SIDE, num_agents=NUM_AGENTS)
    outcome = track_scenario_batch(scenario, 4, seed=0)
    density = (NUM_AGENTS - 1) / (SIDE * SIDE)
    final = outcome.estimates["window"][-1].mean()
    assert abs(final - density) / density < 0.15

    assert stats["slowdown"] <= MAX_SLOWDOWN, (
        f"online tracking overhead {stats['slowdown']:.2f}x exceeds the "
        f"{MAX_SLOWDOWN}x gate"
    )
    assert stats["vs_reference_static"] <= MAX_VS_REFERENCE_STATIC, (
        f"online tracking costs {stats['vs_reference_static']:.2f}x the reference "
        f"backend's static loop (the original 1.5x yardstick); the hook has "
        f"grown more expensive than the pre-fastpath round budget allowed"
    )


if __name__ == "__main__":
    test_tracking_overhead_within_gate()
