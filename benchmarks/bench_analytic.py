"""Benchmark: the analytic backend vs the fused simulating backend.

ISSUE 8 acceptance gates, all measured on ``run_kernel`` itself so nothing
but the backend differs:

1. **Speedup**: on E01-class workloads at ``replicates=1000`` the analytic
   solve must be at least ``MIN_SPEEDUP`` (100x) faster than the fused
   simulation — replicates drop out of the analytic cost model entirely,
   so the gap *grows* with R (measured ~160x on Torus2D(32) and ~250x on
   Torus2D(48) on the reference container).
2. **O(1) in replicates**: the analytic backend's ``R=1000`` median must
   stay within ``MAX_REPLICATE_RATIO`` (3x) of its ``R=10`` median — the
   replicate axis is a broadcast view, so R never enters the arithmetic —
   and one ``R=10**7`` call (~8 TB of estimates if materialised) must take
   under ``MAX_HUGE_SECONDS`` (2 s).
3. **Agreement**: before timing anything, the fused simulation's grand
   mean and pooled sample variance must land inside the analytic theory
   bands (``ORACLE_SAFETY`` standard errors) on every workload — the law
   being fast is worthless if it is not the law being sampled.

The measurements are written to ``BENCH_analytic.json`` — one record per
(workload, backend, replicates) with the median seconds and the speedup,
stamped with the shared provenance block — so the CI benchmarks job can
upload it and ``repro bench history`` can track the trajectory alongside
``BENCH_kernel.json``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_analytic.py

or through pytest (the assertions are the acceptance gates)::

    PYTHONPATH=src python -m pytest benchmarks/bench_analytic.py -s
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from _timing import best_of, once, write_bench_report
from repro.core.analytic import solve
from repro.core.kernel import run_kernel
from repro.core.simulation import SimulationConfig
from repro.topology.complete import CompleteGraph
from repro.topology.torus import Torus2D

MIN_SPEEDUP = 100.0
MAX_REPLICATE_RATIO = 3.0
ORACLE_SAFETY = 6.0
SMALL_REPLICATES = 10
LARGE_REPLICATES = 1000
HUGE_REPLICATES = 10**7
MAX_HUGE_SECONDS = 2.0
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_analytic.json"


@dataclass(frozen=True)
class Workload:
    """One timed (topology, config) payload, replicates supplied per pass."""

    name: str
    topology_fn: Callable[[], object]
    config_fn: Callable[[], SimulationConfig]


WORKLOADS = (
    # The E01 quick profile: ~0.1 density on a 32-torus, 100 rounds.
    Workload(
        "E01-class torus",
        lambda: Torus2D(32),
        lambda: SimulationConfig(num_agents=104, rounds=100),
    ),
    # The same density regime on a bigger torus (the E05 direction).
    Workload(
        "E05-class torus",
        lambda: Torus2D(48),
        lambda: SimulationConfig(num_agents=232, rounds=100),
    ),
    # Well-mixed reference: the closed-form p_m path, no sparse recursion.
    Workload(
        "well-mixed complete graph",
        lambda: CompleteGraph(1024),
        lambda: SimulationConfig(num_agents=104, rounds=100),
    ),
)


def _run(workload: Workload, backend: str, replicates: int, seed: int = 0):
    return run_kernel(
        workload.topology_fn(), workload.config_fn(), replicates, seed, backend=backend
    )


def _assert_fused_inside_theory_bands(workload: Workload) -> None:
    """The agreement gate: fused moments inside the analytic oracle bands."""
    topology, config = workload.topology_fn(), workload.config_fn()
    solution = solve(topology, config)
    replicates = 64
    estimates = run_kernel(topology, config, replicates, 1234, backend="fused").estimates()
    total = estimates.size

    grand_sd = math.sqrt(solution.grand_mean_variance(replicates))
    mean_gap = abs(float(estimates.mean()) - solution.density)
    assert mean_gap < ORACLE_SAFETY * grand_sd, (
        f"{workload.name}: fused grand mean is {mean_gap / grand_sd:.1f} standard "
        f"errors from the analytic mean (gate: {ORACLE_SAFETY})"
    )

    expected_var = solution.expected_sample_variance(replicates)
    var_se = (
        expected_var
        * math.sqrt(2.0 / (total - 1))
        * math.sqrt(max(1.0, solution.variance_inflation))
    )
    var_gap = abs(float(estimates.var(ddof=1)) - expected_var)
    assert var_gap < ORACLE_SAFETY * var_se, (
        f"{workload.name}: fused sample variance is {var_gap / var_se:.1f} standard "
        f"errors from the analytic expectation (gate: {ORACLE_SAFETY})"
    )


def measure() -> list[dict]:
    """Per-(workload, backend, replicates) records."""
    records = []
    for workload in WORKLOADS:
        _assert_fused_inside_theory_bands(workload)
        # Best-of timing: the analytic solves are a few milliseconds, where a
        # single scheduler hiccup doubles a median; the best pass is the one
        # least biased by background load (same reduction as best_pair).
        analytic_small = best_of(
            lambda: _run(workload, "analytic", SMALL_REPLICATES), repeats=7
        )
        analytic_large = best_of(
            lambda: _run(workload, "analytic", LARGE_REPLICATES), repeats=7
        )
        fused_large = best_of(lambda: _run(workload, "fused", LARGE_REPLICATES), repeats=3)
        speedup = fused_large / analytic_large
        replicate_ratio = analytic_large / analytic_small
        # The replicate count joins the workload label: bench history keys
        # series on (benchmark, workload, backend), and the R=10 / R=1000
        # analytic passes are distinct series, not two points per build.
        records.extend(
            [
                {
                    "workload": f"{workload.name} R={SMALL_REPLICATES}",
                    "backend": "analytic",
                    "replicates": SMALL_REPLICATES,
                    "median_seconds": analytic_small,
                    "speedup": fused_large / analytic_small,
                },
                {
                    "workload": f"{workload.name} R={LARGE_REPLICATES}",
                    "backend": "analytic",
                    "replicates": LARGE_REPLICATES,
                    "median_seconds": analytic_large,
                    "speedup": speedup,
                    "replicate_ratio": replicate_ratio,
                },
                {
                    "workload": f"{workload.name} R={LARGE_REPLICATES}",
                    "backend": "fused",
                    "replicates": LARGE_REPLICATES,
                    "median_seconds": fused_large,
                    "speedup": 1.0,
                },
            ]
        )
        print(
            f"{workload.name:28s} analytic R={LARGE_REPLICATES} {analytic_large * 1e3:7.2f}ms "
            f"fused {fused_large:7.4f}s speedup {speedup:6.1f}x "
            f"R-ratio {replicate_ratio:4.2f}"
        )
    huge = WORKLOADS[0]
    huge_seconds = once(lambda: _run(huge, "analytic", HUGE_REPLICATES))
    records.append(
        {
            "workload": f"{huge.name} R={HUGE_REPLICATES}",
            "backend": "analytic",
            "replicates": HUGE_REPLICATES,
            "median_seconds": huge_seconds,
        }
    )
    print(f"{huge.name:28s} analytic R={HUGE_REPLICATES} {huge_seconds:7.4f}s")
    return records


def write_report(records: list[dict], path: Optional[Path] = None) -> Path:
    """Write the machine-readable benchmark record (BENCH_analytic.json)."""
    return write_bench_report(
        OUTPUT_PATH if path is None else path,
        "bench_analytic",
        {
            "min_speedup": MIN_SPEEDUP,
            "max_replicate_ratio": MAX_REPLICATE_RATIO,
            "oracle_safety": ORACLE_SAFETY,
            "small_replicates": SMALL_REPLICATES,
            "large_replicates": LARGE_REPLICATES,
            "huge_replicates": HUGE_REPLICATES,
            "max_huge_seconds": MAX_HUGE_SECONDS,
        },
        records,
    )


def test_analytic_backend_meets_gates() -> None:
    """Acceptance gates: the 100x speedup, the O(1)-in-replicates ratio, the R=10**7 call."""
    records = measure()
    path = write_report(records)
    print(f"wrote {path}")

    large = [
        r for r in records if r["backend"] == "analytic" and r["replicates"] == LARGE_REPLICATES
    ]
    for record in large:
        assert record["speedup"] >= MIN_SPEEDUP, (
            f"{record['workload']}: analytic is only {record['speedup']:.1f}x faster "
            f"than fused at R={LARGE_REPLICATES} — below the {MIN_SPEEDUP:.0f}x gate"
        )
        assert record["replicate_ratio"] <= MAX_REPLICATE_RATIO, (
            f"{record['workload']}: R={LARGE_REPLICATES} costs "
            f"{record['replicate_ratio']:.2f}x the R={SMALL_REPLICATES} solve — the "
            f"analytic backend must be O(1) in replicates "
            f"(gate: {MAX_REPLICATE_RATIO}x)"
        )
    (huge,) = [r for r in records if r["replicates"] == HUGE_REPLICATES]
    assert huge["median_seconds"] < MAX_HUGE_SECONDS, (
        f"{huge['workload']}: one call took {huge['median_seconds']:.2f}s "
        f"(gate: {MAX_HUGE_SECONDS}s); the replicate axis must stay a broadcast view"
    )


if __name__ == "__main__":
    test_analytic_backend_meets_gates()
    print("benchmark gate passed")
