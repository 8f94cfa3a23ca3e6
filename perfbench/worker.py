"""One workload in a fresh process: ``python perfbench/worker.py WORKLOAD MODE SEED SECONDS``.

MODE is ``setup`` (set up, report ready, exit), ``measure`` (set up, then
the untraced timed loop) or ``trace`` (set up, then one traced cycle and the
layer probes; ``--overhead`` adds an untraced cycle first). The harness
times set-up up to the ``ready`` line; the result is the last stdout line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import time

from common import NULL_TRACER, WORK_DIR, Tracer, median, repo_root

MODULES = {
    "cold-cli": "cold_cli",
    "kernel-batch": "kernel_batch",
    "sweep-store": "sweep_store",
    "serve-mixed": "serve_mixed",
}


def run_cycles(bench, seconds: float, ops: list) -> tuple:
    """Whole cycles until ``seconds`` have passed.

    Returns (each cycle's seconds, each cycle's operations).
    """
    walls = []
    units = []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        before = len(ops)
        walls.append(sum(bench.cycle(NULL_TRACER, ops).values()))
        units.append(ops[before:])
    return walls, units


def measure(workload: str, bench, seconds: float) -> dict:
    """The untraced timed loop. A unit of work is one cycle (or one block of operations).

    ``wall_s`` is the median of the units' seconds, so a few units slowed by
    other load on the host do not move it.
    """
    ops: list = []
    walls, units = bench.run(seconds, ops) if hasattr(bench, "run") else run_cycles(bench, seconds, ops)
    wall = median(walls)
    result = {
        "ops": ops,
        "wall_s": wall,
        "units": len(units),
        "ops_per_unit": len(units[0]),
        "rss_mb": bench.peak_rss_mb(),
    }
    if workload == "kernel-batch":
        result["agent_rounds_per_s"] = bench.agent_rounds() / wall
    return result


def trace(workload: str, bench, seed: int, overhead: bool) -> dict:
    untraced = sum(bench.cycle(NULL_TRACER, []).values()) if overhead else None
    tracer = Tracer()
    ops: list = []
    with tracer.span(workload, "bench"):
        with bench.recording():
            wall = sum(bench.cycle(tracer, ops).values())
        layers = bench.traced_layers(tracer, ops)
    self_times = tracer.self_times()
    tracer.write(repo_root() / WORK_DIR / "traces" / f"{workload}-seed{seed}.json")
    return {
        "layers": layers,
        "layer_self_s": tracer.layer_self_seconds(),
        "unattributed_s": sum(s for i, s in self_times.items() if tracer.spans[i]["layer"] == "bench"),
        "traced_total_s": tracer.spans[0]["end"] - tracer.spans[0]["start"],
        "traced_wall_s": wall,
        "untraced_wall_s": untraced,
        "ops": ops,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(MODULES))
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()
    bench = importlib.import_module(MODULES[args.workload]).Workload(args.seed)
    try:
        bench.setup()
        print("ready", flush=True)  # set-up is over: the harness stops its set-up clock here
        if args.mode == "setup":
            return 0
        if args.mode == "measure":
            result = measure(args.workload, bench, args.seconds)
        else:
            result = trace(args.workload, bench, args.seed, args.overhead)
        bench.check()
    finally:
        bench.close()
    checks = bench.checks
    result["ops"] = [op[:3] for op in result["ops"]]
    result.update(checks_made=checks.made, checks_failed=checks.failed, messages=checks.messages)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
