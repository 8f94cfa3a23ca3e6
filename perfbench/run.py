"""The repository's end-to-end benchmark: one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload kernel-batch --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the workload's end-to-end metrics with tracing off;
``--trace 1`` runs the traced pass instead and reports per-layer metrics.
Every workload runs in fresh child processes (``perfbench/worker.py``);
this harness imports nothing from the package. Human-readable lines come
first; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Metrics, units, bounds and the
gated workloads are declared in ``BENCHMARK.json``; ``cold-cli`` and
``sweep-store`` run the same way but are not gated (see CHANGES.md), and
every traced run covers all four.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    LOAD_LIMITS,
    SETUP_REPEATS,
    latency_summary,
    median,
    repo_root,
    source_env,
)
from worker import MODULES  # noqa: E402

#: Wall-clock limit for one child process.
WORKER_TIMEOUT_S = 150


class WorkerError(RuntimeError):
    pass


def launch(workload: str, mode: str, seed: int, seconds: float, overhead: bool = False) -> tuple:
    """Run one worker; returns (seconds until it reported ready, its result or None)."""
    command = [sys.executable, str(HERE / "worker.py"), workload, mode, str(seed), str(seconds)]
    if overhead:
        command.append("--overhead")
    start = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=source_env(), cwd=repo_root())
    watchdog = threading.Timer(WORKER_TIMEOUT_S, process.kill)
    watchdog.start()
    try:
        ready = process.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = process.stdout.read()
        process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if ready.strip() != "ready" or process.returncode != 0:
        raise WorkerError(f"{workload} {mode} worker failed (exit {process.returncode})")
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def line(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name:34s} {value:>14.6g} {unit:6s} {note}".rstrip())


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ----------------------------------------------------------------------


def end_to_end(setups: list, result: dict) -> tuple:
    """(metrics, attempted, failed, latency summary) of one measure worker's result."""
    ops = result["ops"]
    attempted = len(ops) + result["checks_made"]
    failed = sum(1 for op in ops if not op[2]) + result["checks_failed"]
    latency = latency_summary([op[1] for op in ops])
    metrics = {
        "setup_s": median(setups),
        "wall_s": result["wall_s"],
        "ops_per_s": result["ops_per_unit"] / result["wall_s"],
        "op_p50_ms": latency["p50_ms"],
        "peak_rss_mb": result["rss_mb"],
    }
    return metrics, attempted, failed, latency


def measured(workload: str, seed: int, seconds: float) -> tuple:
    setups = [launch(workload, "setup", seed, seconds)[0] for _ in range(SETUP_REPEATS - 1)]
    setup_s, result = launch(workload, "measure", seed, seconds)
    setups.append(setup_s)
    ops = result["ops"]
    metrics, attempted, failed, latency = end_to_end(setups, result)
    line("setup_s", metrics["setup_s"], "s", f"median of {len(setups)} fresh set-ups")
    line("wall_s", metrics["wall_s"], "s", f"median of {result['units']} units of fixed work")
    line("ops_per_s", metrics["ops_per_s"], "1/s", f"{result['ops_per_unit']:g} operations per unit / wall_s")
    line("op_p50_ms", metrics["op_p50_ms"], "ms", f"{latency['samples']} samples")
    if "p90_ms" in latency:
        line("op_p90_ms", latency["p90_ms"], "ms", f"{latency['samples']} samples")
    else:
        note = f"not reported: fewer than 10 of {latency['samples']} samples beyond p90"
        print(f"{'op_p90_ms':34s} {'-':>14s}        {note}")
    line("failed_frac", failed / attempted, "ratio", f"{failed} of {attempted} attempted")
    line("peak_rss_mb", metrics["peak_rss_mb"], "MB")
    if "agent_rounds_per_s" in result:
        line("agent_rounds_per_s", result["agent_rounds_per_s"], "1/s", "sum of R*n*T per cycle / wall_s")
    kinds = sorted({op[0] for op in ops})
    for kind in kinds:
        times = [op[1] for op in ops if op[0] == kind]
        line(f"  op[{kind}] median", median(times) * 1e3, "ms", f"{len(times)} samples")
    return attempted, failed, result["messages"], metrics


# ----------------------------------------------------------------------
# Traced run: per-layer metrics
# ----------------------------------------------------------------------


def traced(workload: str, seed: int, seconds: float) -> tuple:
    """The traced pass of every workload (so every layer is measured), the named one with its overhead."""
    layers: dict = {}
    attempted = failed = 0
    messages: list = []
    own = None
    for name in MODULES:
        _, result = launch(name, "trace", seed, seconds, overhead=name == workload)
        layers.update(result["layers"])
        attempted += len(result["ops"]) + result["checks_made"]
        failed += sum(1 for op in result["ops"] if not op[2]) + result["checks_failed"]
        messages += result["messages"]
        total = result["traced_total_s"]
        print(f"[{name}] traced run: {total:.3f} s; self time by layer:")
        for layer, seconds_ in sorted(result["layer_self_s"].items(), key=lambda item: -item[1]):
            print(f"    {layer:22s} {seconds_:10.4f} s  {100 * seconds_ / total:6.2f}% of {total:.3f} s")
        print(f"    unattributed_s {result['unattributed_s']:.4f} s of {total:.3f} s")
        if name == workload:
            own = result
    overhead = own["traced_wall_s"] / own["untraced_wall_s"] - 1.0
    print(
        f"[{workload}] obs.trace_overhead_frac {overhead:+.4f} = traced wall_s "
        f"{own['traced_wall_s']:.4f} s / untraced wall_s {own['untraced_wall_s']:.4f} s - 1"
    )
    layers["obs.trace_overhead_frac"] = overhead
    layers["unattributed_s"] = own["unattributed_s"]
    return attempted, failed, messages, layers


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = repo_root()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no package source under {root / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in MODULES:
        print(f"error: unknown workload {args.workload!r}; known: {list(MODULES)}", file=sys.stderr)
        return 2
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    print(
        f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} nproc={os.cpu_count()} limits={json.dumps(LOAD_LIMITS)}"
    )
    try:
        if args.trace:
            attempted, failed, messages, values = traced(args.workload, args.seed, args.seconds)
        else:
            attempted, failed, messages, values = measured(args.workload, args.seed, args.seconds)
    except WorkerError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    missing = [metric["name"] for metric in wanted if metric["name"] not in values]
    if missing:
        print(f"error: the run produced no value for {missing}", file=sys.stderr)
        return 1
    if args.trace:
        for metric in wanted:
            line(metric["name"], values[metric["name"]], metric["unit"])
    for message in messages:
        print(f"check failed: {message}", file=sys.stderr)
    metrics = {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]} for metric in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
