"""``sweep-store``: sweep run, resume, 2-shard run + merge, then store queries.

In-process. Operations are the queries; the cycle wall covers all four
steps. The resumed and merged stores must be byte-identical to the first
run's store, and every query must equal an independent filter over
``select()``.
"""

from __future__ import annotations

import math
import random
import shutil
import time
from pathlib import Path

from repro.analysis.aggregate import aggregate_stream
from repro.engine import RunCache
from repro.obs.telemetry import TelemetryRecorder, use_telemetry
from repro.store import ResultStore, merge_stores
from repro.sweeps import SweepSpec, compile_cells, run_sweep_spec

from common import Checks, children_peak_rss_mb, self_peak_rss_mb, work_dir

SIDES = [12, 16, 20, 24]
E02_ROUNDS = [20, 30, 40, 50, 60, 70, 80, 90]
CRASH_ROUNDS = [24, 32, 40, 48, 56, 64, 72, 80]
WORKERS = 2


def make_spec(rng: random.Random, seed: int) -> SweepSpec:
    """64 small cells: 4 sides x (8 E02 round budgets + 8 crash horizons), seeded."""
    return SweepSpec.from_dict(
        {
            "schema": 1,
            "name": "perfbench-sweep",
            "seed": seed,
            "axes": [{"kind": "grid", "name": "side", "values": rng.sample(SIDES, len(SIDES))}],
            "targets": [
                {
                    "kind": "experiment",
                    "name": "E02",
                    "base": {"quick": True, "trials": 1},
                    "axes": [{"kind": "grid", "name": "rounds", "values": rng.sample(E02_ROUNDS, 8)}],
                },
                {
                    "kind": "scenario",
                    "name": "crash",
                    "base": {"quick": True, "replicates": 4},
                    "axes": [{"kind": "grid", "name": "rounds", "values": rng.sample(CRASH_ROUNDS, 8)}],
                },
            ],
        }
    )


def make_queries(rng: random.Random) -> list:
    """The fixed query mix: (kind, where, columns, limit, by)."""
    queries = []
    for _ in range(8):
        target = rng.choice(["E02", "crash"])
        queries.append(("where", {"target": target, "side": rng.choice(SIDES)}, None, None, None))
    for _ in range(4):
        queries.append(("limit", {"target_kind": "scenario"}, None, rng.randrange(5, 200), None))
    for _ in range(4):
        columns = ["cell", "side", "rounds", rng.choice(["empirical_epsilon", "true_density"])]
        queries.append(("columns", {"target": "E02", "rounds": rng.choice(E02_ROUNDS)}, columns, None, None))
    for _ in range(8):
        by = rng.choice([["side"], ["rounds"], ["side", "target_density"]])
        queries.append(("aggregate", {"target": "E02"}, None, None, by))
    rng.shuffle(queries)
    return queries


METRICS = [("mean", "empirical_epsilon"), ("max", "true_density"), ("count", "num_agents")]


def run_query(store: ResultStore, query: tuple) -> list:
    kind, where, columns, limit, by = query
    if kind == "aggregate":
        return aggregate_stream(store.iter_select(where=where), by=by, metrics=METRICS)
    return list(store.iter_select(where=where, columns=columns, limit=limit))


def expected_query(rows: list, query: tuple) -> list:
    """The same query answered by plain Python over ``select()``'s rows."""
    kind, where, columns, limit, by = query
    kept = [row for row in rows if all(row.get(key) == value for key, value in where.items())]
    if kind == "aggregate":
        groups: dict = {}
        for row in kept:
            groups.setdefault(tuple(row.get(column) for column in by), []).append(row)
        out = []
        for key in sorted(groups):
            members = groups[key]
            epsilons = [row["empirical_epsilon"] for row in members]
            out.append(
                {
                    **dict(zip(by, key)),
                    "n": len(members),
                    "mean_empirical_epsilon": sum(epsilons) / len(epsilons),
                    "max_true_density": max(row["true_density"] for row in members),
                    "count_num_agents": float(len(members)),
                }
            )
        return out
    if columns is not None:
        kept = [{column: row.get(column) for column in columns} for row in kept]
    return kept[:limit] if limit is not None else kept


def same_rows(got: list, want: list) -> bool:
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if a.keys() != b.keys():
            return False
        for key in a:
            x, y = a[key], b[key]
            if isinstance(x, float) and isinstance(y, float):
                if not math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12):
                    return False
            elif x != y:
                return False
    return True


def tree_bytes(root: Path) -> dict:
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


class Workload:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"sweep-store:{seed}")
        self.spec = make_spec(self.rng, seed)
        self.queries = make_queries(self.rng)
        self.dir = work_dir("sweep-store")
        self.checks = Checks()
        self.cycles = 0
        self.recorder = None

    def setup(self) -> None:
        # Warm-up: compile the plan and touch the store/aggregate code paths once.
        compile_cells(self.spec)
        warm = ResultStore(self.dir / "warm")
        warm.append("warm", [{"side": 1, "empirical_epsilon": 0.5}], meta={}, provenance={})
        aggregate_stream(warm.iter_select(), by=["side"], metrics=METRICS)
        shutil.rmtree(self.dir / "warm")

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def peak_rss_mb(self) -> float:
        return max(self_peak_rss_mb(), children_peak_rss_mb())

    def recording(self):
        self.recorder = TelemetryRecorder(level="summary")
        return use_telemetry(self.recorder)

    # ------------------------------------------------------------------
    def cycle(self, tracer, ops: list) -> dict:
        """Run, resume, shards + merge, queries; returns each step's seconds."""
        # The previous cycle's stores stay until now, for the traced-layer probes.
        shutil.rmtree(self.dir / f"cycle-{self.cycles - 1}", ignore_errors=True)
        base = self.dir / f"cycle-{self.cycles}"
        self.cycles += 1
        cache = RunCache(base / "cache")
        store = ResultStore(base / "store")
        steps = {}
        first = []

        def progress(cell, status):
            if not first:
                first.append(time.perf_counter())

        with tracer.span("sweeps.run", "sweeps"):
            t0 = time.perf_counter()
            run = run_sweep_spec(self.spec, workers=WORKERS, cache=cache, store=store, progress=progress)
            steps["run"] = time.perf_counter() - t0
        self.first_result_s = first[0] - t0
        self.checks.expect(run.complete and run.computed == run.total, "sweep run left cells pending")
        reference = tree_bytes(store.directory)

        with tracer.span("sweeps.resume", "sweeps"):
            t0 = time.perf_counter()
            resumed = run_sweep_spec(self.spec, workers=WORKERS, cache=cache, store=store)
            steps["resume"] = time.perf_counter() - t0
        self.checks.expect(resumed.hits == resumed.total, "resume recomputed cells")
        self.checks.expect(tree_bytes(store.directory) == reference, "resumed store differs from the first run")

        shard_dirs = [base / f"shard{index}" for index in range(2)]
        shard_computed = 0
        t0 = time.perf_counter()
        for index, shard_dir in enumerate(shard_dirs):
            with tracer.span(f"sweeps.shard{index}", "sweeps"):
                outcome = run_sweep_spec(
                    self.spec,
                    workers=1,
                    cache=RunCache(shard_dir / "cache"),
                    store=ResultStore(shard_dir / "store"),
                    shard=(index, 2),
                )
                shard_computed += outcome.computed
        shard_s = time.perf_counter() - t0
        merged = base / "merged"
        with tracer.span("store.merge", "store"):
            t1 = time.perf_counter()
            merge_stores([shard_dir / "store" for shard_dir in shard_dirs], merged)
            merge_s = time.perf_counter() - t1
        steps["shards_and_merge"] = shard_s + merge_s
        self.checks.expect(tree_bytes(merged) == reference, "merged 2-shard store differs from the first run")

        results = []
        t0 = time.perf_counter()
        for query in self.queries:
            layer = "analysis.aggregate" if query[0] == "aggregate" else "store"
            with tracer.span(f"store.query.{query[0]}", layer):
                q0 = time.perf_counter()
                rows = run_query(store, query)
                ops.append([query[0], time.perf_counter() - q0, True])
            results.append((ops[-1], query, rows))
        steps["queries"] = time.perf_counter() - t0

        every_row = store.select()
        for op, query, rows in results:
            self.checks.expect(
                same_rows(rows, expected_query(every_row, query)),
                f"query {query} disagrees with a filter over select()",
                op,
            )
        self.last = {
            "steps": steps,
            "merge_s": merge_s,
            "computed": run.computed + shard_computed,
            "cached": resumed.hits,
            "store": store,
            "cache": cache,
            "rows": every_row,
        }
        return steps

    def check(self) -> None:
        """Every output is checked inside its cycle."""

    # ------------------------------------------------------------------
    def traced_layers(self, tracer, ops: list) -> dict:
        summary = self.recorder.summary()
        counters, gauges, timers = summary["counters"], summary["gauges"], summary["timers"]

        def mean_ms(name):
            stats = timers.get(name)
            return 1e3 * stats["mean_seconds"] if stats else 0.0

        last = self.last
        by_kind: dict = {}
        for kind, seconds, _ in ops:
            by_kind.setdefault(kind, []).append(seconds)
        out = {
            "scheduler.cells": counters.get("scheduler.cells", 0),
            "scheduler.cell_ms": mean_ms("scheduler.cell_seconds"),
            "scheduler.worker_utilization": gauges.get("scheduler.worker_utilization", 0.0),
            "scheduler.first_result_ms": self.first_result_s * 1e3,
            "cache.hits": counters.get("cache.hits", 0),
            "cache.misses": counters.get("cache.misses", 0),
            "cache.store_ms": mean_ms("cache.store_seconds"),
            "sweeps.run_s": last["steps"]["run"],
            "sweeps.resume_s": last["steps"]["resume"],
            "sweeps.merge_s": last["merge_s"],
            "sweeps.cells_computed": last["computed"],
            "sweeps.cells_cached": last["cached"],
            "store.rows": len(last["rows"]),
            "store.rows_scanned": counters.get("store.rows_scanned", 0),
            "store.rows_returned": counters.get("store.rows_returned", 0),
            "store.segments_opened": counters.get("store.segments_opened", 0),
        }
        for kind, values in sorted(by_kind.items()):
            out[f"store.query_ms.{kind}"] = 1e3 * sum(values) / len(values)
        store, cache = last["store"], last["cache"]
        out["store.bytes"] = sum(path.stat().st_size for path in store.directory.rglob("*") if path.is_file())
        loads = []
        for cell in compile_cells(self.spec):
            with tracer.span("cache.load", "engine.cache"):
                t0 = time.perf_counter()
                cache.load(cell.key)
                loads.append(time.perf_counter() - t0)
        out["cache.load_ms"] = 1e3 * sum(loads) / len(loads)
        e02_rows = [row for row in last["rows"] if row["target"] == "E02"]
        streams = []
        for _ in range(5):
            with tracer.span("aggregate.stream", "analysis.aggregate"):
                t0 = time.perf_counter()
                aggregate_stream(e02_rows, by=["side"], metrics=METRICS)
                streams.append(time.perf_counter() - t0)
        out["aggregate.stream_ms"] = 1e3 * sorted(streams)[2]
        return out
