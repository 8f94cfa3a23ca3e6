"""Benchmark: out-of-core result-store reads (ISSUE 10 acceptance gates).

The streaming read path (:meth:`repro.store.ResultStore.iter_select`)
replaced the materialise-everything ``select`` with a per-segment,
per-row generator, and sweep sharding (``repro sweep run --shard i/N``
plus ``repro store merge``) split one sweep across machines without
perturbing a single byte. This benchmark is the observatory for both:

1. **Memory gate**: a streaming aggregate over a >= 200k-row store must
   hold its peak incremental memory at or below ``MEMORY_RATIO_MAX``
   (1/4) of the materialised baseline's peak — the baseline being a
   faithful reimplementation of the old ``select`` (decode every row of
   every segment into one list).
2. **Limit gate**: a ``limit``-ed streaming query must beat the old
   full-scan-then-slice by at least ``MIN_LIMIT_SPEEDUP``, because the
   generator stops before later segments are even opened.
3. **Shard-merge identity gate**: a real (tiny) sweep run as two shards
   and merged must be byte-for-byte identical, file by file, to the same
   sweep run unsharded.

Every record carries ``workload`` / ``backend`` / ``median_seconds`` /
``speedup`` so ``repro bench history`` tracks the series across PRs.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_store.py

or through pytest (the assertions are the acceptance gates)::

    PYTHONPATH=src python -m pytest benchmarks/bench_store.py -s
"""

from __future__ import annotations

import tempfile
import tracemalloc
from pathlib import Path

from _timing import interleaved_best_speedup, median_of, write_bench_report
from repro.engine import RunCache
from repro.store import ResultStore, merge_stores
from repro.store.store import _matches
from repro.sweeps import GridAxis, SweepSpec, TargetSpec, run_sweep_spec

SEGMENTS = 64
ROWS_PER_SEGMENT = 3_200  # 64 x 3200 = 204,800 rows, past the 200k floor
MEMORY_RATIO_MAX = 0.25
MIN_LIMIT_SPEEDUP = 3.0
LIMIT = 500
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_store.json"

def build_store(root: Path) -> ResultStore:
    """A >= 200k-row store of synthetic sweep-shaped rows, many segments wide."""
    store = ResultStore(root)
    counter = 0
    for segment_index in range(SEGMENTS):
        rows = []
        for _ in range(ROWS_PER_SEGMENT):
            rows.append(
                {
                    "cell": segment_index,
                    "row": counter,
                    "value": (counter % 997) * 0.5,
                    "parity": counter % 2,
                    "label": f"item-{counter % 5}",
                    "padding": f"row-{counter:09d}-" + "x" * 40,
                }
            )
            counter += 1
        store.append(f"seg-{segment_index:03d}", rows)
    return store


def materialized_select(store: ResultStore, *, where=None, columns=None, limit=None):
    """The pre-streaming ``select``: decode everything, filter the list.

    This is the baseline both gates compare against — kept here (not in
    the package) precisely so the package no longer contains a
    materialise-everything read path.
    """
    rows = []
    for segment in store.segments():
        rows.extend(store.read_segment(segment))
    if where:
        rows = [row for row in rows if _matches(row, where)]
    if columns is not None:
        rows = [{column: row.get(column) for column in columns} for row in rows]
    if limit is not None:
        rows = rows[:limit]
    return rows


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def measure_memory(store: ResultStore) -> dict:
    """Gate 1: peak incremental memory, streaming vs materialised."""

    def streaming():
        total = 0.0
        for row in store.iter_select(where={"parity": 0}):
            total += row["value"]
        return total

    streaming_peak = _peak_bytes(streaming)
    materialized_peak = _peak_bytes(lambda: materialized_select(store, where={"parity": 0}))
    ratio = streaming_peak / materialized_peak
    print(
        f"memory: streaming peak {streaming_peak / 1e6:8.2f} MB, "
        f"materialized peak {materialized_peak / 1e6:8.2f} MB, ratio {ratio:.4f}"
    )
    return {
        "workload": f"filtered scan {SEGMENTS * ROWS_PER_SEGMENT} rows",
        "backend": "iter_select",
        "streaming_peak_bytes": streaming_peak,
        "materialized_peak_bytes": materialized_peak,
        "memory_ratio": ratio,
        "speedup": materialized_peak / max(streaming_peak, 1),
        "median_seconds": None,
    }


def measure_limit(store: ResultStore) -> dict:
    """Gate 2: the limit short-circuit vs the old full-scan-then-slice."""
    speedup = interleaved_best_speedup(
        lambda: materialized_select(store, limit=LIMIT),
        lambda: list(store.iter_select(limit=LIMIT)),
        repeats=3,
    )
    seconds = median_of(lambda: list(store.iter_select(limit=LIMIT)), repeats=3)
    print(f"limit={LIMIT}: streaming {seconds:8.5f}s, speedup {speedup:6.2f}x over full scan")
    return {
        "workload": f"limit {LIMIT} of {SEGMENTS * ROWS_PER_SEGMENT} rows",
        "backend": "iter_select",
        "median_seconds": seconds,
        "speedup": speedup,
    }


def _tiny_spec() -> SweepSpec:
    return SweepSpec(
        name="bench-shard",
        seed=17,
        targets=(
            TargetSpec(
                kind="experiment",
                name="E02",
                base={"quick": True, "side": 8, "rounds": 10, "trials": 1},
                axes=(GridAxis("densities", ((0.1,), (0.2,))),),
            ),
            TargetSpec(
                kind="scenario",
                name="stable",
                base={"side": 8, "num_agents": 4, "replicates": 2},
                axes=(GridAxis("rounds", (4, 8)),),
            ),
        ),
    )


def _store_files(root: Path) -> dict:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in root.rglob("*")
        if path.is_file()
    }


def measure_shard_merge(workdir: Path) -> dict:
    """Gate 3: two shards merged == one unsharded run, byte for byte."""
    spec = _tiny_spec()
    unsharded = workdir / "unsharded"
    run_sweep_spec(spec, cache=RunCache(workdir / "cache-u"), store=ResultStore(unsharded))
    shard_roots = []
    for index in range(2):
        shard_root = workdir / f"shard-{index}"
        run_sweep_spec(
            spec,
            cache=RunCache(workdir / f"cache-{index}"),
            store=ResultStore(shard_root),
            shard=(index, 2),
        )
        shard_roots.append(shard_root)
    merged = workdir / "merged"
    summary = merge_stores(shard_roots, merged)
    identical = _store_files(merged) == _store_files(unsharded)
    print(
        f"shard merge: {summary['segments_copied']} segments from 2 shards, "
        f"byte-identical={identical}"
    )
    return {
        "workload": "2-shard sweep merge",
        "backend": "merge_stores",
        "segments": summary["segments_copied"],
        "rows": summary["rows"],
        "byte_identical": identical,
        "median_seconds": None,
        "speedup": 1.0 if identical else 0.0,
    }


def run_benchmark(output_path: Path | None = None) -> dict:
    """Run every gate workload; write BENCH_store.json; return the payload."""
    with tempfile.TemporaryDirectory(prefix="bench-store-") as tmp:
        workdir = Path(tmp)
        store = build_store(workdir / "big-store")
        records = [
            measure_memory(store),
            measure_limit(store),
            measure_shard_merge(workdir / "shards"),
        ]
    gates = {
        "rows": SEGMENTS * ROWS_PER_SEGMENT,
        "memory_ratio_max": MEMORY_RATIO_MAX,
        "min_limit_speedup": MIN_LIMIT_SPEEDUP,
    }
    path = write_bench_report(
        OUTPUT_PATH if output_path is None else output_path, "bench_store", gates, records
    )
    print(f"wrote {path}")
    return {"gates": gates, "records": records}


def test_out_of_core_store_meets_gates() -> None:
    """Acceptance gates: memory ratio, limit speedup, byte identity."""
    payload = run_benchmark()

    memory = next(
        record for record in payload["records"] if record["workload"].startswith("filtered scan")
    )
    assert memory["memory_ratio"] <= MEMORY_RATIO_MAX, (
        f"streaming peak is {memory['memory_ratio']:.3f} of the materialised "
        f"baseline; the gate is {MEMORY_RATIO_MAX}"
    )

    limit_record = next(
        record for record in payload["records"] if record["workload"].startswith("limit")
    )
    assert limit_record["speedup"] >= MIN_LIMIT_SPEEDUP, (
        f"limit query speedup {limit_record['speedup']:.2f}x is under "
        f"{MIN_LIMIT_SPEEDUP}x — the short-circuit is not short-circuiting"
    )

    merge_record = next(
        record for record in payload["records"] if record["backend"] == "merge_stores"
    )
    assert merge_record["byte_identical"], "merged shard store diverged from the unsharded run"


if __name__ == "__main__":
    test_out_of_core_store_meets_gates()
