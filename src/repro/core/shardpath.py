"""Intra-kernel sharding: one batched kernel call across many cores.

The scheduler parallelises at *plan-cell* granularity — whole experiments
fan out over processes — but a single batched :func:`~repro.core.kernel.run_kernel`
call still runs its entire ``(R, n)`` replicate matrix on one NumPy
thread. Every replicate row evolves independently, so the matrix splits
cleanly into contiguous row shards. There is one round loop
(:func:`repro.core.fastpath._run_loop`) with two seed disciplines: this
module runs it on each shard's row slice with per-row streams and merges
the slices.

**Determinism contract — bit-identical for every shard count.** The
repo's worker-count contract (``--workers N`` ≡ serial) extends one level
down: ``shard_workers=K`` produces byte-identical results for every ``K``,
including ``K=1``. The unsharded discipline cannot provide this anchor —
it draws all replicates from *one* shared stream, and rejection-based
samplers consume a data-dependent number of draws, so no partition of that
stream is layout-independent. Sharded runs therefore seed **each
replicate row from its own child** of the root seed
(:func:`~repro.utils.rng.spawn_seed_sequences` — the exact discipline the
scheduler uses for plan cells; :class:`~repro.core.fastpath._RowStreams`):
every row's placement, marking, step draws, and observation noise are a
pure function of its row index, never of which shard executed it. Shards
then merge by writing disjoint row slices — no reduction, no order
sensitivity. ``tests/baselines/shard_golden.json`` pins the discipline
itself, not only its K-invariance: every ``K`` reproduces it byte for byte.

**Per-row chunked draws.** Without observation noise the loop draws steps
several rounds at a time, as the unsharded loop does, but row by row: each
cache-sized tile of a shard's rows draws for a window sized from the tile,
``topology.draw_steps_chunk(k, (n,), rng)`` per row and window (in blocks
of whole rounds when ``k·n`` exceeds ``DRAW_BLOCK_ELEMENTS``), which the
topology's stream contract makes bit-identical to ``k`` per-round draws.
A noise model reads each row's stream between two step draws, so noisy
runs draw round by round, as the shared-stream loop does.
Each shard's tile window fits ``CHUNK_BUDGET_ELEMENTS`` elements of the
narrowest dtype that holds a step choice: shard threads allocate it in
their own malloc arenas, which keep memory after it is freed, so it is
kept small rather than returned.

Consequences, stated loudly rather than discovered:

* ``shard_workers=K`` ≡ ``shard_workers=1`` for every ``K`` (pinned by the
  hypothesis invariance suite), but sharded results are **not** the
  unsharded single-stream results — the flag changes the RNG discipline,
  which is why the serve cache key folds it in when set.
* ``round_hook`` configs **fall back to the unsharded fused loop** for
  every ``K`` (telemetry counts the fallback): a hook observes and mutates
  the whole live matrix each round, which is inherently cross-shard.
  Falling back for all ``K`` keeps the K-invariance contract — hooked runs
  never silently diverge between shard counts.
* Serial mode (``replicates=None``) has one row and nothing to shard; it
  also falls back.

Shards run on threads, which share the row slices without pickling or
page duplication, but they overlap only part of a round: the generator
draws, table gathers and elementwise adds release the GIL, while
``np.bincount``, which counts every tile every round, holds it.

A sharded call reports the loop's armings and refills once and its phase
seconds summed over its shards, so every ``fastpath.*`` counter is the
same for any ``K``; ``shardpath.shards`` counts the shards.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np

from repro.core.fastpath import _report_phases, _RowStreams, _run_loop, run_fused
from repro.core.kernel import _build_result
from repro.core.simulation import SimulationConfig
from repro.obs.telemetry import get_telemetry
from repro.topology.base import Topology
from repro.utils.rng import SeedLike, spawn_seed_sequences
from repro.utils.validation import require_integer


def shard_bounds(replicates: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous, near-even ``[lo, hi)`` row ranges covering ``replicates``.

    The first ``replicates % shards`` shards take one extra row. Purely a
    work partition — per-row seeding makes results independent of it.
    """
    require_integer(replicates, "replicates", minimum=1)
    require_integer(shards, "shards", minimum=1)
    shards = min(shards, replicates)
    base, extra = divmod(replicates, shards)
    bounds = []
    lo = 0
    for index in range(shards):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def run_sharded(
    topology: Topology,
    config: SimulationConfig,
    replicates: Optional[int],
    seed: SeedLike,
    shard_workers: int,
):
    """Run a batched kernel call as ``min(shard_workers, R)`` row shards.

    Entry point behind ``run_kernel(..., shard_workers=K)``; see the
    module docstring for the determinism contract. Serial mode and
    ``round_hook`` configs fall back to the unsharded fused loop for
    every ``K`` (counted in telemetry), so the K-invariance contract
    holds unconditionally.
    """
    require_integer(shard_workers, "shard_workers", minimum=1)
    tel = get_telemetry()
    if replicates is None or config.round_hook is not None:
        reason = "serial" if replicates is None else "round_hook"
        if tel.enabled:
            tel.counter("shardpath.fallbacks", reason=reason)
            tel.event("shardpath.fallback", reason=reason, shard_workers=shard_workers)
        return run_fused(topology, config, replicates, seed)

    bounds = shard_bounds(replicates, shard_workers)
    children = spawn_seed_sequences(seed, replicates)

    def run_shard(lo: int, hi: int):
        start = time.perf_counter()
        streams = _RowStreams(children[lo:hi])
        result, seconds = _run_loop(
            topology, config, hi - lo, streams, tel, lead=lo == 0, batch_rows=replicates
        )
        return result, seconds, time.perf_counter() - start

    with tel.span("shardpath", shards=len(bounds), replicates=replicates):
        # The calling thread runs the first slice, so the loop's reports
        # land inside this span; a pool runs the rest.
        with ThreadPoolExecutor(max_workers=max(1, len(bounds) - 1)) as pool:
            futures = [pool.submit(run_shard, lo, hi) for lo, hi in bounds[1:]]
            shards = [run_shard(*bounds[0])] + [future.result() for future in futures]
        _report_phases(tel, [seconds for _, seconds, _ in shards])
    results = [result for result, _, _ in shards]

    n = config.num_agents
    shape = (replicates, n)
    rounds = config.rounds
    totals = np.empty(shape, dtype=np.float64)
    marked_totals = np.empty(shape, dtype=np.float64)
    marked = np.empty(shape, dtype=bool)
    initial_positions = np.empty(shape, dtype=np.int64)
    final_positions = np.empty(shape, dtype=np.int64)
    trajectory = (
        np.zeros((rounds, *shape), dtype=np.float64) if config.record_trajectory else None
    )
    track_marked = any(bool(result.marked.any()) for result in results)
    marked_trajectory = (
        np.zeros((rounds, *shape), dtype=np.float64)
        if (config.record_trajectory and track_marked)
        else None
    )

    # Merge = disjoint row-slice assignment, in plan order. A shard that
    # tracked no marked rows contributes exact zeros, matching what its
    # rows would have produced in any other partition.
    for (lo, hi), result in zip(bounds, results):
        totals[lo:hi] = result.collision_totals
        marked_totals[lo:hi] = result.marked_collision_totals
        marked[lo:hi] = result.marked
        initial_positions[lo:hi] = result.initial_positions
        final_positions[lo:hi] = result.final_positions
        if trajectory is not None:
            trajectory[:, lo:hi, :] = result.trajectory
        if marked_trajectory is not None and result.marked_trajectory is not None:
            marked_trajectory[:, lo:hi, :] = result.marked_trajectory

    if tel.enabled:
        tel.counter("shardpath.runs")
        tel.counter("shardpath.shards", len(bounds))
        tel.counter("shardpath.merged_rows", replicates)
        for _, _, seconds in shards:
            tel.timer("shardpath.shard_seconds", seconds)
        tel.event(
            "shardpath.merged",
            shards=len(bounds),
            replicates=replicates,
            agents=n,
            shard_seconds=[round(seconds, 6) for _, _, seconds in shards],
        )

    return _build_result(
        False,
        replicates,
        topology,
        config,
        totals,
        marked_totals,
        marked,
        initial_positions,
        final_positions,
        trajectory,
        marked_trajectory,
    )


__all__ = [
    "run_sharded",
    "shard_bounds",
]
