"""Deterministic parallel scheduling of independent simulation tasks.

The kernel's batched mode (``run_kernel(..., replicates=R)``) covers the
plain Algorithm 1 replicate workload; everything it cannot express —
movement models, observation-noise hooks, the network-size pipelines — is
a bag of independent tasks that differ only in their parameters and their
random stream. This module runs such bags either serially or across a
process pool, with one hard guarantee:

**the results are bit-identical regardless of the worker count.**

Two ingredients make that possible:

1. every task gets its own child of one root :class:`numpy.random.SeedSequence`
   (``SeedSequence.spawn``), so its random stream depends only on its index
   in the plan, never on which process runs it or in what order;
2. results are reassembled in plan order, so chunking is invisible.

``workers=1`` never touches :mod:`concurrent.futures` at all — it is a plain
loop, usable in any environment (and the reference the parallel path is
tested against).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.kernel import (
    BatchSimulationResult,
    RunContext,
    current_run_context,
    run_kernel,
    use_run_context,
)
from repro.core.simulation import SimulationConfig
from repro.obs.telemetry import get_telemetry
from repro.topology.base import Topology
from repro.utils.rng import SeedLike, spawn_seed_sequences
from repro.utils.validation import require_integer

#: Contract for plan tasks: called as ``task(**setting, rng=generator)``.
TaskFn = Callable[..., Any]


@dataclass(frozen=True)
class ExecutionPlan:
    """An ordered bag of independent task invocations with pinned seeds.

    Attributes
    ----------
    task:
        Callable invoked as ``task(**setting, rng=generator)``. For parallel
        execution it must be picklable (a module-level function or a
        picklable callable object — not a lambda or closure).
    settings:
        One keyword-argument mapping per invocation.
    seed_sequences:
        One ``SeedSequence`` per invocation; each worker builds
        ``np.random.default_rng(seed_sequences[i])`` so the stream of task
        ``i`` is a pure function of the plan, not of the execution layout.
    cost_hints:
        Optional relative cost per invocation (any positive scale). When
        present, the default chunking balances chunks by *advertised cost*
        instead of cell count, so one huge cell (a million-agent
        simulation) gets its own chunk instead of serialising a pile of
        trivial cells behind it. Purely a scheduling hint: results are
        reassembled by index, so hints can never change them.
    """

    task: TaskFn
    settings: tuple[Mapping[str, Any], ...]
    seed_sequences: tuple[np.random.SeedSequence, ...]
    cost_hints: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.settings) != len(self.seed_sequences):
            raise ValueError(
                f"plan has {len(self.settings)} settings but "
                f"{len(self.seed_sequences)} seed sequences"
            )
        if self.cost_hints is not None:
            if len(self.cost_hints) != len(self.settings):
                raise ValueError(
                    f"plan has {len(self.settings)} settings but "
                    f"{len(self.cost_hints)} cost hints"
                )
            if any(not (cost > 0.0) for cost in self.cost_hints):
                raise ValueError("cost_hints must be positive and finite")

    def __len__(self) -> int:
        return len(self.settings)

    def subset(self, indices: Sequence[int]) -> "ExecutionPlan":
        """A sub-plan of the invocations at ``indices``, seeds pinned.

        Each retained invocation keeps the seed sequence it had in the full
        plan, so running a subset (a shard's cell range, a resumed
        remainder) produces bit-identical results to the same invocations
        inside a full run — the property sweep sharding and resume both
        rest on. ``indices`` may select any subset in any order; duplicates
        are rejected because one plan must never run an invocation twice.
        """
        total = len(self.settings)
        seen: set[int] = set()
        for index in indices:
            require_integer(index, "subset index", minimum=0)
            if index >= total:
                raise ValueError(f"subset index {index} is out of range for a plan of {total}")
            if index in seen:
                raise ValueError(f"subset repeats index {index}")
            seen.add(index)
        return ExecutionPlan(
            task=self.task,
            settings=tuple(self.settings[index] for index in indices),
            seed_sequences=tuple(self.seed_sequences[index] for index in indices),
            cost_hints=(
                None
                if self.cost_hints is None
                else tuple(self.cost_hints[index] for index in indices)
            ),
        )


def build_plan(
    task: TaskFn,
    settings: Iterable[Mapping[str, Any]],
    seed: SeedLike = None,
    cost_hints: Iterable[float] | None = None,
) -> ExecutionPlan:
    """Pin down an :class:`ExecutionPlan`: freeze the settings, spawn the seeds.

    ``cost_hints`` may be passed explicitly; when omitted, a task that
    advertises its own per-cell cost via a ``cost_hint(**setting)``
    callable has it evaluated per setting — cells carry their cost to the
    scheduler without every call site having to know about it.
    """
    frozen = tuple(dict(setting) for setting in settings)
    children = tuple(spawn_seed_sequences(seed, len(frozen)))
    if cost_hints is None:
        advertise = getattr(task, "cost_hint", None)
        if callable(advertise):
            cost_hints = [float(advertise(**setting)) for setting in frozen]
    hints = None if cost_hints is None else tuple(float(cost) for cost in cost_hints)
    return ExecutionPlan(
        task=task, settings=frozen, seed_sequences=children, cost_hints=hints
    )


def _run_chunk(
    task: TaskFn,
    settings: Sequence[Mapping[str, Any]],
    seed_sequences: Sequence[np.random.SeedSequence],
    timed: bool,
    context: RunContext,
) -> tuple[list[Any], list[float] | None]:
    """Execute one contiguous chunk of a plan (runs inside a worker process).

    Worker processes always run the default no-op telemetry; when the
    *parent* has a recorder installed it asks for ``timed=True`` and folds
    the worker-measured per-cell durations into its own recorder — which is
    what keeps telemetry parent-side and counters identical across worker
    counts.

    The cells run under the parent's :class:`~repro.core.kernel.RunContext`,
    passed as ``context``: a worker process does not share the parent's
    context, and ``--backend analytic`` or ``--shard-workers`` change
    records, so cells run under a worker's own default would diverge from
    the serial path. The caller's context is restored on return.
    """
    with use_run_context(context):
        if not timed:
            return [
                task(**setting, rng=np.random.default_rng(sequence))
                for setting, sequence in zip(settings, seed_sequences)
            ], None
        results: list[Any] = []
        durations: list[float] = []
        for setting, sequence in zip(settings, seed_sequences):
            start = time.perf_counter()
            results.append(task(**setting, rng=np.random.default_rng(sequence)))
            durations.append(time.perf_counter() - start)
        return results, durations


def _chunk_bounds(total: int, chunk_size: int) -> list[tuple[int, int]]:
    return [(start, min(start + chunk_size, total)) for start in range(0, total, chunk_size)]


def _cost_chunk_bounds(costs: Sequence[float], workers: int) -> list[tuple[int, int]]:
    """Contiguous chunk bounds balanced by advertised cost.

    The count-based default (``ceil(total / (workers * 4))`` cells per
    chunk) starves the pool when a plan has a few huge cells: a chunk that
    happens to hold two million-agent cells runs them back to back on one
    worker while the rest of the pool idles. Here chunks close once their
    accumulated cost reaches ``total_cost / (workers * 4)`` — so any cell
    at or above that target is its own chunk, and trivia packs together.
    Bounds remain contiguous and results are reassembled by index, so
    this changes scheduling only, never results.
    """
    total_cost = float(sum(costs))
    if not total_cost > 0.0:
        return _chunk_bounds(len(costs), max(1, math.ceil(len(costs) / (workers * 4))))
    target = total_cost / (workers * 4)
    bounds: list[tuple[int, int]] = []
    start = 0
    accumulated = 0.0
    for index, cost in enumerate(costs):
        if index > start and accumulated + cost > target:
            bounds.append((start, index))
            start = index
            accumulated = 0.0
        accumulated += cost
    bounds.append((start, len(costs)))
    return bounds


def iter_execute_plan(
    plan: ExecutionPlan, *, workers: int = 1, chunk_size: int | None = None
) -> Iterator[tuple[int, Any]]:
    """Yield ``(index, result)`` pairs of ``plan`` as results become available.

    The incremental form of :func:`execute_plan`: results stream back as the
    serial loop advances (``workers=1``, plan order) or **as worker chunks
    complete** (completion order across chunks, plan order within one).
    Callers that checkpoint progress (the sweep runner writes each completed
    cell to the run cache the moment it arrives) consume this directly; an
    interrupted consumer loses at most the chunks still executing, never a
    result already yielded — and because completed chunks are yielded ahead
    of slower earlier ones, a long-running cell never holds finished cells
    hostage un-checkpointed.

    The *set* of pairs — and anything order-independent derived from it —
    is identical for every ``workers`` / ``chunk_size`` combination; the
    ``index`` of each pair says where it belongs in the plan.
    """
    require_integer(workers, "workers", minimum=1)
    total = len(plan)
    if total == 0:
        return
    tel = get_telemetry()
    timed = tel.enabled
    if workers == 1 or total == 1:
        with tel.span("plan", tasks=total, workers=1):
            busy = 0.0
            wall_start = time.perf_counter() if timed else 0.0
            for index, (setting, sequence) in enumerate(
                zip(plan.settings, plan.seed_sequences)
            ):
                if timed:
                    start = time.perf_counter()
                result = plan.task(**setting, rng=np.random.default_rng(sequence))
                if timed:
                    elapsed = time.perf_counter() - start
                    busy += elapsed
                    tel.counter("scheduler.cells")
                    tel.timer("scheduler.cell_seconds", elapsed)
                yield index, result
            if timed:
                wall = time.perf_counter() - wall_start
                tel.gauge(
                    "scheduler.worker_utilization",
                    min(1.0, busy / wall) if wall > 0 else 1.0,
                )
        return

    if chunk_size is None and plan.cost_hints is not None:
        bounds = _cost_chunk_bounds(plan.cost_hints, workers)
    else:
        if chunk_size is None:
            chunk_size = max(1, math.ceil(total / (workers * 4)))
        require_integer(chunk_size, "chunk_size", minimum=1)
        bounds = _chunk_bounds(total, chunk_size)
    pool_workers = min(workers, len(bounds))
    pool = ProcessPoolExecutor(max_workers=pool_workers)
    with tel.span("plan", tasks=total, workers=pool_workers, chunks=len(bounds)):
        busy = 0.0
        wall_start = time.perf_counter() if timed else 0.0
        try:
            future_bounds = {
                pool.submit(
                    _run_chunk,
                    plan.task,
                    plan.settings[lo:hi],
                    plan.seed_sequences[lo:hi],
                    timed,
                    current_run_context(),
                ): (lo, hi)
                for lo, hi in bounds
            }
            for future in as_completed(future_bounds):
                lo, _ = future_bounds[future]
                results, durations = future.result()
                if timed and durations is not None:
                    for seconds in durations:
                        busy += seconds
                        tel.timer("scheduler.cell_seconds", seconds)
                    tel.counter("scheduler.cells", len(results))
                    tel.event(
                        "scheduler.chunk_complete",
                        start=lo,
                        cells=len(results),
                        busy_seconds=round(sum(durations), 6),
                    )
                for offset, result in enumerate(results):
                    yield lo + offset, result
            if timed:
                # Busy time is worker-measured, wall time parent-measured
                # (including consumer time between yields), so this is the
                # fraction of the pool's capacity the plan actually used.
                wall = time.perf_counter() - wall_start
                tel.gauge(
                    "scheduler.worker_utilization",
                    min(1.0, busy / (wall * pool_workers)) if wall > 0 else 1.0,
                )
        finally:
            # Reached on normal exhaustion (all futures done; cancelling is a
            # no-op) and on abandonment — a consumer error between yields or an
            # explicit close. Cancelling the queued chunks then surfaces the
            # consumer's exception immediately instead of silently running the
            # rest of a possibly huge plan to completion and discarding it.
            pool.shutdown(wait=True, cancel_futures=True)


def execute_plan(
    plan: ExecutionPlan, *, workers: int = 1, chunk_size: int | None = None
) -> list[Any]:
    """Run every invocation of ``plan`` and return the results in plan order.

    Parameters
    ----------
    plan:
        The plan to execute.
    workers:
        ``1`` (default) runs a plain serial loop in this process. Larger
        values fan the plan out over a ``ProcessPoolExecutor``; the task and
        its settings must then be picklable.
    chunk_size:
        Number of consecutive invocations shipped to a worker per submission
        (amortises process round-trips for short tasks). Defaults to an even
        split of roughly four chunks per worker. Has no effect on results.

    Returns
    -------
    list
        ``[task(**settings[i], rng=rng_i) for i in range(len(plan))]`` —
        identical for every ``workers`` / ``chunk_size`` combination (the
        incremental iterator may yield chunks out of order; reassembly by
        index restores plan order here).
    """
    results: list[Any] = [None] * len(plan)
    for index, result in iter_execute_plan(plan, workers=workers, chunk_size=chunk_size):
        results[index] = result
    return results


@dataclass(frozen=True)
class ExecutionEngine:
    """Facade over the engine's two execution strategies.

    * :meth:`run_replicates` — the batched matrix path for plain Algorithm 1
      replicate workloads (always in-process; ``workers`` is irrelevant).
    * :meth:`map` — the scheduled path for independent
      tasks that cannot be batched, fanned out over ``workers`` processes.

    Both paths are deterministic given their seed, and the scheduled path is
    additionally bit-identical across worker counts, so an engine only
    changes *how fast* results arrive — never the results.

    Attributes
    ----------
    workers:
        Process count for scheduled execution (``1`` = serial loop).
    chunk_size:
        Optional fixed chunk size for scheduled execution.
    """

    workers: int = 1
    chunk_size: int | None = None

    def __post_init__(self) -> None:
        require_integer(self.workers, "workers", minimum=1)
        if self.chunk_size is not None:
            require_integer(self.chunk_size, "chunk_size", minimum=1)

    # ------------------------------------------------------------------
    # Scheduled path
    # ------------------------------------------------------------------
    def map(
        self,
        task: TaskFn,
        settings: Iterable[Mapping[str, Any]],
        seed: SeedLike = None,
        cost_hints: Iterable[float] | None = None,
    ) -> list[Any]:
        """Run ``task(**setting, rng=...)`` for every setting, in order.

        ``cost_hints`` (or a ``task.cost_hint(**setting)`` advertisement)
        lets heterogeneous grids balance chunks by cost instead of count;
        see :class:`ExecutionPlan`. Results never depend on it.
        """
        plan = build_plan(task, settings, seed, cost_hints=cost_hints)
        return execute_plan(plan, workers=self.workers, chunk_size=self.chunk_size)

    # ------------------------------------------------------------------
    # Batched path
    # ------------------------------------------------------------------
    def run_replicates(
        self,
        topology: Topology,
        config: SimulationConfig,
        replicates: int,
        seed: SeedLike = None,
    ) -> BatchSimulationResult:
        """Run independent Algorithm 1 replicates as one matrix simulation."""
        return run_kernel(topology, config, replicates, seed)


__all__ = [
    "ExecutionPlan",
    "ExecutionEngine",
    "build_plan",
    "execute_plan",
    "iter_execute_plan",
]
