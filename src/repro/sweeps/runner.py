"""Compile and run sweeps: one flat plan, per-cell checkpoints, resume.

The execution contract, which the tests pin down:

* **One pool per sweep.** All pending cells of a sweep — across every
  target — compile into a single :class:`~repro.engine.scheduler.ExecutionPlan`
  executed with ``chunk_size=1``, so the process pool spins up once and
  cells stream back the moment they complete (a slow cell never delays the
  checkpointing of faster ones).
* **Bit-identical for any worker count.** Cell ``i``'s seed is child ``i``
  of ``SeedSequence(spec.seed)`` regardless of which cells still need
  running, so a resumed remainder, a ``--workers 4`` run, and a serial run
  all produce identical payloads, rows, and stores.
* **Checkpoint every cell.** As each cell completes it is written to the
  run cache (atomic, content-keyed) and appended to the result store
  (atomic, idempotent) *before* the next result is consumed. Killing the
  process loses at most the cells in flight; ``run_sweep_spec`` on the same
  cache then recomputes only the missing cells — cache-hit accounting in
  :class:`SweepOutcome` makes "zero recomputation" checkable.
* **Shards partition, never perturb.** ``run_sweep_spec(..., shard=(i, N))``
  compiles the *same* flat plan and executes only the contiguous cell-range
  slice owned by shard ``i`` (:func:`repro.sweeps.spec.shard_cell_indices`),
  with cell seeds untouched — so N shard stores merged with
  :func:`repro.store.merge_stores` are byte-identical to one unsharded run.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro import __version__
from repro.core.kernel import current_run_context
from repro.engine.cache import RunCache, cache_key
from repro.engine.scheduler import ExecutionPlan, iter_execute_plan
from repro.obs.telemetry import get_telemetry
from repro.store import ResultStore
from repro.sweeps.spec import SweepSpec, axis_seed, expand_axes, shard_cell_indices
from repro.utils.rng import spawn_seed_sequences
from repro.utils.serialization import to_jsonable
from repro.utils.validation import require_integer

#: Bump when the cell payload layout changes; folded into every cell key.
_SWEEP_CELL_SCHEMA = 1

#: Parameters a scenario target understands (forwarded to ``build_scenario``
#: / ``run_scenario``); everything else is rejected at compile time.
_SCENARIO_PARAMS = frozenset({"rounds", "side", "num_agents", "replicates", "quick"})

#: Columns of a scenario cell's per-round records.
_SCENARIO_COLUMNS = (
    "round",
    "population",
    "num_nodes",
    "true_density",
    "running",
    "window",
    "discounted",
    "ci_low",
    "ci_high",
    "change_fraction",
)

ProgressFn = Callable[["SweepCell", str], None]


@dataclass(frozen=True)
class SweepCell:
    """One compiled invocation: a target plus its fully-resolved parameters.

    ``key`` is the cell's content identity — schema, package version, sweep
    name and seed, cell index, target, parameters, and the current
    :meth:`RunContext.key_fields <repro.core.kernel.RunContext.key_fields>`
    — so the run cache automatically misses when any of them changes and
    hits otherwise.
    """

    index: int
    target_kind: str
    target_name: str
    params: Mapping[str, Any]
    key: str

    def label(self) -> str:
        shown = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.target_name}({shown})" if shown else self.target_name


def _canonical_params(params: Mapping[str, Any]) -> dict[str, Any]:
    return {key: to_jsonable(value) for key, value in sorted(params.items())}


def _validate_experiment_params(name: str, params: Mapping[str, Any]) -> str:
    from repro.experiments import EXPERIMENTS

    key = name.upper()
    if key not in EXPERIMENTS:
        raise ValueError(f"unknown experiment id {name!r}; known ids: {sorted(EXPERIMENTS)}")
    _, config_cls = EXPERIMENTS[key]
    fields = {f.name for f in dataclasses.fields(config_cls)}
    unknown = set(params) - fields - {"quick"}
    if unknown:
        raise ValueError(
            f"experiment {key} does not take parameter(s) {sorted(unknown)}; "
            f"its config fields are {sorted(fields)} (plus 'quick')"
        )
    return key


def _validate_scenario_params(name: str, params: Mapping[str, Any]) -> str:
    from repro.dynamics.scenario import SCENARIOS, scenario_names

    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {scenario_names()}")
    unknown = set(params) - _SCENARIO_PARAMS
    if unknown:
        raise ValueError(
            f"scenario {name!r} does not take parameter(s) {sorted(unknown)}; "
            f"allowed: {sorted(_SCENARIO_PARAMS)}"
        )
    return name


def compile_cells(spec: SweepSpec) -> list[SweepCell]:
    """Expand ``spec`` into its ordered list of cells, validating every one.

    Cells enumerate targets in spec order, and within a target the product
    of the spec-level axes with the target's own (later axes vary fastest).
    Validation — target existence, parameter applicability — happens here,
    before any simulation starts, so a malformed spec fails in milliseconds
    rather than mid-sweep inside a worker process.

    Random-axis values draw from the dedicated axis entropy domain
    (:func:`repro.sweeps.spec.axis_seed`): spec-level axes once (every
    target sees the same sampled points), target-level axes per target —
    and never from the streams the cells simulate with.
    """
    context_fields = current_run_context().key_fields()
    shared_points = expand_axes(spec.axes, seed=axis_seed(spec.seed))
    cells: list[SweepCell] = []
    for target_index, target in enumerate(spec.targets):
        target_points = expand_axes(target.axes, seed=axis_seed(spec.seed, target_index))
        for shared in shared_points:
            for point in target_points:
                params = {**target.base, **shared, **point}
                if target.kind == "experiment":
                    name = _validate_experiment_params(target.name, params)
                else:
                    name = _validate_scenario_params(target.name, params)
                index = len(cells)
                key = cache_key(
                    kind="sweep-cell",
                    schema=_SWEEP_CELL_SCHEMA,
                    version=__version__,
                    sweep=spec.name,
                    seed=spec.seed,
                    cell=index,
                    target_kind=target.kind,
                    target=name,
                    params=_canonical_params(params),
                    **context_fields,
                )
                cells.append(
                    SweepCell(
                        index=index,
                        target_kind=target.kind,
                        target_name=name,
                        params=params,
                        key=key,
                    )
                )
    return cells


def _coerce_config_overrides(params: Mapping[str, Any]) -> dict[str, Any]:
    """Convert JSON-shaped list values to tuples (config fields are tuple-typed)."""
    return {
        name: tuple(value) if isinstance(value, list) else value
        for name, value in params.items()
    }


def run_cell(
    target_kind: str,
    target_name: str,
    params: Mapping[str, Any],
    *,
    rng: np.random.Generator,
) -> dict[str, Any]:
    """Run one sweep cell and return its JSON-able payload.

    This is the module-level scheduler task (picklable). Experiments run
    with their config rebuilt from ``params`` over the quick/full defaults;
    scenarios run through :func:`repro.dynamics.driver.run_scenario` with a
    serial engine (the sweep already parallelises across cells). Imports
    are local so :mod:`repro.sweeps` itself stays import-light.
    """
    params = dict(params)
    quick = bool(params.pop("quick", False))
    if target_kind == "experiment":
        from repro.experiments import EXPERIMENTS

        module, config_cls = EXPERIMENTS[target_name.upper()]
        config = config_cls.quick() if quick else config_cls()
        config = dataclasses.replace(config, **_coerce_config_overrides(params))
        result = module.run(config, seed=rng)
        return {
            "target_kind": target_kind,
            "target": result.experiment_id,
            "title": result.title,
            "claim": result.claim,
            "records": result.records,
            "columns": list(result.columns) if result.columns else None,
            "notes": list(result.notes),
            "summary": None,
        }

    from repro.dynamics.driver import run_scenario
    from repro.dynamics.scenario import build_scenario

    replicates = int(params.pop("replicates", 8))
    scenario = build_scenario(target_name, quick=quick, **params)
    outcome = run_scenario(scenario, replicates=replicates, seed=rng)
    return {
        "target_kind": target_kind,
        "target": target_name,
        "title": scenario.description,
        "claim": f"scenario {target_name!r} tracked online over {scenario.rounds} rounds",
        "records": outcome.records(),
        "columns": list(_SCENARIO_COLUMNS),
        "notes": [],
        "summary": outcome.summary(),
    }


def cell_segment(spec: SweepSpec, cell: SweepCell) -> str:
    """Deterministic store segment name of one cell."""
    return f"{spec.name}-cell-{cell.index:05d}-{cell.key[:12]}"


def cell_rows(spec: SweepSpec, cell: SweepCell, payload: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Flatten one cell payload into store rows (params + record columns)."""
    meta = {
        "sweep": spec.name,
        "cell": cell.index,
        "cell_key": cell.key,
        "target_kind": cell.target_kind,
        "target": cell.target_name,
        "seed": spec.seed,
    }
    rows = []
    for row_index, record in enumerate(payload.get("records", [])):
        rows.append({**to_jsonable(cell.params), **to_jsonable(record), **meta, "row": row_index})
    return rows


def _store_cell(
    spec: SweepSpec, cell: SweepCell, payload: Mapping[str, Any], store: ResultStore
) -> bool:
    segment = cell_segment(spec, cell)
    if store.has_segment(segment):
        # Short-circuit before serialising the payload's rows: on a resume
        # of a mostly-complete sweep every cached cell lands here.
        return False
    meta = {
        "sweep": spec.name,
        "cell": cell.index,
        "cell_key": cell.key,
        "target_kind": cell.target_kind,
        "target": cell.target_name,
        "params": to_jsonable(cell.params),
        "title": payload.get("title"),
        "claim": payload.get("claim"),
        "columns": payload.get("columns"),
        "notes": payload.get("notes"),
        "summary": payload.get("summary"),
    }
    return store.append(
        segment,
        cell_rows(spec, cell, payload),
        meta=meta,
        provenance={"sweep": spec.name, "seed_root": spec.seed},
    )


@dataclass
class SweepOutcome:
    """What a :func:`run_sweep_spec` invocation did, cell by cell.

    ``payloads[i]`` is ``None`` exactly when cell ``i`` was neither cached
    nor executed this invocation (an interrupted / ``max_cells``-limited
    run); ``cached[i]`` / ``executed[i]`` say how each payload was obtained,
    which is the cache-hit accounting resumability tests assert on.

    ``shard`` records the ``(index, count)`` slice a sharded invocation
    owned (``None`` for an unsharded run): ``pending`` / ``complete`` then
    judge only the owned cells, so every shard of a sweep can report
    ``complete`` while holding payloads for just its slice.
    """

    spec: SweepSpec
    cells: list[SweepCell]
    payloads: list[dict[str, Any] | None]
    cached: list[bool]
    executed: list[bool]
    shard: tuple[int, int] | None = None

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def hits(self) -> int:
        return sum(self.cached)

    @property
    def computed(self) -> int:
        return sum(self.executed)

    @property
    def shard_indices(self) -> list[int]:
        """The cell indices this invocation owned (all of them unsharded)."""
        if self.shard is None:
            return list(range(len(self.cells)))
        index, count = self.shard
        return list(shard_cell_indices(len(self.cells), index, count))

    @property
    def pending(self) -> list[int]:
        return [index for index in self.shard_indices if self.payloads[index] is None]

    @property
    def complete(self) -> bool:
        return not self.pending

    def records(self) -> list[dict[str, Any]]:
        """Store-shaped rows of every completed cell, in cell order."""
        rows: list[dict[str, Any]] = []
        for cell, payload in zip(self.cells, self.payloads):
            if payload is not None:
                rows.extend(cell_rows(self.spec, cell, payload))
        return rows

    def summary(self) -> dict[str, Any]:
        out = {
            "sweep": self.spec.name,
            "cells": self.total,
            "cached": self.hits,
            "computed": self.computed,
            "pending": len(self.pending),
            "complete": self.complete,
        }
        if self.shard is not None:
            out["shard"] = f"{self.shard[0]}/{self.shard[1]}"
            out["shard_cells"] = len(self.shard_indices)
        return out


def run_sweep_spec(
    spec: SweepSpec,
    *,
    workers: int = 1,
    cache: RunCache | None = None,
    store: ResultStore | None = None,
    max_cells: int | None = None,
    progress: ProgressFn | None = None,
    shard: tuple[int, int] | None = None,
) -> SweepOutcome:
    """Run (or resume) every cell of ``spec``; see the module docstring.

    Parameters
    ----------
    workers:
        Worker processes for the single flat plan (results identical for
        any value).
    cache:
        Run cache used both to *skip* cells already computed and to
        *checkpoint* each cell the moment it completes. Without a cache the
        sweep still runs, but an interruption loses everything.
    store:
        Result store to stream completed cells into (idempotent appends, so
        resumed runs never duplicate rows). Cached cells whose segments are
        missing — e.g. a fresh store fed from a warm cache — are backfilled.
    max_cells:
        Compute at most this many *new* cells this invocation, then return
        with the remainder pending. This is the deterministic stand-in for
        "the process was killed mid-sweep" used by tests and the CI smoke
        step; resuming afterwards must recompute nothing that completed.
    progress:
        Optional callback invoked as ``progress(cell, status)`` with status
        ``"cached"`` or ``"computed"`` as each cell's payload materialises.
    shard:
        ``(index, count)`` to run only the contiguous cell-range slice
        owned by shard ``index`` of ``count``
        (:func:`repro.sweeps.spec.shard_cell_indices`). The full plan is
        still compiled — every cell keeps the seed it has in the unsharded
        run — but cache loads, execution, and store appends are restricted
        to the owned slice, so a shard's store holds *exactly* its own
        segments and ``merge_stores`` over all shards reproduces the
        unsharded store byte for byte.
    """
    require_integer(workers, "workers", minimum=1)
    if max_cells is not None:
        require_integer(max_cells, "max_cells", minimum=0)
    tel = get_telemetry()
    cells = compile_cells(spec)
    if shard is None:
        owned: Sequence[int] = range(len(cells))
    else:
        shard_index, shard_count = shard
        owned = shard_cell_indices(len(cells), shard_index, shard_count)
    seeds = spawn_seed_sequences(spec.seed, len(cells))
    payloads: list[dict[str, Any] | None] = [None] * len(cells)
    cached = [False] * len(cells)
    executed = [False] * len(cells)

    span_fields: dict[str, Any] = {"sweep": spec.name, "cells": len(cells), "workers": workers}
    if shard is not None:
        span_fields["shard"] = f"{shard[0]}/{shard[1]}"
    with tel.span("sweep", **span_fields):
        if cache is not None:
            for index in owned:
                cell = cells[index]
                payload = cache.load(cell.key)
                if payload is not None:
                    payloads[cell.index] = payload
                    cached[cell.index] = True
                    if store is not None:
                        _store_cell(spec, cell, payload, store)
                    if tel.enabled:
                        tel.counter("sweep.cells_cached")
                        tel.event("sweep.cell", cell=cell.index, status="cached")
                    if progress is not None:
                        progress(cell, "cached")

        pending = [index for index in owned if payloads[index] is None]
        to_run = pending if max_cells is None else pending[:max_cells]
        if to_run:
            # One flat plan over *every* cell, then the slice to execute:
            # the sub-plan keeps each cell's full-plan seed, which is what
            # makes shards (and resumed remainders) bit-identical to the
            # cells' runs inside an unsharded, uninterrupted sweep.
            full_plan = ExecutionPlan(
                task=run_cell,
                settings=tuple(
                    {
                        "target_kind": cell.target_kind,
                        "target_name": cell.target_name,
                        "params": dict(cell.params),
                    }
                    for cell in cells
                ),
                seed_sequences=tuple(seeds),
            )
            plan = full_plan.subset(to_run)
            # chunk_size=1: cells are whole experiments, so per-cell round trips
            # are cheap relative to the work, and every completed cell is
            # checkpointed before the next one is awaited.
            for position, payload in iter_execute_plan(plan, workers=workers, chunk_size=1):
                index = to_run[position]
                payloads[index] = payload
                executed[index] = True
                checkpoint_start = time.perf_counter() if tel.enabled else 0.0
                if cache is not None:
                    cache.store(cells[index].key, payload)
                if store is not None:
                    _store_cell(spec, cells[index], payload, store)
                if tel.enabled:
                    tel.counter("sweep.cells_computed")
                    tel.timer(
                        "sweep.checkpoint_seconds", time.perf_counter() - checkpoint_start
                    )
                    tel.event("sweep.cell", cell=index, status="computed")
                if progress is not None:
                    progress(cells[index], "computed")

    return SweepOutcome(
        spec=spec, cells=cells, payloads=payloads, cached=cached, executed=executed, shard=shard
    )


def sweep_status(
    spec: SweepSpec,
    *,
    cache: RunCache | None = None,
    store: ResultStore | None = None,
) -> dict[str, Any]:
    """Inspect a sweep without running anything: which cells are done where."""
    cells = compile_cells(spec)
    per_cell = []
    for cell in cells:
        per_cell.append(
            {
                "cell": cell.index,
                "target_kind": cell.target_kind,
                "target": cell.target_name,
                "params": to_jsonable(cell.params),
                "cached": bool(cache is not None and cache.contains(cell.key)),
                "stored": bool(
                    store is not None and store.exists() and store.has_segment(cell_segment(spec, cell))
                ),
            }
        )
    done = sum(1 for entry in per_cell if entry["cached"])
    return {
        "sweep": spec.name,
        "cells": len(cells),
        "cached": done,
        "pending": len(cells) - done,
        "per_cell": per_cell,
    }


__all__ = [
    "SweepCell",
    "SweepOutcome",
    "compile_cells",
    "run_cell",
    "cell_rows",
    "cell_segment",
    "run_sweep_spec",
    "sweep_status",
]
