"""Resumable parameter-grid orchestration over experiments and scenarios.

The subsystem generalises the ad-hoc grids inside individual experiment
scripts into one declarative, durable pipeline:

* :mod:`repro.sweeps.spec` — JSON-serialisable :class:`SweepSpec`\\ s built
  from grid / zip / random-search axes (:class:`GridAxis`,
  :class:`ZipAxis`, :class:`RandomAxis`) over experiment configs and
  dynamics scenarios, plus :func:`expand_axes`, the general form of the old
  ``analysis.sweep.cartesian_grid``;
* :mod:`repro.sweeps.runner` — compiles a spec into one flat
  :class:`~repro.engine.scheduler.ExecutionPlan` (the process pool spins up
  once per sweep, not once per cell), checkpoints every completed cell
  through :class:`~repro.engine.cache.RunCache`, streams finished rows into
  a :class:`~repro.store.ResultStore`, and resumes an interrupted sweep
  with zero recomputation. ``run_sweep_spec(..., shard=(i, N))`` runs only
  shard ``i``'s contiguous cell slice of the same plan (cell seeds
  untouched), so N machines can split a sweep and
  :func:`repro.store.merge_stores` joins their stores byte-identically.

The CLI front end is ``repro sweep run/resume/status`` (``run --shard i/N``
for distributed shards) plus ``repro store merge``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "SWEEP_SPEC_SCHEMA": ".spec", "GridAxis": ".spec", "ZipAxis": ".spec", "RandomAxis": ".spec",
    "TargetSpec": ".spec", "SweepSpec": ".spec", "axis_from_dict": ".spec", "expand_axes": ".spec",
    "load_spec": ".spec", "parse_shard": ".spec", "shard_cell_indices": ".spec",
    "SweepCell": ".runner", "SweepOutcome": ".runner", "compile_cells": ".runner",
    "run_sweep_spec": ".runner", "sweep_status": ".runner",
})

__all__ = [
    "SWEEP_SPEC_SCHEMA",
    "GridAxis",
    "ZipAxis",
    "RandomAxis",
    "TargetSpec",
    "SweepSpec",
    "SweepCell",
    "SweepOutcome",
    "axis_from_dict",
    "expand_axes",
    "load_spec",
    "parse_shard",
    "shard_cell_indices",
    "compile_cells",
    "run_sweep_spec",
    "sweep_status",
]
