"""Execution engine: batched replicates, parallel scheduling, and a run cache.

The experiment suite establishes every claim by averaging independent
replicates. This package is the subsystem that runs those replicates fast
and reproducibly:

* :func:`repro.core.kernel.run_kernel` (re-exported here) runs ``R``
  replicates of Algorithm 1 as **one matrix simulation**: an ``(R, n)``
  position matrix through the round loop, one offset-label collision pass
  for all replicates. The same kernel serves the serial path;
  :func:`repro.core.kernel.require_batch_safe` is the one capability check
  guarding the replicate axis;
* :mod:`repro.engine.scheduler` — a deterministic **process-parallel
  scheduler** for independent tasks that cannot be batched (network-size
  pipelines, adaptive stopping, heterogeneous grids), bit-identical across
  worker counts;
* :mod:`repro.engine.cache` — a **content-addressed run store** (key =
  topology + config + seed hash) so repeated sweeps skip completed settings.

:class:`ExecutionEngine` is the facade experiments accept via their
``engine=`` parameter::

    from repro.engine import ExecutionEngine
    engine = ExecutionEngine(workers=4)
    result = run_experiment("E09", quick=True, engine=engine)
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "BatchSimulationResult": "repro.core.kernel", "KERNEL_BACKENDS": "repro.core.kernel",
    "require_batch_safe": "repro.core.kernel", "run_kernel": "repro.core.kernel",
    "ExecutionEngine": ".scheduler", "ExecutionPlan": ".scheduler", "build_plan": ".scheduler",
    "execute_plan": ".scheduler", "iter_execute_plan": ".scheduler",
    "RunCache": ".cache", "cache_key": ".cache",
})

__all__ = [
    "BatchSimulationResult",
    "ExecutionEngine",
    "ExecutionPlan",
    "KERNEL_BACKENDS",
    "RunCache",
    "build_plan",
    "cache_key",
    "execute_plan",
    "iter_execute_plan",
    "require_batch_safe",
    "run_kernel",
]
