"""``repro serve``: async job daemon + HTTP API over the engine.

The service layer on top of the batch stack (engine, cache, sweeps, store,
telemetry). Five pieces, each its own module:

* :mod:`repro.serve.submit` — validated :class:`Submission` objects and the
  one execution path (shared with the CLI) whose cache keys make identical
  CLI and HTTP workloads the same content-addressed entry;
* :mod:`repro.serve.jobs` — bounded async job queue, worker-thread pool,
  per-client rate limits, persistence, single-flight dedupe via
  :meth:`RunCache.get_or_compute`;
* :mod:`repro.serve.stream` — backpressure-safe per-round SSE fan-out fed
  by the dynamics tracker's ``on_round`` hook (observation-only: the daemon
  layer never consumes a random draw);
* :mod:`repro.serve.schema` — listings, JSON schemas, and the OpenAPI
  document, generated mechanically from the experiment/scenario/sweep
  registries;
* :mod:`repro.serve.api` — the stdlib ``http.server`` front-end and the
  route table the OpenAPI document is rendered from.

Everything is stdlib + the package's existing dependencies; there is no
web framework.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "CACHE_SCHEMA": ".submit", "Submission": ".submit", "execute_submission": ".submit",
    "run_submission": ".submit",
    "Job": ".jobs", "JobManager": ".jobs", "QueueFullError": ".jobs", "RateLimitedError": ".jobs",
    "TokenBucketLimiter": ".jobs", "UnknownJobError": ".jobs",
    "RoundBroadcaster": ".stream", "sse_format": ".stream",
    "experiment_listing": ".schema", "openapi_document": ".schema", "scenario_listing": ".schema",
    "submission_schema": ".schema",
})

__all__ = [
    "CACHE_SCHEMA",
    "Job",
    "JobManager",
    "QueueFullError",
    "RateLimitedError",
    "RoundBroadcaster",
    "Submission",
    "TokenBucketLimiter",
    "UnknownJobError",
    "execute_submission",
    "experiment_listing",
    "openapi_document",
    "run_submission",
    "scenario_listing",
    "sse_format",
    "submission_schema",
]
