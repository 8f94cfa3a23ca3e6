"""Async job queue over the engine: submit, poll, stream, dedupe, persist.

The :class:`JobManager` is the daemon's core. HTTP handlers (or tests) call
:meth:`~JobManager.submit` with a JSON payload; the manager validates it
into a :class:`~repro.serve.submit.Submission`, enqueues a :class:`Job`, and
a pool of worker *threads* drains the queue through
:func:`~repro.serve.submit.run_submission` — which routes every execution
through the shared content-addressed :class:`~repro.engine.RunCache`, so

* a previously completed identical workload returns immediately
  (status ``hit``, no engine execution), and
* identical *concurrent* submissions collapse to one engine execution
  (single-flight; the followers report status ``dedupe``), with every
  caller receiving the identical payload.

Worker threads (not processes) are deliberate: per-round streaming hooks
cannot cross a process boundary, so each job runs on an in-process
``ExecutionEngine(workers=1)`` and daemon concurrency comes from the thread
pool. Results stay bit-identical either way — the engine seeds replicates
from the plan index, never from scheduling order.

Admission control is two-layered and both layers map onto HTTP semantics:
a bounded queue (:class:`QueueFullError` → 503) and a per-client token
bucket (:class:`RateLimitedError` → 429), each carrying a ``retry_after``
hint.

Job records persist as one JSON file per job under ``jobs_dir`` (atomic
writes). On restart the manager reloads them: completed jobs keep their
cache key — payloads are re-served straight from the cache — queued jobs
re-enqueue, and jobs that were mid-run when the daemon died are marked
failed (the next identical submission is a plain cache hit if the leader
finished its store, a recompute otherwise).
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any, Mapping

from repro.engine import ExecutionEngine, RunCache
from repro.obs.telemetry import get_telemetry
from repro.serve.stream import RoundBroadcaster
from repro.serve.submit import Submission, run_submission
from repro.utils.atomic import atomic_write_text
from repro.utils.serialization import dumps

JOB_STATUSES = ("queued", "running", "done", "failed", "cancelled")

#: Statuses that are terminal — the record will never change again.
TERMINAL = frozenset({"done", "failed", "cancelled"})


class QueueFullError(RuntimeError):
    """The bounded job queue is at capacity (HTTP 503)."""

    def __init__(self, depth: int, retry_after: float):
        super().__init__(f"job queue is full ({depth} jobs queued); retry later")
        self.retry_after = retry_after


class RateLimitedError(RuntimeError):
    """The client exceeded its submission rate (HTTP 429)."""

    def __init__(self, client: str, retry_after: float):
        super().__init__(f"rate limit exceeded for client {client!r}")
        self.retry_after = retry_after


class UnknownJobError(KeyError):
    """No job with the requested id (HTTP 404)."""

    def __init__(self, job_id: str):
        super().__init__(f"unknown job id {job_id!r}")
        self.job_id = job_id


class TokenBucketLimiter:
    """Per-client token bucket: ``burst`` capacity refilled at ``rate``/s.

    ``rate=None`` disables limiting entirely. Buckets are created lazily per
    client key and pruned once full again (idle clients cost nothing).
    """

    def __init__(self, rate: float | None, burst: int = 10, *, clock=time.monotonic):
        if rate is not None and rate <= 0:
            raise ValueError(f"rate must be positive (or None to disable), got {rate!r}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst!r}")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._buckets: dict[str, tuple[float, float]] = {}  # client -> (tokens, stamp)
        self._lock = threading.Lock()

    def check(self, client: str) -> float | None:
        """Take one token for ``client``; returns ``None`` (admitted) or
        the seconds until the next token (rejected)."""
        if self.rate is None:
            return None
        now = self._clock()
        with self._lock:
            tokens, stamp = self._buckets.get(client, (float(self.burst), now))
            tokens = min(float(self.burst), tokens + (now - stamp) * self.rate)
            if tokens >= 1.0:
                tokens -= 1.0
                self._buckets[client] = (tokens, now)
                return None
            self._buckets[client] = (tokens, now)
            return (1.0 - tokens) / self.rate


class Job:
    """One submitted workload and its lifecycle record."""

    def __init__(self, job_id: str, submission: Submission, *, client: str = "") -> None:
        self.id = job_id
        self.submission = submission
        self.client = client
        self.status = "queued"
        self.created = time.time()
        self.started: float | None = None
        self.finished: float | None = None
        self.error: str | None = None
        self.key: str | None = None
        self.result_status: str | None = None  # hit / computed / dedupe
        self.result: dict[str, Any] | None = None
        self.broadcaster = RoundBroadcaster()
        self.cancel_requested = False

    def to_record(self) -> dict[str, Any]:
        """The persisted/polled JSON form (never includes the payload)."""
        return {
            "id": self.id,
            "status": self.status,
            "submission": self.submission.to_dict(),
            "client": self.client,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "key": self.key,
            "result_status": self.result_status,
        }


class JobManager:
    """Bounded queue + worker pool + persistence (see the module docstring).

    Parameters
    ----------
    cache:
        Shared result tier. ``None`` disables caching *and* dedupe (every
        submission executes); the daemon always passes a cache.
    jobs_dir:
        Directory for per-job JSON records; ``None`` disables persistence.
    workers:
        Worker **threads** draining the queue (not engine processes).
    queue_depth:
        Max jobs queued (not yet running) before submissions get 503.
    rate / burst:
        Per-client token bucket (submissions/second, bucket size).
        ``rate=None`` disables rate limiting.

    The manager starts idle: call :meth:`start` to launch the workers.
    (Tests exploit this — submit N identical jobs *before* starting the
    pool to deterministically exercise single-flight dedupe.)
    """

    def __init__(
        self,
        *,
        cache: RunCache | None = None,
        jobs_dir: str | Path | None = None,
        workers: int = 2,
        queue_depth: int = 64,
        rate: float | None = None,
        burst: int = 10,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth!r}")
        self.cache = cache
        self.jobs_dir = Path(jobs_dir) if jobs_dir is not None else None
        self.workers = workers
        self.queue_depth = queue_depth
        self.limiter = TokenBucketLimiter(rate, burst)
        self.engine = ExecutionEngine(workers=1)  # in-process: on_round hooks work
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._queue: list[str] = []
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._threads: list[threading.Thread] = []
        self._stopping = False
        self._counter = 0
        if self.jobs_dir is not None:
            self._restore()

    # ------------------------------------------------------------------
    # Submission / polling
    # ------------------------------------------------------------------
    def submit(
        self, payload: Mapping[str, Any] | Submission, *, client: str = ""
    ) -> Job:
        """Validate, admit, enqueue. Raises :class:`RateLimitedError`,
        :class:`QueueFullError`, or the submission's own ``ValueError`` /
        ``KeyError`` for malformed payloads."""
        tel = get_telemetry()
        retry_after = self.limiter.check(client)
        if retry_after is not None:
            tel.counter("serve.jobs.rate_limited")
            raise RateLimitedError(client, retry_after)
        submission = (
            payload if isinstance(payload, Submission) else Submission.from_payload(payload)
        )
        with self._lock:
            if len(self._queue) >= self.queue_depth:
                tel.counter("serve.jobs.rejected_full")
                raise QueueFullError(len(self._queue), retry_after=5.0)
            self._counter += 1
            job = Job(f"job-{self._counter:06d}", submission, client=client)
            if self.cache is not None:
                job.key = submission.cache_key(self.cache)
            self._jobs[job.id] = job
            self._order.append(job.id)
            self._queue.append(job.id)
            tel.counter("serve.jobs.submitted")
            tel.gauge("serve.queue.depth", len(self._queue))
            self._wake.notify()
        self._persist(job)
        return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJobError(job_id) from None

    def jobs(self) -> list[Job]:
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def result(self, job_id: str) -> dict[str, Any]:
        """The payload of a done job; reloads from the cache after a restart."""
        job = self.get(job_id)
        if job.status != "done":
            raise ValueError(f"job {job_id} is {job.status}, not done")
        if job.result is None and self.cache is not None and job.key is not None:
            job.result = self.cache.load(job.key)
        if job.result is None:
            raise ValueError(f"job {job_id} has no retrievable payload")
        return job.result

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; returns False once it is already running."""
        job = self.get(job_id)
        with self._lock:
            if job.status == "queued":
                job.cancel_requested = True
                job.status = "cancelled"
                job.finished = time.time()
                if job_id in self._queue:
                    self._queue.remove(job_id)
                get_telemetry().counter("serve.jobs.cancelled")
                cancelled = True
            else:
                cancelled = job.status == "cancelled"
        if cancelled:
            job.broadcaster.close({"job": job.id, "status": "cancelled"})
            self._persist(job)
        return cancelled

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the worker threads (idempotent)."""
        with self._lock:
            if self._threads:
                return
            self._stopping = False
            for index in range(self.workers):
                thread = threading.Thread(
                    target=self._worker_loop, name=f"repro-serve-worker-{index}", daemon=True
                )
                self._threads.append(thread)
        for thread in self._threads:
            thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        """Drain-free stop: running jobs finish, queued jobs stay queued."""
        with self._lock:
            self._stopping = True
            self._wake.notify_all()
            threads, self._threads = self._threads, []
        for thread in threads:
            thread.join(timeout=timeout)

    def alive_workers(self) -> int:
        with self._lock:
            return sum(1 for thread in self._threads if thread.is_alive())

    def health(self) -> dict[str, Any]:
        """The ``/healthz`` body: worker-pool liveness + queue/job counts."""
        with self._lock:
            alive = sum(1 for thread in self._threads if thread.is_alive())
            expected = len(self._threads)
            counts: dict[str, int] = {status: 0 for status in JOB_STATUSES}
            for job in self._jobs.values():
                counts[job.status] += 1
            depth = len(self._queue)
        healthy = expected > 0 and alive == expected
        return {
            "status": "ok" if healthy else "degraded",
            "workers": {"expected": expected, "alive": alive},
            "queue_depth": depth,
            "jobs": counts,
        }

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._stopping:
                    self._wake.wait(timeout=0.5)
                if self._stopping:
                    return
                job_id = self._queue.pop(0)
                job = self._jobs[job_id]
                if job.status != "queued":  # cancelled while queued
                    continue
                job.status = "running"
                job.started = time.time()
                get_telemetry().gauge("serve.queue.depth", len(self._queue))
            self._persist(job)
            self._execute(job)

    def _execute(self, job: Job) -> None:
        tel = get_telemetry()
        start = time.perf_counter()
        workdir = None
        if self.jobs_dir is not None:
            workdir = self.jobs_dir / f"{job.id}-work"
        try:
            payload, status = run_submission(
                job.submission,
                cache=self.cache,
                engine=self.engine,
                workdir=workdir,
                on_round=job.broadcaster.publish,
            )
        except Exception as error:
            job.status = "failed"
            job.error = f"{type(error).__name__}: {error}"
            job.finished = time.time()
            tel.counter("serve.jobs.failed")
            job.broadcaster.close({"job": job.id, "status": "failed", "error": job.error})
        else:
            job.result = payload
            job.result_status = status
            job.status = "done"
            job.finished = time.time()
            tel.counter("serve.jobs.completed")
            tel.counter(f"serve.jobs.{status}")  # hit / computed / dedupe
            if status == "computed":
                tel.counter("serve.jobs.executed")
            tel.timer("serve.job_seconds", time.perf_counter() - start)
            # The final SSE event carries the job's full payload: on a
            # cache hit or dedupe no per-round events ever fired, so this
            # is the one event every subscriber is guaranteed to get.
            job.broadcaster.close(
                {"job": job.id, "status": "done", "result_status": status, "result": payload}
            )
        self._persist(job)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _persist(self, job: Job) -> None:
        if self.jobs_dir is None:
            return
        try:
            atomic_write_text(self.jobs_dir / f"{job.id}.json", dumps(job.to_record()))
        except OSError:  # pragma: no cover - disk trouble must not kill a worker
            get_telemetry().counter("serve.jobs.persist_errors")

    def _restore(self) -> None:
        """Reload persisted job records (constructor-time, single-threaded)."""
        import json

        if not self.jobs_dir.is_dir():
            return
        records = []
        for path in sorted(self.jobs_dir.glob("job-*.json")):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    records.append(json.load(handle))
            except (OSError, ValueError):  # pragma: no cover - corrupt record
                continue
        restored = 0
        for record in records:
            try:
                submission = Submission.from_payload(record["submission"])
            except (KeyError, ValueError):  # pragma: no cover - stale schema
                continue
            job = Job(record["id"], submission, client=record.get("client", ""))
            job.created = record.get("created", job.created)
            job.started = record.get("started")
            job.finished = record.get("finished")
            job.error = record.get("error")
            job.key = record.get("key")
            job.result_status = record.get("result_status")
            status = record.get("status", "queued")
            if status == "running":
                # The daemon died mid-run. The cache may or may not hold the
                # result; failing the record keeps the ledger honest and a
                # resubmission is a cheap hit if the store completed.
                job.status = "failed"
                job.error = job.error or "daemon restarted while the job was running"
                job.finished = job.finished or time.time()
            else:
                job.status = status
            if job.status in TERMINAL:
                job.broadcaster.close({"job": job.id, "status": job.status})
            self._jobs[job.id] = job
            self._order.append(job.id)
            if job.status == "queued":
                self._queue.append(job.id)
            try:
                self._counter = max(self._counter, int(record["id"].rsplit("-", 1)[1]))
            except (IndexError, ValueError):  # pragma: no cover - foreign id form
                pass
            restored += 1
        if restored:
            get_telemetry().counter("serve.jobs.restored", restored)


__all__ = [
    "JOB_STATUSES",
    "Job",
    "JobManager",
    "QueueFullError",
    "RateLimitedError",
    "TokenBucketLimiter",
    "UnknownJobError",
]
