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

With a cache, a finished job's result *is* its cache entry: the job keeps
its record, its key and the entry's size in bytes, never the payload. A
submission whose entry already exists and parses is a finished ``hit`` the
moment it is submitted: it takes no queue slot and waits for no worker.
:meth:`~JobManager.result_bytes` hands out the entry's bytes unchanged, and
each stream subscriber's final SSE frame is built from them on demand — the
same bytes before and after a restart, with no re-encoding per request. An
entry whose length no longer matches the recorded size (truncated on disk
after the job finished) counts as missing rather than being served.

Job records persist as one JSON file per job under ``jobs_dir`` (atomic
writes). On restart the manager reloads them: completed jobs keep their
cache key, queued jobs re-enqueue, and jobs that were mid-run when the
daemon died are marked failed, and that record is written back once (the
next identical submission is a plain cache hit if the leader finished its
store, a recompute otherwise).

Memory stays bounded however long the daemon runs. With a ``jobs_dir``, at
most :data:`FINISHED_IN_MEMORY` finished jobs stay in memory; an older one
leaves the table once its final record is on disk, and ``get``, results,
streams and cancels rebuild it from that record on demand, the way a
restart does. Its stream then replays no rounds, only the final event.
The ``jobs`` listing reads the record as it is, without rebuilding. A job
that keeps its payload (a manager without a cache) never leaves, and
neither does any job of a manager without a ``jobs_dir``.
``health()`` reads per-status counts kept up to date on every status
change, so it costs the same however many jobs the daemon has seen.
"""

from __future__ import annotations

import collections
import functools
import json
import threading
import time
from pathlib import Path
from typing import Any, Mapping

from repro.core.kernel import RunContext, use_run_context
from repro.engine import ExecutionEngine, RunCache
from repro.obs.telemetry import get_telemetry
from repro.serve.stream import RoundBroadcaster, sse_format
from repro.serve.submit import Submission, run_submission
from repro.utils.atomic import atomic_write_text
from repro.utils.serialization import dumps

JOB_STATUSES = ("queued", "running", "done", "failed", "cancelled")

#: Statuses that are terminal — the record will never change again.
TERMINAL = frozenset({"done", "failed", "cancelled"})

#: Finished jobs a manager with a ``jobs_dir`` keeps in memory; older ones
#: reload from their records on demand (see the module docstring).
FINISHED_IN_MEMORY = 256

#: The error of a job that was running when its daemon died.
RESTART_ERROR = "daemon restarted while the job was running"


def _record_order(path: Path) -> tuple[int, int, str]:
    """Restore order of a job record file: by the counter of its ``job-%06d``
    id, so ``job-1000000`` follows ``job-999999``; names whose counter does
    not parse come after those, in name order."""
    number = path.stem[len("job-"):]
    return (0, int(number), path.name) if number.isdecimal() else (1, 0, path.name)


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
    client key and pruned once full again (idle clients cost nothing): a
    full bucket admits exactly what a missing one does, so each new
    client's arrival drops every bucket whose refill has reached ``burst``.
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
            bucket = self._buckets.get(client)
            if bucket is None:
                self._buckets = {
                    name: (tokens, stamp)
                    for name, (tokens, stamp) in self._buckets.items()
                    if tokens + (now - stamp) * self.rate < self.burst
                }
                bucket = (float(self.burst), now)
            tokens, stamp = bucket
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
        self.entry_bytes: int | None = None  # size of the cache entry when it finished
        self.result: dict[str, Any] | None = None  # kept only without a cache
        self.broadcaster = RoundBroadcaster()

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
            "entry_bytes": self.entry_bytes,
        }


class JobManager:
    """Bounded queue + worker pool + persistence (see the module docstring).

    Parameters
    ----------
    cache:
        Shared result tier. ``None`` disables caching *and* dedupe (every
        submission executes); the daemon always passes a cache.
    jobs_dir:
        Directory for per-job JSON records; ``None`` disables persistence
        and keeps every finished job in memory.
    workers:
        Worker **threads** draining the queue (not engine processes).
    queue_depth:
        Max jobs queued (not yet running) before submissions get 503.
    rate / burst:
        Per-client token bucket (submissions/second, bucket size).
        ``rate=None`` disables rate limiting.
    context:
        The :class:`~repro.core.kernel.RunContext` every job of this manager
        runs under and keys its cache entries by. Each manager owns its
        own, so two managers in one process can run different backends.

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
        context: RunContext = RunContext(),
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
        self.context = context
        self.engine = ExecutionEngine(workers=1)  # in-process: on_round hooks work
        # Every job in submission order; ``None``: finished, its record on disk.
        self._jobs: dict[str, Job | None] = {}
        self._resident: collections.deque[str] = collections.deque()  # finished, in memory
        self._counts = dict.fromkeys(JOB_STATUSES, 0)
        self._queue: list[str] = []
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._persist_lock = threading.Lock()  # one record write at a time
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
        ``KeyError`` for malformed payloads.

        A submission whose cache entry exists and parses returns as a done
        ``hit`` job: it takes no queue slot (a full queue refuses only
        submissions that would queue) and its record is written once. A
        corrupt entry queues, and the worker recovers it.
        """
        tel = get_telemetry()
        retry_after = self.limiter.check(client)
        if retry_after is not None:
            tel.counter("serve.jobs.rate_limited")
            raise RateLimitedError(client, retry_after)
        submission = (
            payload if isinstance(payload, Submission) else Submission.from_payload(payload)
        )
        key = None if self.cache is None else submission.cache_key(self.cache, self.context)
        entry_bytes = None if key is None else self.cache.peek(key)
        hit = entry_bytes is not None
        with self._lock:
            if not hit and len(self._queue) >= self.queue_depth:
                tel.counter("serve.jobs.rejected_full")
                raise QueueFullError(len(self._queue), retry_after=5.0)
            self._counter += 1
            job = Job(f"job-{self._counter:06d}", submission, client=client)
            job.key = key
            tel.counter("serve.jobs.submitted")
            if hit:
                job.status, job.result_status = "done", "hit"
                job.started = job.finished = job.created
                job.entry_bytes = entry_bytes
                job.broadcaster.close(functools.partial(self._final_frame, job))
                tel.counter("serve.jobs.completed")
                tel.counter("serve.jobs.hit")
            else:
                self._queue.append(job.id)
                tel.gauge("serve.queue.depth", len(self._queue))
                self._wake.notify()
            self._jobs[job.id] = job
            self._counts[job.status] += 1
        if hit:
            self._finish(job)
        else:
            self._persist(job)
        return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            known, job = job_id in self._jobs, self._jobs.get(job_id)
        if job is None and known:
            job = self._load(job_id)
        if job is None:
            raise UnknownJobError(job_id)
        return job

    def jobs(self) -> list[dict[str, Any]]:
        """Every job's record, in submission order (the ``GET /jobs`` listing).

        An evicted job is listed by the record stored for it, read as it is:
        nothing is rebuilt or validated, so a listing costs one file read per
        evicted job.
        """
        with self._lock:
            entries = list(self._jobs.items())
        records = [
            job.to_record() if job is not None else self._stored_record(job_id)
            for job_id, job in entries
        ]
        return [record for record in records if record is not None]

    def result(self, job_id: str) -> dict[str, Any]:
        """The payload of a done job, parsed from its cache entry's bytes."""
        job, data = self._finished(job_id)
        return job.result if data is None else json.loads(data)

    def result_bytes(self, job_id: str) -> bytes:
        """The encoded payload of a done job: its cache entry's bytes.

        Every request for a key gets the bytes the cache stored, before and
        after a restart. A manager without a cache encodes the payload it
        kept. A deleted entry, or one whose length differs from the size
        recorded when the job finished, raises ``ValueError`` (HTTP 410),
        whether the job finished in this process or was restored.
        """
        job, data = self._finished(job_id)
        tel = get_telemetry()
        if data is None:
            tel.counter("serve.results.encoded")
            return dumps(job.result).encode("utf-8")
        tel.counter("serve.results.from_cache")
        return data

    def _final_frame(self, job: Job) -> bytes:
        """A done job's ``final`` SSE frame, built from its cache entry's bytes.

        The entry is spliced in as ``result`` with byte operations only, so
        the event's JSON value is ``{"job", "status", "result_status",
        "result": <payload>}`` with no parse or re-encode. A deleted or
        resized entry leaves the event without ``result``.
        """
        head = {"job": job.id, "status": "done", "result_status": job.result_status}
        data = self._entry(job)
        if data is None:
            return sse_format("final", head)
        encoded = json.dumps(head, separators=(",", ":")).encode("utf-8")
        return sse_format("final", encoded[:-1] + b',"result":' + data + b"}")

    def _finished(self, job_id: str) -> tuple[Job, bytes | None]:
        """A done job and its entry's bytes (``None``: the job kept its payload)."""
        job = self.get(job_id)
        if job.status != "done":
            raise ValueError(f"job {job_id} is {job.status}, not done")
        data = None
        if self.cache is not None and job.key is not None:
            data = self._entry(job)
        if data is None and job.result is None:
            raise ValueError(f"job {job_id} has no retrievable payload")
        return job, data

    def _entry(self, job: Job) -> bytes | None:
        """The bytes of ``job``'s cache entry; ``None`` if it is gone or resized.

        A length other than the size recorded when the job finished means the
        entry changed on disk since (a truncated write, say), so it is not
        the job's result. Records from before sizes were kept have none and
        are served as they are.
        """
        data = self.cache.read_bytes(job.key)
        if data is None or job.entry_bytes is None or len(data) == job.entry_bytes:
            return data
        return None

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; returns False once it is already running."""
        job = self.get(job_id)
        with self._lock:
            if job.status != "queued":
                return job.status == "cancelled"
            job.finished = time.time()
            self._set_status(job, "cancelled")
            if job_id in self._queue:
                self._queue.remove(job_id)
            get_telemetry().counter("serve.jobs.cancelled")
        job.broadcaster.close({"job": job.id, "status": "cancelled"})
        self._finish(job)
        return True

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

    def health(self) -> dict[str, Any]:
        """The ``/healthz`` body: worker-pool liveness + queue/job counts."""
        with self._lock:
            alive = sum(1 for thread in self._threads if thread.is_alive())
            expected = len(self._threads)
            counts = dict(self._counts)
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
                job.started = time.time()
                self._set_status(job, "running")
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
            with use_run_context(self.context):
                payload, status = run_submission(
                    job.submission,
                    cache=self.cache,
                    engine=self.engine,
                    workdir=workdir,
                    on_round=job.broadcaster.publish,
                )
        except Exception as error:
            job.error = f"{type(error).__name__}: {error}"
            job.finished = time.time()
            with self._lock:
                self._set_status(job, "failed")
            tel.counter("serve.jobs.failed")
            job.broadcaster.close({"job": job.id, "status": "failed", "error": job.error})
        else:
            # With a cache the entry is the result (see result_bytes).
            job.result = payload if self.cache is None else None
            if self.cache is not None:
                try:
                    job.entry_bytes = self.cache.path_for(job.key).stat().st_size
                except OSError:
                    job.entry_bytes = None
            job.result_status = status
            job.finished = time.time()
            with self._lock:
                self._set_status(job, "done")
            tel.counter("serve.jobs.completed")
            tel.counter(f"serve.jobs.{status}")  # hit / computed / dedupe
            if status == "computed":
                tel.counter("serve.jobs.executed")
            tel.timer("serve.job_seconds", time.perf_counter() - start)
            # The final SSE event carries the job's full payload: on a
            # cache hit or dedupe no per-round events ever fired, so this
            # is the one event every subscriber is guaranteed to get. With a
            # cache it is built from the entry per subscriber; without one
            # the broadcaster keeps it encoded, not the payload dict.
            job.broadcaster.close(
                {"job": job.id, "status": "done", "result_status": status, "result": payload}
                if self.cache is None
                else functools.partial(self._final_frame, job)
            )
        self._finish(job)

    # ------------------------------------------------------------------
    # Status, persistence and the in-memory cap
    # ------------------------------------------------------------------
    def _set_status(self, job: Job, status: str) -> None:
        """Move ``job`` to ``status`` and keep the counts (lock held)."""
        self._counts[job.status] -= 1
        self._counts[status] += 1
        job.status = status

    def _persist(self, job: Job) -> bool:
        """Write ``job``'s record; ``True`` once it is on disk.

        Writes run one at a time, and each encodes the job as it is when
        the write starts, so the last write holds the latest status: the
        ``queued`` record that ``submit`` writes cannot land after a
        worker's ``running`` or ``done`` one.
        """
        if self.jobs_dir is None:
            return False
        try:
            with self._persist_lock:
                atomic_write_text(self.jobs_dir / f"{job.id}.json", dumps(job.to_record()))
        except OSError:  # pragma: no cover - disk trouble must not kill a worker
            get_telemetry().counter("serve.jobs.persist_errors")
            return False
        return True

    def _finish(self, job: Job) -> None:
        """Persist a job that just finished, then let it count toward the cap."""
        if self._persist(job):
            self._retire(job)

    def _retire(self, job: Job) -> None:
        """Count a finished job whose final record is on disk among the jobs
        in memory, and evict the oldest past :data:`FINISHED_IN_MEMORY`.

        A job that keeps its payload stays: its record cannot rebuild it.
        """
        if job.result is not None:
            return
        with self._lock:
            self._resident.append(job.id)
            while len(self._resident) > FINISHED_IN_MEMORY:
                self._jobs[self._resident.popleft()] = None

    def _stored_record(self, job_id: str) -> dict[str, Any] | None:
        """An evicted job's record as stored (``None`` if it is gone or unreadable)."""
        try:
            with open(self.jobs_dir / f"{job_id}.json", "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def _load(self, job_id: str) -> Job | None:
        """An evicted job, rebuilt from its record (``None`` if that is gone)."""
        record = self._stored_record(job_id)
        try:
            return None if record is None else self._job_from_record(record)
        except (KeyError, ValueError):
            return None

    def _job_from_record(self, record: Mapping[str, Any]) -> Job:
        """The :class:`Job` a persisted record describes, its stream closed
        if it is terminal. Raises ``KeyError``/``ValueError`` for a record
        whose submission no longer validates."""
        job = Job(record["id"], Submission.from_payload(record["submission"]), client=record.get("client", ""))
        job.status = record.get("status", "queued")
        job.created = record.get("created", job.created)
        job.started = record.get("started")
        job.finished = record.get("finished")
        job.error = record.get("error")
        job.key = record.get("key")
        job.result_status = record.get("result_status")
        job.entry_bytes = record.get("entry_bytes")
        if job.status == "done" and self.cache is not None and job.key is not None:
            job.broadcaster.close(functools.partial(self._final_frame, job))
        elif job.status == "failed":  # the final event the failure streamed live
            job.broadcaster.close({"job": job.id, "status": "failed", "error": job.error})
        elif job.status in TERMINAL:
            job.broadcaster.close({"job": job.id, "status": job.status})
        return job

    def _restore(self) -> None:
        """Reload persisted job records (constructor-time, single-threaded)."""
        if not self.jobs_dir.is_dir():
            return
        restored = 0
        for path in sorted(self.jobs_dir.glob("job-*.json"), key=_record_order):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    record = json.load(handle)
            except (OSError, ValueError):  # pragma: no cover - corrupt record
                continue
            interrupted = record.get("status") == "running"
            if interrupted:
                # The daemon died mid-run. The cache may or may not hold the
                # result; failing the record keeps the ledger honest and a
                # resubmission is a cheap hit if the store completed.
                record = {
                    **record,
                    "status": "failed",
                    "error": record.get("error") or RESTART_ERROR,
                    "finished": record.get("finished") or time.time(),
                }
            try:
                job = self._job_from_record(record)
            except (KeyError, ValueError):  # pragma: no cover - stale schema
                continue
            self._jobs[job.id] = job
            self._counts[job.status] += 1
            if job.status == "queued":
                self._queue.append(job.id)
            elif job.status in TERMINAL:
                # An interrupted job's corrected record is written back once,
                # so the next restart reads the same record.
                if not interrupted or self._persist(job):
                    self._retire(job)
            try:
                self._counter = max(self._counter, int(job.id.rsplit("-", 1)[1]))
            except (IndexError, ValueError):  # pragma: no cover - foreign id form
                pass
            restored += 1
        if restored:
            get_telemetry().counter("serve.jobs.restored", restored)


__all__ = [
    "FINISHED_IN_MEMORY",
    "JOB_STATUSES",
    "Job",
    "JobManager",
    "QueueFullError",
    "RESTART_ERROR",
    "RateLimitedError",
    "TokenBucketLimiter",
    "UnknownJobError",
]
