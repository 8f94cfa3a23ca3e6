"""``serve-mixed``: the HTTP daemon under a closed loop of one client.

An operation is ``POST /jobs``, a wait on ``GET /jobs/<id>/stream`` for the
final event, then ``GET /jobs/<id>/result``. About 80% of submissions
repeat a small fixed set of keys (cache hits); the rest carry fresh seeds
(computed). Every response for one key must be byte-identical, and equal
to ``dumps`` of an in-process ``run_submission`` of the same key (checked
for every hit key and a seeded sample of fresh ones).
"""

from __future__ import annotations

import contextlib
import http.client
import json
import random
import re
import shutil
import signal
import subprocess
import sys
import time

from common import LOAD_LIMITS, NULL_TRACER, Checks, median, source_env, vm_hwm_mb, work_dir

HIT_FRACTION = 0.8
HIT_KEYS = 6
#: Operations per ``wall_s`` block: the fixed amount of timed work.
BLOCK_OPS = 20
#: The daemon's peak memory is read after this many operations: it keeps every
#: job record, so a later reading would depend on how fast the run went.
RSS_AT_OPS = 1000
#: Fresh keys re-run in-process by the output check (every hit key is): a seeded
#: sample, so the check's cost does not grow with the run's length.
CHECKED_FRESH_KEYS = 100
#: Seconds of closed loop in each traced-run cycle.
TRACE_SLICE_S = 2.0


def submission(kind: str, seed: int) -> dict:
    if kind == "E01":
        return {"kind": "experiment", "name": "E01", "quick": True, "seed": seed}
    return {"kind": "scenario", "name": "crash", "quick": True, "seed": seed, "replicates": 4}


class Daemon:
    """``python -m repro serve --port 0`` as a child process."""

    def __init__(self, state_dir) -> None:
        self.log_path = state_dir / "serve.log"
        self.log = open(self.log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(LOAD_LIMITS["scheduler_workers"]), "--state-dir", str(state_dir / "state")],
            env=source_env(),
            stdout=subprocess.DEVNULL,
            stderr=self.log,
        )
        self.port = self._wait_for_port()
        self._wait_healthy()

    def _wait_for_port(self, timeout: float = 30.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = re.search(r"listening on http://[^:]+:(\d+)", self.log_path.read_text(encoding="utf-8"))
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                raise RuntimeError(f"serve exited {self.process.returncode}: {self.log_path.read_text()}")
            time.sleep(0.005)
        raise RuntimeError("serve never logged its port")

    def _wait_healthy(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with contextlib.suppress(OSError):
                status, _ = request(self.port, "GET", "/healthz")
                if status == 200:
                    return
            time.sleep(0.005)
        raise RuntimeError("serve never became healthy")

    def stop(self) -> None:
        """SIGTERM the daemon and wait for it (killing it if it hangs)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


def request(port: int, method: str, path: str, body: dict | None = None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def final_event(stream: bytes) -> dict:
    """The ``data`` of the last ``final`` event of an SSE body."""
    for frame in reversed(stream.split(b"\n\n")):
        lines = frame.decode("utf-8").splitlines()
        if "event: final" in lines:
            return json.loads("\n".join(line[6:] for line in lines if line.startswith("data: ")))
    raise ValueError("stream ended without a final event")


class Workload:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"serve-mixed:{seed}")
        self.seeds_used = 0
        self.dir = work_dir("serve-mixed")
        self.hit_keys = [self._fresh(kind) for kind in ("E01", "crash") * (HIT_KEYS // 2)]
        self.pending: list = []
        self.checks = Checks()
        self.bodies: dict = {}  # key -> result bytes
        self.daemon = None
        self.traced = False
        self.records: list = []
        self.rejected = 0
        self.rss_mb = None

    def setup(self) -> None:
        self.daemon = Daemon(self.dir)
        # Warm-up: compute every hit key once, so the mix's repeats are cache hits.
        for body in self.hit_keys:
            self.operation(body, [])

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
        shutil.rmtree(self.dir, ignore_errors=True)

    def recording(self):
        self.traced = True
        return contextlib.nullcontext()

    # ------------------------------------------------------------------
    def operation(self, body: dict, ops: list, tracer=NULL_TRACER) -> None:
        key = json.dumps(body, sort_keys=True)
        port = self.daemon.port
        op = [body["name"], 0.0, True, 0.0]
        start = time.perf_counter()
        with tracer.span("serve.post", "serve"):
            post_status, raw = request(port, "POST", "/jobs", body)
        posted = time.perf_counter()
        if post_status == 202:
            job_id = json.loads(raw)["id"]
            with tracer.span("serve.stream", "serve"):
                stream_status, stream = request(port, "GET", f"/jobs/{job_id}/stream")
                final_at = time.time()
            with tracer.span("serve.result", "serve"):
                result_status, result = request(port, "GET", f"/jobs/{job_id}/result")
        op[3] = time.perf_counter()
        op[1] = op[3] - start
        ops.append(op)
        self.rejected += post_status in (429, 503)
        if len(ops) == RSS_AT_OPS:
            self.rss_mb = vm_hwm_mb(self.daemon.process.pid)
        if not self.checks.expect(post_status == 202, f"POST /jobs answered {post_status}: {raw[:200]!r}", op):
            return
        final = final_event(stream) if stream_status == 200 else {}
        ok = self.checks.expect(
            final.get("status") == "done" and result_status == 200,
            f"job {job_id}: final event {final.get('status')!r}, result HTTP {result_status}",
            op,
        )
        if ok:
            first = self.bodies.setdefault(key, result)
            self.checks.expect(first == result, f"{key}: result bytes differ between responses", op)
        if self.traced:
            _, record = request(port, "GET", f"/jobs/{job_id}")
            record = json.loads(record)
            self.records.append(
                {
                    "post_s": posted - start,
                    "queue_wait_s": record["started"] - record["created"],
                    "exec_s": record["finished"] - record["started"],
                    "stream_tail_s": final_at - record["finished"],
                    "result_bytes": len(result),
                    "result_status": final.get("result_status"),
                }
            )

    def _fresh(self, kind: str) -> dict:
        # Seeds above 10**6 never repeat: the mix's computed jobs are cache misses.
        self.seeds_used += 1
        return submission(kind, 10**6 + self.seeds_used * 7919 + self.rng.randrange(7919))

    def _next_submission(self) -> dict:
        """The seeded submission order. Every ``BLOCK_OPS`` submissions hold exactly
        ``HIT_FRACTION`` repeats of the hit keys and an even split of fresh E01 and
        crash jobs, so every block of timed work has the same mix."""
        if not self.pending:
            fresh = BLOCK_OPS - round(HIT_FRACTION * BLOCK_OPS)
            self.pending = [self.hit_keys[i % HIT_KEYS] for i in range(BLOCK_OPS - fresh)]
            self.pending += [self._fresh(("E01", "crash")[i % 2]) for i in range(fresh)]
            self.rng.shuffle(self.pending)
        return self.pending.pop()

    def _loop(self, seconds: float, ops: list, tracer) -> float:
        """The one client's closed loop for ``seconds``; returns its start time."""
        start = time.perf_counter()
        while time.perf_counter() < start + seconds:
            body = self._next_submission()
            with tracer.span("serve.op", "bench"):
                self.operation(body, ops, tracer)
        return start

    def cycle(self, tracer, ops: list) -> dict:
        """A slice of the closed loop; returns its seconds per ``BLOCK_OPS`` operations."""
        before = len(ops)
        start = self._loop(TRACE_SLICE_S, ops, tracer)
        return {"block": (time.perf_counter() - start) * BLOCK_OPS / (len(ops) - before)}

    def run(self, seconds: float, ops: list) -> tuple:
        """The closed loop for ``seconds``, cut into blocks of ``BLOCK_OPS`` operations
        in order: (each block's seconds, each block's operations)."""
        start = self._loop(seconds, ops, NULL_TRACER)
        blocks = [ops[i : i + BLOCK_OPS] for i in range(0, len(ops) - BLOCK_OPS + 1, BLOCK_OPS)]
        ends = [start] + [block[-1][3] for block in blocks]
        return [b - a for a, b in zip(ends, ends[1:])], blocks

    def peak_rss_mb(self) -> float:
        return self.rss_mb if self.rss_mb is not None else vm_hwm_mb(self.daemon.process.pid)

    # ------------------------------------------------------------------
    def check(self) -> None:
        """Every hit key's bytes, and a seeded sample of fresh keys', against ``dumps``
        of an in-process ``run_submission`` of the same key."""
        from repro.serve.submit import Submission, run_submission
        from repro.utils.serialization import dumps

        hits = {json.dumps(body, sort_keys=True) for body in self.hit_keys}
        fresh = sorted(set(self.bodies) - hits)
        for key in sorted(hits & set(self.bodies)) + self.rng.sample(fresh, min(CHECKED_FRESH_KEYS, len(fresh))):
            body = self.bodies[key]
            payload, _ = run_submission(Submission.from_payload(json.loads(key)))
            self.checks.expect(dumps(payload).encode("utf-8") == body, f"{key}: daemon bytes != in-process dumps")

    def traced_layers(self, tracer, ops: list) -> dict:
        from repro.utils.serialization import dumps

        records = self.records
        statuses = [record["result_status"] for record in records]
        dumps_s = []
        for body in self.bodies.values():
            payload = json.loads(body)
            with tracer.span("serialization.dumps", "utils.serialization"):
                t0 = time.perf_counter()
                dumps(payload)
                dumps_s.append(time.perf_counter() - t0)
        out = {
            f"serve.{name}_ms": 1e3 * median([r[f"{name}_s"] for r in records])
            for name in ("post", "queue_wait", "exec", "stream_tail")
        }
        out.update(
            {
                "serve.result_bytes": median([r["result_bytes"] for r in records]),
                "serve.jobs.hit": statuses.count("hit"),
                "serve.jobs.computed": statuses.count("computed"),
                "serve.jobs.dedupe": statuses.count("dedupe"),
                "serve.rejected": self.rejected,
                "serialization.dumps_ms": 1e3 * median(dumps_s),
            }
        )
        return out

